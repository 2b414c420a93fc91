#include "shard/sharded_matcher.h"

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzymatch {
namespace shard {

namespace {

/// Interned "shard[k]" span label — trace records holding the pointer
/// can outlive any particular matcher, so the strings leak by design.
const char* ShardSpanLabel(size_t k) {
  static std::mutex mu;
  static std::vector<std::string*> labels;
  std::lock_guard<std::mutex> lock(mu);
  while (labels.size() <= k) {
    labels.push_back(
        new std::string("shard[" + std::to_string(labels.size()) + "]"));
  }
  return labels[k]->c_str();
}

obs::Counter& ScatterQueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("shard.scatter_queries");
  return *c;
}

obs::Counter& FanoutTasksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("shard.fanout_tasks");
  return *c;
}

obs::Histogram& MergeSecondsHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "shard.merge_seconds", obs::LatencyHistogramOptions());
  return *h;
}

}  // namespace

std::vector<Match> MergeTopK(
    const std::vector<std::vector<Match>>& per_shard, size_t k) {
  struct Cursor {
    size_t shard;
    size_t pos;
  };
  // Top of the heap = globally best remaining match; shard index breaks
  // exact (similarity, tid) duplicates, which disjoint tids rule out
  // anyway.
  const auto after = [&per_shard](const Cursor& a, const Cursor& b) {
    const Match& ma = per_shard[a.shard][a.pos];
    const Match& mb = per_shard[b.shard][b.pos];
    if (ma.similarity != mb.similarity) {
      return ma.similarity < mb.similarity;
    }
    return ma.tid > mb.tid;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (!per_shard[s].empty()) {
      heap.push(Cursor{s, 0});
    }
  }
  std::vector<Match> out;
  out.reserve(std::min(k, per_shard.size() * 4));
  while (!heap.empty() && out.size() < k) {
    const Cursor top = heap.top();
    heap.pop();
    out.push_back(per_shard[top.shard][top.pos]);
    if (top.pos + 1 < per_shard[top.shard].size()) {
      heap.push(Cursor{top.shard, top.pos + 1});
    }
  }
  return out;
}

/// One scattered query at one shard. The coordinator owns the storage;
/// the worker fills in the result and signals `done`.
struct ShardedMatcher::Task {
  const Row* input = nullptr;
  uint64_t request_id = 0;
  bool traced = false;
  std::chrono::steady_clock::time_point child_start;
  obs::TraceRecord child_record;

  Status status;
  std::vector<Match> matches;  // global tids, best first
  QueryStats stats;

  std::mutex* done_mu = nullptr;
  std::condition_variable* done_cv = nullptr;
  size_t* remaining = nullptr;
};

/// Per-shard executor: query engine + task queue + worker thread.
struct ShardedMatcher::ShardExec {
  size_t index = 0;
  std::unique_ptr<EtiMatcher> engine;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Task*> queue;
  bool stopping = false;
  std::atomic<size_t> depth{0};  // queued, not yet picked up

  // This shard's registry slice, resolved once at Create.
  obs::Counter* queries = nullptr;
  obs::Counter* candidates = nullptr;
  obs::Counter* osc_short_circuits = nullptr;
  obs::Gauge* queue_depth_gauge = nullptr;

  std::thread worker;  // last: it uses every member above
};

ShardedMatcher::ShardedMatcher(ShardRouter* router)
    : router_(router), k_(router->shard(0).config().matcher.k) {}

Result<std::unique_ptr<ShardedMatcher>> ShardedMatcher::Create(
    ShardRouter* router) {
  if (router == nullptr || router->num_shards() < 1) {
    return Status::InvalidArgument("ShardedMatcher needs a built router");
  }
  auto matcher = std::unique_ptr<ShardedMatcher>(new ShardedMatcher(router));
  auto& reg = obs::MetricsRegistry::Global();
  matcher->execs_.reserve(router->num_shards());
  for (size_t k = 0; k < router->num_shards(); ++k) {
    auto exec = std::make_unique<ShardExec>();
    exec->index = k;
    exec->engine = router->shard(k).NewQueryEngine();
    const std::string suffix = "_s" + std::to_string(k);
    exec->queries = reg.GetCounter("shard.queries" + suffix);
    exec->candidates = reg.GetCounter("shard.candidates" + suffix);
    exec->osc_short_circuits =
        reg.GetCounter("shard.osc_short_circuits" + suffix);
    exec->queue_depth_gauge = reg.GetGauge("shard.queue_depth" + suffix);
    matcher->execs_.push_back(std::move(exec));
  }
  for (auto& exec : matcher->execs_) {
    ShardExec* raw = exec.get();
    raw->worker = std::thread([m = matcher.get(), raw] { m->WorkerLoop(raw); });
  }
  return matcher;
}

ShardedMatcher::~ShardedMatcher() {
  for (auto& exec : execs_) {
    {
      std::lock_guard<std::mutex> lock(exec->mu);
      exec->stopping = true;
    }
    exec->cv.notify_all();
  }
  for (auto& exec : execs_) {
    if (exec->worker.joinable()) {  // Create may fail before starting it
      exec->worker.join();
    }
  }
}

void ShardedMatcher::WorkerLoop(ShardExec* exec) const {
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(exec->mu);
      exec->cv.wait(lock, [exec] {
        return exec->stopping || !exec->queue.empty();
      });
      if (exec->queue.empty()) {
        return;  // stopping, queue drained
      }
      task = exec->queue.front();
      exec->queue.pop_front();
      exec->depth.store(exec->queue.size(), std::memory_order_relaxed);
      exec->queue_depth_gauge->Set(
          static_cast<double>(exec->queue.size()));
    }
    if (task->traced) {
      task->child_start = std::chrono::steady_clock::now();
      // Child trace carries the coordinator's request id and collects
      // into the task; the coordinator grafts it into the parent tree
      // after the gather, so one request renders as one tree.
      obs::RequestTrace child(
          "shard", task->request_id,
          obs::RequestTrace::CollectInto{&task->child_record});
      RunTask(exec, task);
      if (!task->status.ok()) {
        child.SetStatus(task->status);
      }
    } else {
      RunTask(exec, task);
    }
    {
      // Notify while still holding the lock: the coordinator owns the
      // Task, the counter, and the condition variable on its stack and
      // frees them as soon as it observes remaining == 0 — which it can
      // only do after this mutex is released. Signalling after unlock
      // would race with that destruction.
      std::lock_guard<std::mutex> lock(*task->done_mu);
      --*task->remaining;
      task->done_cv->notify_one();
    }
  }
}

void ShardedMatcher::RunTask(ShardExec* exec, Task* task) const {
  Result<std::vector<Match>> result =
      exec->engine->FindMatches(*task->input, &task->stats);
  if (!result.ok()) {
    task->status = result.status();
    return;
  }
  task->matches = std::move(*result);
  for (Match& match : task->matches) {
    Result<Tid> global = router_->GlobalTid(exec->index, match.tid);
    if (!global.ok()) {  // engine returned a tid outside the shard map
      task->status = global.status();
      task->matches.clear();
      return;
    }
    match.tid = *global;
  }
  exec->queries->Increment();
  exec->candidates->Increment(task->stats.candidates);
  if (task->stats.osc_succeeded) {
    exec->osc_short_circuits->Increment();
  }
}

Result<std::vector<Match>> ShardedMatcher::FindMatches(
    const Row& input, QueryStats* stats) const {
  // Request boundary when called outside the server; under a server
  // worker (or BatchCleaner::Clean) the upstream trace is reused, so the
  // shard children always graft onto exactly one tree.
  obs::MaybeRequestTrace boundary("match");
  Result<std::vector<Match>> result = FindMatchesImpl(input, stats);
  if (!result.ok()) {
    boundary.SetStatus(result.status());
  }
  return result;
}

Result<std::vector<Match>> ShardedMatcher::FindMatchesImpl(
    const Row& input, QueryStats* stats) const {
  Timer timer;
  FM_TRACE_SPAN("shard.scatter_gather");
  obs::RequestTrace* parent = obs::RequestTrace::Current();

  const size_t n = execs_.size();
  std::vector<Task> tasks(n);
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = n;
  for (size_t k = 0; k < n; ++k) {
    Task& task = tasks[k];
    task.input = &input;
    task.traced = parent != nullptr;
    task.request_id = parent != nullptr ? parent->request_id() : 0;
    task.done_mu = &done_mu;
    task.done_cv = &done_cv;
    task.remaining = &remaining;
    ShardExec* exec = execs_[k].get();
    {
      std::lock_guard<std::mutex> lock(exec->mu);
      exec->queue.push_back(&task);
      exec->depth.store(exec->queue.size(), std::memory_order_relaxed);
      exec->queue_depth_gauge->Set(
          static_cast<double>(exec->queue.size()));
    }
    exec->cv.notify_one();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  ScatterQueriesCounter().Increment();
  FanoutTasksCounter().Increment(n);

  if (parent != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      parent->AdoptChildTrace(tasks[k].child_record, ShardSpanLabel(k),
                              tasks[k].child_start);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    FM_RETURN_IF_ERROR(tasks[k].status);
  }

  std::vector<std::vector<Match>> per_shard(n);
  for (size_t k = 0; k < n; ++k) {
    per_shard[k] = std::move(tasks[k].matches);
  }
  Timer merge_timer;
  std::vector<Match> merged;
  {
    FM_TRACE_SPAN("shard.merge");
    merged = MergeTopK(per_shard, k_);
  }
  MergeSecondsHistogram().Observe(merge_timer.ElapsedSeconds());

  if (stats != nullptr) {
    stats->Reset();
    bool any_attempted = false;
    bool all_succeeded = true;
    for (const Task& task : tasks) {
      stats->eti_lookups += task.stats.eti_lookups;
      stats->tids_processed += task.stats.tids_processed;
      stats->hash_table_size += task.stats.hash_table_size;
      stats->candidates += task.stats.candidates;
      stats->ref_tuples_fetched += task.stats.ref_tuples_fetched;
      stats->tuple_cache_hits += task.stats.tuple_cache_hits;
      any_attempted = any_attempted || task.stats.osc_attempted;
      all_succeeded = all_succeeded && task.stats.osc_succeeded;
    }
    stats->osc_attempted = any_attempted;
    stats->osc_succeeded = all_succeeded;
    stats->elapsed_seconds = timer.ElapsedSeconds();
  }
  return merged;
}

Result<Row> ShardedMatcher::GetReferenceTuple(Tid tid) const {
  FM_ASSIGN_OR_RETURN(const auto location, router_->Locate(tid));
  return router_->shard(location.first)
      .GetReferenceTuple(location.second);
}

size_t ShardedMatcher::queue_depth(size_t k) const {
  return execs_[k]->depth.load(std::memory_order_relaxed);
}

}  // namespace shard
}  // namespace fuzzymatch
