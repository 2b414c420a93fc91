#include "obs/trace.h"

#include <atomic>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"

namespace fuzzymatch {
namespace obs {

namespace {
thread_local RequestTrace* g_current_trace = nullptr;
std::atomic<uint64_t> g_next_request_id{0};
std::atomic<bool> g_tracing_enabled{true};

/// Human-scale rendering of a duration (breakdown dumps only).
std::string FormatSeconds(double s) {
  if (s < 1e-3) {
    return StringPrintf("%.0fus", s * 1e6);
  }
  if (s < 1.0) {
    return StringPrintf("%.2fms", s * 1e3);
  }
  return StringPrintf("%.3fs", s);
}

int64_t UnixNanosNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

uint64_t NextRequestId() {
  return g_next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

RequestTrace::RequestTrace(std::string op, uint64_t request_id,
                           FlightRecorder* recorder)
    : RequestTrace(std::move(op), request_id, recorder, Limits()) {}

RequestTrace::RequestTrace(std::string op, uint64_t request_id,
                           FlightRecorder* recorder, Limits limits)
    : limits_(limits),
      recorder_(recorder),
      start_(std::chrono::steady_clock::now()) {
  record_.request_id = request_id;
  record_.op = std::move(op);
  record_.start_unix_ns = UnixNanosNow();
  record_.spans.reserve(16);
  previous_ = g_current_trace;
  g_current_trace = this;
}

RequestTrace::~RequestTrace() {
  g_current_trace = previous_;
  record_.duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (!record_.spans.empty() && GetLogLevel() == LogLevel::kDebug) {
    FM_LOG(Debug) << "trace " << record_.op << "#" << record_.request_id
                  << ": " << Summary();
  }
  if (recorder_ != nullptr) {
    recorder_->Record(std::move(record_));
  }
}

RequestTrace* RequestTrace::Current() { return g_current_trace; }

int32_t RequestTrace::OpenSpan(const char* name,
                               std::chrono::steady_clock::time_point start) {
  if (record_.spans.size() >= limits_.max_spans ||
      open_stack_.size() >= limits_.max_depth) {
    ++record_.dropped_spans;
    return -1;
  }
  TraceSpan span;
  span.name = name;
  span.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - start_)
          .count());
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  const int32_t index = static_cast<int32_t>(record_.spans.size());
  record_.spans.push_back(span);
  open_stack_.push_back(index);
  return index;
}

void RequestTrace::CloseSpan(int32_t index, uint64_t duration_ns) {
  if (index < 0) {
    return;
  }
  record_.spans[static_cast<size_t>(index)].duration_ns = duration_ns;
  // Spans are scoped, so closes arrive in LIFO order; pop through to the
  // closed span defensively in case an intermediate one was dropped.
  while (!open_stack_.empty()) {
    const int32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == index) {
      break;
    }
  }
}

void RequestTrace::AddCount(const char* key, uint64_t delta) {
  // A request has a handful of tallies; linear scan beats hashing.
  for (TraceCount& count : record_.counts) {
    if (count.key == key || std::strcmp(count.key, key) == 0) {
      count.value += delta;
      return;
    }
  }
  record_.counts.push_back(TraceCount{key, delta});
}

void RequestTrace::SetStatus(const Status& status) {
  if (status.ok()) {
    return;  // errors are sticky: a later OK does not clear one
  }
  record_.error = true;
  record_.status = status.ToString();
}

std::string RequestTrace::Summary() const {
  // Aggregate the tree by span name — the per-query breakdown shape:
  // "match.probe=3ms/12 match.verify=1ms/4".
  struct Agg {
    const char* name;
    uint64_t calls;
    uint64_t ns;
  };
  std::vector<Agg> aggs;
  for (const TraceSpan& span : record_.spans) {
    bool found = false;
    for (Agg& agg : aggs) {
      if (agg.name == span.name || std::strcmp(agg.name, span.name) == 0) {
        ++agg.calls;
        agg.ns += span.duration_ns;
        found = true;
        break;
      }
    }
    if (!found) {
      aggs.push_back(Agg{span.name, 1, span.duration_ns});
    }
  }
  std::string out;
  for (const Agg& agg : aggs) {
    if (!out.empty()) {
      out += " ";
    }
    out +=
        StringPrintf("%s=%s/%llu", agg.name,
                     FormatSeconds(static_cast<double>(agg.ns) * 1e-9).c_str(),
                     static_cast<unsigned long long>(agg.calls));
  }
  return out;
}

MaybeRequestTrace::MaybeRequestTrace(const char* op,
                                     FlightRecorder* recorder) {
  if (!TracingEnabled() || RequestTrace::Current() != nullptr) {
    return;
  }
  trace_.emplace(op, NextRequestId(),
                 recorder != nullptr ? recorder : &FlightRecorder::Global());
}

void MaybeRequestTrace::SetStatus(const Status& status) {
  if (RequestTrace* trace = RequestTrace::Current()) {
    trace->SetStatus(status);
  }
}

Histogram* SpanHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram(
      std::string("span.") + name + "_seconds", LatencyHistogramOptions());
}

}  // namespace obs
}  // namespace fuzzymatch
