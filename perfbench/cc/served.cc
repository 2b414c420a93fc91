// served: the hot_match relation behind an in-process MatchServer on
// loopback, driven by `clean` requests from this process.

#include <sched.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/batch_cleaner.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzymatch::BatchCleaner;
using fuzzymatch::CleanResult;
using fuzzymatch::StringPrintf;
using fuzzymatch::server::LineClient;

/// The sizes of the served workload: one connection to one server
/// worker. The relation and its caches are hot_match's. A 15 s run gets
/// through about one pass of the 30k-input request pool, whose slowest
/// 1%, which sets the p99, is hundreds of inputs rather than a handful
/// that differ by seed.
struct ServedScale {
  size_t rows;
  size_t inputs_per_profile;
  int setup_repeats;
  double open_loop_rate;  // requests per second, fixed
};

ServedScale Scale(bool smoke) {
  if (smoke) return ServedScale{3000, 100, 1, 200.0};
  return ServedScale{100000, 10000, 3, 1000.0};
}

/// Threads that compute the expected answers before the server starts.
constexpr size_t kAnswerThreads = 4;

/// Pins the calling thread, and so every thread it starts from now on, to
/// the first CPU it may run on.
Status PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::IOError("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      return Status::IOError("sched_setaffinity failed");
    }
    return Status::OK();
  }
  return Status::IOError("no CPU to run on");
}

std::string CleanRequestLine(const Row& row, uint64_t id) {
  std::string line =
      "{\"op\":\"clean\",\"id\":" + std::to_string(id) + ",\"row\":[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line.push_back(',');
    if (row[i].has_value()) {
      fuzzymatch::server::AppendJsonString(*row[i], &line);
    } else {
      line += "null";
    }
  }
  line += "]}";
  return line;
}

/// The request pool with its in-process answers.
struct RequestPool {
  std::vector<InputTuple> inputs;
  std::vector<std::string> requests;
  std::vector<std::string> expected;  // in-process Clean, rendered
  std::vector<char> recalled;         // expected answer is the seed tid
};

/// What one phase's requests measured. Each request's attempt and any
/// failure go to the ledger as they happen.
struct Tally {
  Samples latency_s;
  Samples late_s;  // open loop: how late each request went out
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t recalled = 0;
};

/// One request on `client`; a transport error, an error response or an
/// answer differing from the in-process Clean is a failure.
void Exchange(LineClient& client, const RequestPool& pool, size_t idx,
              Tally* tally, OpLedger* ledger) {
  ledger->Attempt();
  ++tally->sent;
  auto response = client.Roundtrip(pool.requests[idx]);
  if (!response.ok()) {
    ledger->Fail("roundtrip: " + response.status().ToString());
    return;
  }
  if (*response != pool.expected[idx]) {
    ledger->Fail("served answer differs from in-process Clean: " +
                 response->substr(0, 120));
    return;
  }
  ++tally->answered;
  if (pool.recalled[idx]) ++tally->recalled;
}

/// Open loop: request i is due at start + i / rate whatever happened to
/// earlier ones. Latency runs from the due time, so a stall also charges
/// the requests queued behind it.
void OpenLoop(LineClient& client, const RequestPool& pool, double rate,
              double seconds, size_t max_ops, Tally* tally,
              OpLedger* ledger) {
  const double start = Now() + 0.01;
  const uint64_t limit =
      max_ops > 0 ? max_ops : static_cast<uint64_t>(seconds * rate);
  for (uint64_t i = 0; i < limit; ++i) {
    const double due = start + static_cast<double>(i) / rate;
    double now = Now();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = Now();
    }
    tally->late_s.Add(std::max(0.0, now - due));
    Exchange(client, pool, i % pool.requests.size(), tally, ledger);
    tally->latency_s.Add(Now() - due);
  }
}

/// Closed loop: the next request goes out as soon as the previous answer
/// arrives, until `seconds` pass or, when it is > 0, `max_ops` requests
/// are sent. With a probe, naive-scan probes run between requests.
/// Returns the elapsed seconds.
double ClosedLoop(LineClient& client, const RequestPool& pool,
                  double seconds, size_t max_ops, NaiveProbe* probe,
                  Tally* tally, OpLedger* ledger) {
  const double start = Now();
  const double deadline = start + seconds;
  for (uint64_t i = 0;; ++i) {
    if (max_ops > 0 ? i >= max_ops : Now() >= deadline) break;
    if (probe != nullptr) probe->MaybeRun();
    const double t0 = Now();
    Exchange(client, pool, i % pool.requests.size(), tally, ledger);
    tally->latency_s.Add(Now() - t0);
  }
  return Now() - start;
}

/// The traced pass: per request, Roundtrip against the server and the
/// in-process Clean and FindMatches of the same input, each in its own
/// span, after an untimed FindMatches that leaves every cache as warm for
/// all three. The overheads are medians of per-request differences. A
/// short untraced Roundtrip loop over the same requests first gives the
/// tracing overhead.
Status TracedPass(const Args& args, LineClient& client,
                  const FuzzyMatcher* matcher, const RequestPool& pool,
                  OpLedger* ledger, Report* report) {
  const BatchCleaner cleaner(matcher, BatchCleaner::Options{});
  const size_t n = args.ops > 0 ? args.ops : pool.requests.size();
  const double budget = args.ops > 0 ? 0 : args.seconds / 2;

  Tally untraced;
  double deadline = budget > 0 ? Now() + budget : 0;
  for (size_t i = 0; i < n && (deadline == 0 || Now() < deadline); ++i) {
    const double t0 = Now();
    Exchange(client, pool, i % pool.requests.size(), &untraced, ledger);
    untraced.latency_s.Add(Now() - t0);
  }

  Tracer tracer;
  Tally traced;
  Samples clean_overhead_us;   // Clean minus FindMatches
  Samples server_overhead_us;  // Roundtrip minus Clean
  deadline = budget > 0 ? Now() + budget : 0;
  for (size_t i = 0; i < n && (deadline == 0 || Now() < deadline); ++i) {
    const size_t idx = i % pool.requests.size();
    const Row& row = pool.inputs[idx].dirty;
    FM_RETURN_IF_ERROR(matcher->FindMatches(row).status());
    const uint32_t root = tracer.Begin("request", i, 0);
    uint32_t span = tracer.Begin("match.find_matches", i, root);
    const auto matches = matcher->FindMatches(row);
    tracer.End(span);
    const double find_us = tracer.DurationUs(span);
    span = tracer.Begin("core.clean", i, root);
    const auto cleaned = cleaner.Clean(row);
    tracer.End(span);
    const double clean_us = tracer.DurationUs(span);
    span = tracer.Begin("server.roundtrip", i, root);
    const double t0 = Now();
    Exchange(client, pool, idx, &traced, ledger);
    tracer.End(span);
    traced.latency_s.Add(Now() - t0);
    tracer.End(root);
    if (!matches.ok() || !cleaned.ok()) {
      ledger->Fail("in-process replay failed");
      continue;
    }
    clean_overhead_us.Add(clean_us - find_us);
    server_overhead_us.Add(tracer.DurationUs(span) - clean_us);
  }
  const double untraced_p50 = untraced.latency_s.Quantile(0.5);
  const double traced_p50 = traced.latency_s.Quantile(0.5);

  const uint64_t requests = clean_overhead_us.count();
  AddSelfTimes(tracer, requests,
               {{"match.find_matches", "match.find_matches_us"},
                {"server.roundtrip", "server.roundtrip_us"}},
               report);
  report->Add("core.clean_overhead_us", clean_overhead_us.Quantile(0.5),
              "us", requests);
  report->Add("server.overhead_us", server_overhead_us.Quantile(0.5), "us",
              requests);
  report->Add("trace.overhead_frac",
              Ratio(traced_p50 - untraced_p50, untraced_p50), "fraction",
              requests);
  const std::string path = args.work_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".csv";
  FM_RETURN_IF_ERROR(tracer.WriteCsv(path));
  report->Note(StringPrintf("traced pass: %zu spans over %llu requests "
                            "written to %s",
                            tracer.size(),
                            static_cast<unsigned long long>(requests),
                            path.c_str()));
  return Status::OK();
}

}  // namespace

Status RunServed(const Args& args, Report* report, OpLedger* ledger) {
  const ServedScale scale = Scale(args.smoke);
  std::vector<Row> rows = GenerateReferenceRows(kReferenceSeed, scale.rows);
  SetupSpec spec;
  spec.db.pool_pages = 4096;
  spec.config.temp_dir = args.work_dir;
  FM_ASSIGN_OR_RETURN(Deployment d,
                      TimedSetUp(spec, rows, scale.setup_repeats, report));
  rows = std::vector<Row>();

  // Every answer the server may give is computed in process first; this
  // also fills the caches the served phases then run against.
  RequestPool pool;
  FM_ASSIGN_OR_RETURN(pool.inputs,
                      GenerateMixedInputs(d.table, scale.inputs_per_profile,
                                          args.seed));
  const size_t requests = pool.inputs.size();
  pool.expected.resize(requests);
  pool.recalled.resize(requests);
  for (size_t i = 0; i < requests; ++i) {
    pool.requests.push_back(CleanRequestLine(pool.inputs[i].dirty, i));
  }
  const BatchCleaner cleaner(d.matcher.get(), BatchCleaner::Options{});
  std::vector<Status> errors(kAnswerThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kAnswerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < requests; i += kAnswerThreads) {
        auto result = cleaner.Clean(pool.inputs[i].dirty);
        if (!result.ok()) {
          errors[t] = result.status();
          return;
        }
        std::string line = fuzzymatch::server::RenderCleanResponse(i, *result);
        line.pop_back();  // Roundtrip strips the newline
        pool.expected[i] = std::move(line);
        pool.recalled[i] = result->best_match.has_value() &&
                           result->best_match->tid == pool.inputs[i].seed_tid;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : errors) FM_RETURN_IF_ERROR(s);

  // The server's threads and the client share one CPU, so each of the
  // request's four thread hand-offs (client, connection thread, worker,
  // connection thread, client) is a switch on that CPU. Across CPUs each
  // hand-off waits for an idle vCPU to wake, and on a shared host that
  // wait varied between runs far more than the work did.
  FM_RETURN_IF_ERROR(PinToOneCpu());
  fuzzymatch::server::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  fuzzymatch::server::MatchServer server(
      d.matcher.get(), BatchCleaner::Options{}, options);
  FM_RETURN_IF_ERROR(server.Start());
  std::string phases = "closed loop for the run";
  if (args.trace) {
    phases += StringPrintf(", then open loop at %.0f req/s for a third of it",
                           scale.open_loop_rate);
  }
  report->Note(StringPrintf(
      "|R|=%zu rows in memory; %zu pool requests cycled (D1/D2/D3 "
      "evenly); 1 server worker; 1 client connection; %s",
      scale.rows, pool.requests.size(), phases.c_str()));

  // Declared after the server, so it closes before the server shuts down.
  LineClient client;
  FM_RETURN_IF_ERROR(client.Connect("127.0.0.1", server.port()));
  // Let the connection and worker threads serve before timing.
  Tally warm;
  ClosedLoop(client, pool, 0, 4, nullptr, &warm, ledger);

  // The closed loop (a caller waiting for each reply) takes the whole run
  // and gives the gated latency and throughput. Traced runs then add an
  // open loop at a fixed rate, whose latency from the due time and
  // generator lateness are reported beside them.
  NaiveProbe probe;
  const Counters before = Counters::Read();
  Tally closed;
  const double closed_elapsed = ClosedLoop(client, pool, args.seconds,
                                           args.ops, &probe, &closed, ledger);
  Tally open;
  if (args.trace) {
    OpenLoop(client, pool, scale.open_loop_rate, args.seconds / 3, args.ops,
             &open, ledger);
  }
  const Counters delta = Counters::Read() - before;

  AddRequestMetrics(closed.latency_s, closed.sent, closed_elapsed, probe,
                    report);
  report->Add("served_qps", static_cast<double>(closed.sent) / closed_elapsed,
              "1/s", closed.sent);
  const uint64_t answered = open.answered + closed.answered;
  report->Add("seed_recall",
              Ratio(static_cast<double>(open.recalled + closed.recalled),
                    static_cast<double>(answered)),
              "fraction", answered);
  if (args.trace) {
    report->AddLatency("served", open.latency_s);
    report->Add("gen.late_ms_p99", open.late_s.Quantile(0.99) * 1e3, "ms",
                open.late_s.count());
  }
  report->Add("server.shed", static_cast<double>(delta[kServerShed]),
              "count");
  AddReadPathCounts(delta, delta[kMatchQueries], answered, report);

  if (args.trace) {
    FM_RETURN_IF_ERROR(
        TracedPass(args, client, d.matcher.get(), pool, ledger, report));
  }
  return Status::OK();
}

}  // namespace perfbench
