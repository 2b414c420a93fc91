// bench_serving: throughput and tail latency of the online serving
// subsystem (extra-paper; the paper's experiments are single-threaded
// batch runs, this measures the same operator behind MatchServer).
//
// Three sweeps:
//   1. in-process: CleanBatchParallel on the shared matcher — pure
//      query-path scaling, no sockets;
//   2. served: an in-process MatchServer on an ephemeral loopback port,
//      N closed-loop clients issuing `clean` requests — end-to-end
//      throughput and client-observed p50/p99; the widest run's flight
//      recorder is archived as bench_serving.tracez.json;
//   3. rebuild-while-serving: an online ETI rebuild swapped in under
//      closed-loop clients.
//
// Every served response is checked byte-for-byte against the serial
// CleanBatch rendering of the same input (zero result divergence), so
// the speedup numbers cannot come from wrong answers. Scaling is bounded
// by the machine: hardware_concurrency is printed next to the ratios.
//
// Scale knobs: FM_REF_SIZE, FM_NUM_INPUTS (bench_env.h), FM_MAX_WORKERS.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/batch_cleaner.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/alloc_counter.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string CleanRequestLine(const Row& row, uint64_t id) {
  std::string line = "{\"op\":\"clean\",\"id\":" + std::to_string(id) +
                     ",\"row\":[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line.push_back(',');
    if (row[i].has_value()) {
      server::AppendJsonString(*row[i], &line);
    } else {
      line += "null";
    }
  }
  line += "]}";
  return line;
}

struct ServedRun {
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t divergent = 0;
  uint64_t errors = 0;
};

double Quantile(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies->size())));
  return (*latencies)[idx];
}

/// Runs `clients` closed-loop clients against `port`, each owning a
/// contiguous slice of the requests. `expected[i]` is the serial
/// response line for request id i.
Result<ServedRun> RunServedSweep(uint16_t port, size_t clients,
                                 const std::vector<std::string>& requests,
                                 const std::vector<std::string>& expected) {
  struct PerClient {
    std::vector<double> latencies_s;
    uint64_t divergent = 0;
    uint64_t errors = 0;
    Status fatal;
  };
  std::vector<PerClient> per_client(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const double start = Now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = per_client[c];
      server::LineClient client;
      if (Status s = client.Connect("127.0.0.1", port); !s.ok()) {
        mine.fatal = std::move(s);
        return;
      }
      // Contiguous slice: request i checked against expected[i].
      const size_t begin = c * requests.size() / clients;
      const size_t end = (c + 1) * requests.size() / clients;
      mine.latencies_s.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const double t0 = Now();
        auto response = client.Roundtrip(requests[i]);
        mine.latencies_s.push_back(Now() - t0);
        if (!response.ok()) {
          mine.fatal = response.status();
          return;
        }
        if (response->rfind("{\"ok\":true", 0) != 0) {
          ++mine.errors;
        } else if (*response != expected[i]) {
          ++mine.divergent;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ServedRun run;
  run.seconds = Now() - start;
  std::vector<double> latencies;
  for (PerClient& pc : per_client) {
    FM_RETURN_IF_ERROR(pc.fatal);
    run.divergent += pc.divergent;
    run.errors += pc.errors;
    latencies.insert(latencies.end(), pc.latencies_s.begin(),
                     pc.latencies_s.end());
  }
  run.p50_ms = Quantile(&latencies, 0.50) * 1e3;
  run.p95_ms = Quantile(&latencies, 0.95) * 1e3;
  run.p99_ms = Quantile(&latencies, 0.99) * 1e3;
  return run;
}

Status RunBench() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                      GenerateInputs(env.customers,
                                     WithInputs(DatasetD2(), env.num_inputs),
                                     nullptr));

  FuzzyMatchConfig config;
  ApplyHotPathEnvOverrides(&config);
  FM_ASSIGN_OR_RETURN(auto matcher,
                      FuzzyMatcher::Build(env.db.get(), "customers", config));
  const BatchCleaner cleaner(matcher.get(), BatchCleaner::Options{});

  std::vector<Row> rows;
  rows.reserve(inputs.size());
  for (const InputTuple& input : inputs) {
    rows.push_back(input.dirty);
  }

  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t max_workers = EnvSize("FM_MAX_WORKERS", 4);
  std::vector<size_t> sweep;
  for (size_t w = 1; w <= max_workers; w *= 2) {
    sweep.push_back(w);
  }

  std::printf("bench_serving: |R|=%zu inputs=%zu hardware_concurrency=%zu\n",
              env.ref_size, rows.size(), hw);

  // Serial ground truth: outcomes, rendered response lines, and the
  // 1-thread batch time every ratio is against. The allocation counter
  // around it reports heap allocations per query — the scratch-reuse
  // regression check (DESIGN.md 5i): matcher hot loops reuse per-thread
  // buffers, so the steady-state number must stay small and flat.
  const uint64_t serial_allocs_before = AllocationCount();
  const double serial_start = Now();
  std::vector<std::string> expected(rows.size());
  std::vector<std::string> requests(rows.size());
  FM_RETURN_IF_ERROR(
      cleaner
          .CleanBatch(rows,
                      [&](size_t i, const CleanResult& r) -> Status {
                        std::string line = server::RenderCleanResponse(i, r);
                        line.pop_back();  // Roundtrip strips '\n'
                        expected[i] = std::move(line);
                        requests[i] = CleanRequestLine(rows[i], i);
                        return Status::OK();
                      })
          .status());
  const double serial_seconds = Now() - serial_start;
  const double serial_qps =
      static_cast<double>(rows.size()) / serial_seconds;
  const double serial_allocs_per_query =
      static_cast<double>(AllocationCount() - serial_allocs_before) /
      static_cast<double>(rows.size());
  std::printf("serial CleanBatch: %.3fs (%.0f q/s, %.1f allocs/query)\n\n",
              serial_seconds, serial_qps, serial_allocs_per_query);

  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("bench_serving.hardware_concurrency")
      ->Set(static_cast<double>(hw));
  reg.GetGauge("bench_serving.serial_qps")->Set(serial_qps);
  reg.GetGauge("bench_serving.serial_allocs_per_query")
      ->Set(serial_allocs_per_query);

  PrintRow({"mode", "workers", "seconds", "q/s", "vs-serial", "p50ms",
            "p95ms", "p99ms"});

  // Sweep 1: in-process parallel batch (no sockets). The per-worker
  // thread_local scratch means allocations/query should not grow with
  // worker count once each worker has warmed its buffers.
  for (const size_t w : sweep) {
    const uint64_t allocs_before = AllocationCount();
    const double t0 = Now();
    FM_ASSIGN_OR_RETURN(const CleanStats stats,
                        cleaner.CleanBatchParallel(rows, w));
    const double seconds = Now() - t0;
    const double qps = static_cast<double>(stats.processed) / seconds;
    const double allocs_per_query =
        static_cast<double>(AllocationCount() - allocs_before) /
        static_cast<double>(stats.processed);
    PrintRow({"in-process", std::to_string(w),
              StringPrintf("%.3f", seconds), StringPrintf("%.0f", qps),
              StringPrintf("%.2fx", qps / serial_qps),
              StringPrintf("%.1fa/q", allocs_per_query), "-", "-"});
    reg.GetGauge("bench_serving.inprocess_qps_w" + std::to_string(w))
        ->Set(qps);
    reg.GetGauge("bench_serving.inprocess_allocs_per_query_w" +
                 std::to_string(w))
        ->Set(allocs_per_query);
  }

  // Sweep 2: the full server over loopback, clients == workers.
  std::string tracez_snapshot;
  for (const size_t w : sweep) {
    server::ServerOptions options;
    options.workers = w;
    options.queue_capacity = 2 * w + 64;  // closed loop: no shedding
    server::MatchServer srv(matcher.get(), BatchCleaner::Options{}, options);
    FM_RETURN_IF_ERROR(srv.Start());
    FM_ASSIGN_OR_RETURN(const ServedRun run,
                        RunServedSweep(srv.port(), w, requests, expected));
    // Snapshot the flight recorder while the server is still live; the
    // widest sweep (last iteration) wins, so the archived traces come
    // from the most contended configuration.
    {
      server::LineClient probe;
      if (probe.Connect("127.0.0.1", srv.port()).ok()) {
        if (auto tracez = probe.Roundtrip("tracez 32"); tracez.ok()) {
          tracez_snapshot = std::move(*tracez);
        }
      }
    }
    srv.Shutdown();
    if (run.divergent > 0 || run.errors > 0) {
      return Status::Internal(StringPrintf(
          "served results diverged from serial: %llu divergent, %llu errors "
          "at %zu workers",
          static_cast<unsigned long long>(run.divergent),
          static_cast<unsigned long long>(run.errors), w));
    }
    const double qps = static_cast<double>(rows.size()) / run.seconds;
    PrintRow({"served", std::to_string(w),
              StringPrintf("%.3f", run.seconds), StringPrintf("%.0f", qps),
              StringPrintf("%.2fx", qps / serial_qps),
              StringPrintf("%.3f", run.p50_ms),
              StringPrintf("%.3f", run.p95_ms),
              StringPrintf("%.3f", run.p99_ms)});
    reg.GetGauge("bench_serving.served_qps_w" + std::to_string(w))->Set(qps);
    reg.GetGauge("bench_serving.served_p50_ms_w" + std::to_string(w))
        ->Set(run.p50_ms);
    reg.GetGauge("bench_serving.served_p95_ms_w" + std::to_string(w))
        ->Set(run.p95_ms);
    reg.GetGauge("bench_serving.served_p99_ms_w" + std::to_string(w))
        ->Set(run.p99_ms);
  }

  // Sweep 3: online ETI rebuild while serving (DESIGN.md 5j). Clients
  // hammer the query path in a closed loop while one admin connection
  // triggers `rebuild`; the swap must not drain them, and with no
  // concurrent maintenance every response — before, during, after —
  // must stay byte-identical to the serial ground truth.
  {
    server::ServerOptions options;
    options.workers = std::max<size_t>(2, max_workers);
    options.queue_capacity = 2 * options.workers + 64;
    options.rebuild_handler = [&matcher] { return matcher->RebuildEti(); };
    server::MatchServer srv(matcher.get(), BatchCleaner::Options{}, options);
    FM_RETURN_IF_ERROR(srv.Start());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> divergent{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        server::LineClient client;
        if (!client.Connect("127.0.0.1", srv.port()).ok()) return;
        size_t i = c;
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t idx = i++ % requests.size();
          auto response = client.Roundtrip(requests[idx]);
          if (!response.ok() || *response != expected[idx]) {
            divergent.fetch_add(1);
          }
          answered.fetch_add(1);
        }
      });
    }

    server::LineClient admin;
    FM_RETURN_IF_ERROR(admin.Connect("127.0.0.1", srv.port()));
    const double rebuild_start = Now();
    FM_ASSIGN_OR_RETURN(const std::string rebuilt,
                        admin.Roundtrip("rebuild"));
    const double rebuild_seconds = Now() - rebuild_start;
    stop.store(true);
    for (std::thread& t : clients) t.join();
    srv.Shutdown();
    if (rebuilt.rfind("{\"ok\":true", 0) != 0) {
      return Status::Internal("online rebuild failed: " + rebuilt);
    }
    if (divergent.load() > 0) {
      return Status::Internal(StringPrintf(
          "%llu responses diverged across the rebuild swap",
          static_cast<unsigned long long>(divergent.load())));
    }
    const double qps_during =
        static_cast<double>(answered.load()) / rebuild_seconds;
    std::printf("\nrebuild-while-serving: swap in %.3fs, %llu queries "
                "answered during it (%.0f q/s), 0 divergent\n\n",
                rebuild_seconds,
                static_cast<unsigned long long>(answered.load()),
                qps_during);
    reg.GetGauge("bench_serving.rebuild_seconds")->Set(rebuild_seconds);
    reg.GetGauge("bench_serving.rebuild_qps_during")->Set(qps_during);
    reg.GetGauge("bench_serving.rebuild_queries_during")
        ->Set(static_cast<double>(answered.load()));
  }

  if (!tracez_snapshot.empty()) {
    const char* dir_env = std::getenv("FM_METRICS_DIR");
    const std::string dir =
        (dir_env != nullptr && *dir_env != '\0') ? dir_env : "bench_results";
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
      const std::string path = dir + "/bench_serving.tracez.json";
      std::ofstream tracez_out(path);
      if (tracez_out) {
        tracez_out << tracez_snapshot << "\n";
        std::printf("flight recorder snapshot written to %s\n", path.c_str());
      }
    }
  }

  std::printf(
      "\nall served responses byte-identical to the serial batch "
      "(zero divergence)\n");
  if (hw < max_workers) {
    std::printf(
        "note: only %zu hardware thread(s); multi-worker ratios are "
        "concurrency-correctness runs, not speedups\n",
        hw);
  }
  DumpMetrics("bench_serving");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = RunBench();
  if (!status.ok()) {
    std::fprintf(stderr, "bench_serving: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
