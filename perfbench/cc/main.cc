// fm_perfbench: the repository benchmark.
//
//   fm_perfbench --workload hot_match|served|disk_read|disk_mixed --seed N
//                --seconds S --trace 0|1 [--work-dir DIR] [--smoke]
//                [--ops N]
//
// Prints every metric the run measured (name, value, unit, sample count),
// then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The metric names must match BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& EndToEnd() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"latency_p50_norm", "probe"},
      {"latency_p99_norm", "probe"},
      {"ops_per_probe", "1/probe"},
      {"seed_recall", "fraction"},
      {"peak_rss_mb", "MiB"},
  };
  return list;
}

const MetricList& PerLayer() {
  static const MetricList list = {
      {"text.tokenize_us", "us"},
      {"text.signature_us", "us"},
      {"eti.lookup_us", "us"},
      {"eti.probes_per_query", "count"},
      {"eti.tidlist_bytes_per_query", "B"},
      {"eti_accel.hit_ratio", "fraction"},
      {"match.find_matches_us", "us"},
      {"match.self_us", "us"},
      {"match.tids_per_query", "count"},
      {"match.candidates_per_query", "count"},
      {"match.fetched_per_query", "count"},
      {"match.fetch_yield", "fraction"},
      {"match.osc_success_ratio", "fraction"},
      {"tuple_cache.hit_ratio", "fraction"},
      {"sim.fms_us", "us"},
      {"sim.fms_calls_per_query", "count"},
      {"storage.get_us", "us"},
      {"bufferpool.hit_ratio", "fraction"},
      {"bufferpool.misses_per_query", "count"},
      {"pager.reads_per_query", "count"},
      {"btree.node_reads_per_lookup", "count"},
      {"eti_build.scan_s", "s"},
      {"eti_build.sort_s", "s"},
      {"eti_build.merge_s", "s"},
      {"storage.load_s", "s"},
      {"core.clean_overhead_us", "us"},
      {"server.roundtrip_us", "us"},
      {"server.overhead_us", "us"},
      {"server.shed", "count"},
      {"gen.late_ms_p99", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  return list;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "fm_perfbench: %s\nusage: fm_perfbench --workload "
               "hot_match|served|disk_read|disk_mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--smoke] [--ops N]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--ops") {
      args->ops = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  Status (*run)(const Args&, Report*, OpLedger*) = nullptr;
  if (args.workload == "hot_match") {
    run = RunHotMatch;
  } else if (args.workload == "served") {
    run = RunServed;
  } else if (args.workload == "disk_read") {
    run = RunDiskRead;
  } else if (args.workload == "disk_mixed") {
    run = RunDiskMixed;
  } else {
    return Usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  Report report;
  OpLedger ledger;
  const Status status = run(args, &report, &ledger);
  if (!status.ok()) {
    std::fprintf(stderr, "fm_perfbench: %s failed: %s\n",
                 args.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("failed_frac",
             Ratio(static_cast<double>(ledger.failed()),
                   static_cast<double>(ledger.attempted())),
             "fraction", ledger.attempted());
  for (const MetricList* list : {&EndToEnd(), &PerLayer()}) {
    for (const auto& [name, unit] : *list) {
      if (!report.Has(name)) report.NotApplicable(name, unit);
    }
  }
  for (const std::string& why : ledger.reasons()) {
    report.Note("failure: " + why);
  }
  report.Print(args.workload);

  std::vector<std::string> names;
  for (const auto& metric : args.trace ? PerLayer() : EndToEnd()) {
    names.push_back(metric.first);
  }
  const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  std::printf("%s\n", report
                          .ResultJson(correct, ledger.attempted(),
                                      ledger.failed(), names)
                          .c_str());
  return 0;
}
