#include "support/bench_env.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/logging.h"
#include "fault/failpoint.h"
#include "match/naive_matcher.h"
#include "obs/metrics.h"

namespace fuzzymatch {
namespace bench {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) {
    FM_LOG(Warning) << "ignoring unparsable " << name << "=" << v;
    return fallback;
  }
  return static_cast<size_t>(parsed);
}

Result<BenchEnv> MakeBenchEnv() {
  if (fault::kEnabled) {
    FM_LOG(Warning) << "failpoints are compiled in (-DFM_FAILPOINTS=ON): "
                       "numbers from this binary are not comparable to "
                       "Release results";
  }
  BenchEnv env;
  env.ref_size = EnvSize("FM_REF_SIZE", 100000);
  env.num_inputs = EnvSize("FM_NUM_INPUTS", 1655);

  DatabaseOptions db_options;
  db_options.pool_pages = 64 * 1024;  // 512 MiB of 8 KiB frames, in memory
  FM_ASSIGN_OR_RETURN(env.db, Database::Open(db_options));

  CustomerGenOptions gen_options;
  gen_options.num_tuples = env.ref_size;
  CustomerGenerator generator(gen_options);
  FM_ASSIGN_OR_RETURN(
      env.customers,
      env.db->CreateTable("customers", CustomerGenerator::CustomerSchema()));
  FM_RETURN_IF_ERROR(generator.Populate(env.customers));
  return env;
}

DatasetSpec WithInputs(DatasetSpec spec, size_t num_inputs) {
  spec.num_inputs = num_inputs;
  return spec;
}

std::vector<EtiParams> PaperStrategies(int q) {
  std::vector<EtiParams> out;
  for (const int h : {0, 1, 2, 3}) {
    for (const bool tokens : {false, true}) {
      if (h == 0 && !tokens) {
        continue;  // Q_0 indexes nothing
      }
      EtiParams p;
      p.q = q;
      p.signature_size = h;
      p.index_tokens = tokens;
      out.push_back(p);
    }
  }
  // Paper order: Q+T_0, Q_1, Q+T_1, Q_2, Q+T_2, Q_3, Q+T_3 — already the
  // natural order of the loop above.
  return out;
}

double Accuracy(const std::vector<InputTuple>& inputs,
                const std::vector<std::vector<Match>>& results) {
  FM_CHECK_EQ(inputs.size(), results.size());
  if (inputs.empty()) {
    return 0.0;
  }
  size_t correct = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const Match& m : results[i]) {
      if (m.tid == inputs[i].seed_tid) {
        ++correct;
        break;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

void ApplyHotPathEnvOverrides(FuzzyMatchConfig* config) {
  config->accel_memory_bytes =
      EnvSize("FM_ACCEL_BUDGET_MB", config->accel_memory_bytes >> 20) << 20;
  config->matcher.tuple_cache_bytes =
      EnvSize("FM_TUPLE_CACHE_MB",
              config->matcher.tuple_cache_bytes >> 20)
      << 20;
  config->build_threads = static_cast<int>(EnvSize(
      "FM_BUILD_THREADS", static_cast<size_t>(config->build_threads)));
}

Result<std::unique_ptr<FuzzyMatcher>> BuildStrategy(
    BenchEnv& env, const EtiParams& params,
    const MatcherOptions& matcher_options) {
  FuzzyMatchConfig config;
  config.eti = params;
  config.matcher = matcher_options;
  ApplyHotPathEnvOverrides(&config);
  return FuzzyMatcher::Build(env.db.get(), "customers", config);
}

MatchTotals MatchTotals::Read() {
  auto& reg = obs::MetricsRegistry::Global();
  auto counter = [&reg](const char* name) {
    return reg.GetCounter(name)->value();
  };
  MatchTotals t;
  t.queries = counter("match.queries");
  t.eti_lookups = counter("match.eti_lookups");
  t.tids_processed = counter("match.tids_processed");
  t.hash_table_size = counter("match.hash_table_size");
  t.ref_tuples_fetched = counter("match.ref_tuples_fetched");
  t.osc_attempted = counter("match.osc_attempted");
  t.osc_succeeded = counter("match.osc_succeeded");
  t.fetched_when_osc_succeeded = counter("match.fetched_when_osc_succeeded");
  t.fetched_when_osc_failed = counter("match.fetched_when_osc_failed");
  t.fetched_when_osc_not_attempted =
      counter("match.fetched_when_osc_not_attempted");
  t.elapsed_seconds =
      reg.GetHistogram("match.query_seconds", obs::LatencyHistogramOptions())
          ->sum();
  return t;
}

MatchTotals MatchTotals::operator-(const MatchTotals& before) const {
  MatchTotals d;
  d.queries = queries - before.queries;
  d.eti_lookups = eti_lookups - before.eti_lookups;
  d.tids_processed = tids_processed - before.tids_processed;
  d.hash_table_size = hash_table_size - before.hash_table_size;
  d.ref_tuples_fetched = ref_tuples_fetched - before.ref_tuples_fetched;
  d.osc_attempted = osc_attempted - before.osc_attempted;
  d.osc_succeeded = osc_succeeded - before.osc_succeeded;
  d.fetched_when_osc_succeeded =
      fetched_when_osc_succeeded - before.fetched_when_osc_succeeded;
  d.fetched_when_osc_failed =
      fetched_when_osc_failed - before.fetched_when_osc_failed;
  d.fetched_when_osc_not_attempted =
      fetched_when_osc_not_attempted - before.fetched_when_osc_not_attempted;
  d.elapsed_seconds = elapsed_seconds - before.elapsed_seconds;
  return d;
}

Result<EvalResult> Evaluate(FuzzyMatcher& matcher,
                            const std::vector<InputTuple>& inputs) {
  const MatchTotals before = MatchTotals::Read();
  size_t correct = 0;
  for (const InputTuple& input : inputs) {
    FM_ASSIGN_OR_RETURN(const std::vector<Match> matches,
                        matcher.FindMatches(input.dirty));
    for (const Match& m : matches) {
      if (m.tid == input.seed_tid) {
        ++correct;
        break;
      }
    }
  }
  EvalResult result;
  result.accuracy = inputs.empty() ? 0.0
                                   : static_cast<double>(correct) /
                                         static_cast<double>(inputs.size());
  result.stats = MatchTotals::Read() - before;
  return result;
}

Result<double> NaiveProbeSeconds(BenchEnv& env, const IdfWeights& weights,
                                 size_t probes) {
  auto table = env.db->GetTable("customers");
  if (!table.ok()) return table.status();
  NaiveMatcher naive(*table, &weights, NaiveMatcher::SimilarityKind::kFms,
                     MatcherOptions{});
  FM_RETURN_IF_ERROR(naive.Prepare());
  // Probe with dirty versions of arbitrary reference tuples.
  DatasetSpec spec = DatasetD2();
  spec.num_inputs = probes;
  spec.seed = 4242;
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                      GenerateInputs(*table, spec, nullptr));
  double total = 0.0;
  for (const InputTuple& input : inputs) {
    QueryStats stats;
    FM_RETURN_IF_ERROR(naive.FindMatches(input.dirty, &stats).status());
    total += stats.elapsed_seconds;
  }
  return total / static_cast<double>(inputs.size());
}

void DumpMetrics(const std::string& bench_name) {
  const char* dir_env = std::getenv("FM_METRICS_DIR");
  const std::string dir =
      (dir_env != nullptr && *dir_env != '\0') ? dir_env : "bench_results";
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    FM_LOG(Warning) << "metrics dump: cannot create " << dir << ": "
                    << std::strerror(errno);
    return;
  }
  const std::string path = dir + "/" + bench_name + ".metrics.json";
  std::ofstream out(path);
  if (!out) {
    FM_LOG(Warning) << "metrics dump: cannot write " << path;
    return;
  }
  out << obs::MetricsRegistry::Global().RenderJson();
  FM_LOG(Info) << "metrics dumped to " << path;
}

void PrintRow(const std::vector<std::string>& cells) {
  // 14-column cells; the separating space keeps a cell of 14 or more
  // characters from running into the next one.
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-13s" : " %-13s", cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace fuzzymatch
