// Shared environment for the experiment harnesses: a seeded synthetic
// Customer reference relation, dataset generation, and result-table
// printing helpers. Scale is controlled by environment variables so the
// same binaries run as quick smoke checks or full paper-scale sweeps:
//   FM_REF_SIZE    reference relation cardinality (default 100000)
//   FM_NUM_INPUTS  input tuples per dataset (default 1655, as the paper)
//   FM_ACCEL_BUDGET_MB  ETI read-accelerator budget in MiB (0 disables)
//   FM_TUPLE_CACHE_MB   verified-tuple cache budget in MiB (0 disables)
//   FM_BUILD_THREADS    ETI build parallelism (1 = serial, 0 = all cores)

#ifndef FUZZYMATCH_BENCH_SUPPORT_BENCH_ENV_H_
#define FUZZYMATCH_BENCH_SUPPORT_BENCH_ENV_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "storage/database.h"

namespace fuzzymatch {
namespace bench {

/// Reads a size_t environment override.
size_t EnvSize(const char* name, size_t fallback);

/// An in-memory database populated with the synthetic Customer relation.
struct BenchEnv {
  std::unique_ptr<Database> db;
  Table* customers = nullptr;
  size_t ref_size = 0;
  size_t num_inputs = 0;
};

/// Builds the standard bench environment (deterministic; honours
/// FM_REF_SIZE / FM_NUM_INPUTS).
Result<BenchEnv> MakeBenchEnv();

/// Applies `num_inputs` to a dataset spec.
DatasetSpec WithInputs(DatasetSpec spec, size_t num_inputs);

/// The paper's seven signature strategies in Figure 5/6 order:
/// Q+T_0, Q_1, Q+T_1, Q_2, Q+T_2, Q_3, Q+T_3 (with the given q).
std::vector<EtiParams> PaperStrategies(int q = 4);

/// Fraction of inputs whose seed tid is among the returned matches.
double Accuracy(const std::vector<InputTuple>& inputs,
                const std::vector<std::vector<Match>>& results);

/// Prints one aligned row of a results table: 14-column cells, always
/// separated by at least one space.
void PrintRow(const std::vector<std::string>& cells);

/// Applies the hot-path acceleration overrides (DESIGN.md 5d) so every
/// harness measures the accelerated vs B-tree-only paths from the same
/// binary: FM_ACCEL_BUDGET_MB and FM_TUPLE_CACHE_MB (0 disables each)
/// and FM_BUILD_THREADS.
void ApplyHotPathEnvOverrides(FuzzyMatchConfig* config);

/// Builds a FuzzyMatcher over env.customers with the given index strategy
/// and query options (hot-path env overrides applied).
Result<std::unique_ptr<FuzzyMatcher>> BuildStrategy(
    BenchEnv& env, const EtiParams& params,
    const MatcherOptions& matcher_options = {});

/// Query totals read from the process-wide registry — the `match.*`
/// counters and the `match.query_seconds` histogram's sum. Read() before
/// and after a serial query loop; the difference is that loop's totals.
struct MatchTotals {
  uint64_t queries = 0;
  uint64_t eti_lookups = 0;
  uint64_t tids_processed = 0;
  uint64_t hash_table_size = 0;
  uint64_t ref_tuples_fetched = 0;
  uint64_t osc_attempted = 0;
  uint64_t osc_succeeded = 0;
  uint64_t fetched_when_osc_succeeded = 0;
  uint64_t fetched_when_osc_failed = 0;
  uint64_t fetched_when_osc_not_attempted = 0;
  double elapsed_seconds = 0.0;

  static MatchTotals Read();
  MatchTotals operator-(const MatchTotals& before) const;
};

/// Outcome of running one input dataset through one matcher.
struct EvalResult {
  double accuracy = 0.0;       // seed recovered as (one of) the closest
  MatchTotals stats;           // totals over the dataset's queries
};

/// Runs every input through the matcher, serially.
Result<EvalResult> Evaluate(FuzzyMatcher& matcher,
                            const std::vector<InputTuple>& inputs);

/// Seconds the naive algorithm needs to process ONE input tuple (the
/// paper's unit of normalized elapsed time), averaged over a few probes.
Result<double> NaiveProbeSeconds(BenchEnv& env, const IdfWeights& weights,
                                 size_t probes = 3);

/// Writes the process-wide metrics registry as JSON to
/// $FM_METRICS_DIR/<bench_name>.metrics.json (FM_METRICS_DIR defaults to
/// bench_results/, created if missing). Every bench harness calls this
/// on exit so runs share one diffable schema of the system's own
/// counters; failures are logged and swallowed (metrics never fail a
/// bench).
void DumpMetrics(const std::string& bench_name);

}  // namespace bench
}  // namespace fuzzymatch

#endif  // FUZZYMATCH_BENCH_SUPPORT_BENCH_ENV_H_
