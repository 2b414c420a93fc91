// Figures 8 and 9 (dataset D2):
//   Figure 8 — average number of reference tuples fetched per input
//   tuple, split by whether optimistic short circuiting succeeded (the
//   paper: ~1 fetch when OSC succeeds, far more when it fails; totals
//   fall as the signature grows).
//   Figure 9 — average number of tids processed (scored) per input tuple
//   (the paper: thousands, growing with signature size, more for Q+T_H).

#include <cstdio>

#include "common/string_util.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

Status Run() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  const DatasetSpec spec = WithInputs(DatasetD2(), env.num_inputs);
  std::printf("Figures 8 & 9 — candidate fetches and tids processed per "
              "input tuple\n(dataset D2, |R| = %zu, %zu inputs)\n\n",
              env.ref_size, env.num_inputs);
  PrintRow({"Strategy", "fetch/input", "osc-ok", "osc-fail", "no-osc",
            "tids/input", "lookups"});

  for (const EtiParams& params : PaperStrategies()) {
    FM_ASSIGN_OR_RETURN(auto matcher, BuildStrategy(env, params));
    FM_ASSIGN_OR_RETURN(
        const std::vector<InputTuple> inputs,
        GenerateInputs(env.customers, spec, &matcher->weights()));
    FM_ASSIGN_OR_RETURN(const EvalResult result, Evaluate(*matcher, inputs));
    const MatchTotals& s = result.stats;
    const double ok_queries = static_cast<double>(s.osc_succeeded);
    // Only queries where the fetching test fired and the stopping test
    // then refuted the optimistic result; queries that never attempted
    // OSC are a separate population (the paper's Figure 8 split).
    const double fail_queries =
        static_cast<double>(s.osc_attempted - s.osc_succeeded);
    const double no_osc_queries =
        static_cast<double>(s.queries - s.osc_attempted);
    PrintRow({params.StrategyName(),
              StringPrintf("%.2f", static_cast<double>(s.ref_tuples_fetched) /
                                       s.queries),
              ok_queries > 0
                  ? StringPrintf("%.2f",
                                 s.fetched_when_osc_succeeded / ok_queries)
                  : "-",
              fail_queries > 0
                  ? StringPrintf("%.2f",
                                 s.fetched_when_osc_failed / fail_queries)
                  : "-",
              no_osc_queries > 0
                  ? StringPrintf(
                        "%.2f", s.fetched_when_osc_not_attempted /
                                    no_osc_queries)
                  : "-",
              StringPrintf("%.0f",
                           static_cast<double>(s.tids_processed) / s.queries),
              StringPrintf("%.1f",
                           static_cast<double>(s.eti_lookups) / s.queries)});
  }
  std::printf("\nExpected shapes (paper): total fetches per input decrease "
              "with signature size\n(Fig 8); OSC-success fetches stay near "
              "1 while OSC-failure fetches are much\nlarger; tids "
              "processed per input grow with signature size (Fig 9) but "
              "are more\nthan compensated by the smaller candidate "
              "sets.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_candidates");
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
