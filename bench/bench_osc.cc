// Figure 10 (dataset D2): fraction of input tuples for which optimistic
// short circuiting succeeded vs failed, per strategy. The paper reports
// 50%-75% success, increasing with signature size (more q-grams
// distinguish similarity scores better).

#include <cstdio>

#include "common/string_util.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

Status Run() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  const DatasetSpec spec = WithInputs(DatasetD2(), env.num_inputs);
  std::printf("Figure 10 — OSC success and failure fractions (dataset D2, "
              "|R| = %zu, %zu inputs)\n\n",
              env.ref_size, env.num_inputs);
  PrintRow({"Strategy", "success", "failure", "attempted"});

  for (const EtiParams& params : PaperStrategies()) {
    FM_ASSIGN_OR_RETURN(auto matcher, BuildStrategy(env, params));
    FM_ASSIGN_OR_RETURN(
        const std::vector<InputTuple> inputs,
        GenerateInputs(env.customers, spec, &matcher->weights()));
    FM_ASSIGN_OR_RETURN(const EvalResult result, Evaluate(*matcher, inputs));
    const MatchTotals& s = result.stats;
    const double q = static_cast<double>(s.queries);
    PrintRow({params.StrategyName(),
              StringPrintf("%.2f", s.osc_succeeded / q),
              StringPrintf("%.2f", (q - s.osc_succeeded) / q),
              StringPrintf("%.2f", s.osc_attempted / q)});
  }
  std::printf("\nExpected shape (paper): success fraction between 0.50 and "
              "0.75 and generally\nincreasing with signature size.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_osc");
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
