// ETI vs the full q-gram table baseline (Section 2's comparison point,
// after Gravano et al., VLDB 2001): the ETI stores only H min-hash-chosen
// q-grams per token, the baseline stores them all. This bench
// substantiates the paper's size claim — "the ETI is smaller than a full
// q-gram table because we only select (probabilistically) a subset of all
// q-grams per tuple" — and shows what that subset costs and buys at query
// time (dataset D2).

#include <cstdio>

#include "common/string_util.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

Status Run() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  const size_t inputs_wanted = std::min<size_t>(env.num_inputs, 600);
  const DatasetSpec spec = WithInputs(DatasetD2(), inputs_wanted);

  std::vector<EtiParams> strategies;
  for (const int h : {1, 2, 3}) {
    EtiParams p;
    p.signature_size = h;
    strategies.push_back(p);
  }
  {
    EtiParams p;
    p.signature_size = 3;
    p.index_tokens = true;
    strategies.push_back(p);
  }
  {
    EtiParams full;
    full.full_qgram_index = true;
    strategies.push_back(full);
  }

  std::printf("ETI vs full q-gram table (|R| = %zu, D2, %zu inputs)\n\n",
              env.ref_size, inputs_wanted);
  PrintRow({"Index", "pre-rows", "ETI rows", "build(s)", "accuracy",
            "tids/in", "ms/in"});

  for (const EtiParams& params : strategies) {
    FM_ASSIGN_OR_RETURN(auto matcher, BuildStrategy(env, params));
    FM_ASSIGN_OR_RETURN(
        const std::vector<InputTuple> inputs,
        GenerateInputs(env.customers, spec, &matcher->weights()));
    FM_ASSIGN_OR_RETURN(const EvalResult result, Evaluate(*matcher, inputs));
    const EtiBuildStats& b = matcher->build_stats();
    const MatchTotals& s = result.stats;
    PrintRow({params.StrategyName(),
              StringPrintf("%llu",
                           static_cast<unsigned long long>(b.pre_eti_rows)),
              StringPrintf("%llu",
                           static_cast<unsigned long long>(b.eti_rows)),
              StringPrintf("%.2f", b.total_seconds),
              StringPrintf("%.1f%%", 100 * result.accuracy),
              StringPrintf("%.0f",
                           static_cast<double>(s.tids_processed) / s.queries),
              StringPrintf("%.3f",
                           1e3 * s.elapsed_seconds / s.queries)});
  }
  std::printf("\nExpected shape: FULLQG posts several times more pre-ETI "
              "rows and a larger, slower\nindex for an accuracy edge of a "
              "few points at most — the trade the ETI's\nprobabilistic "
              "subset is designed to win (Section 2).\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_qgram_baseline");
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
