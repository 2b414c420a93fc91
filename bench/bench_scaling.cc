// Scaling sweep (beyond the paper, which fixes |R| = 1.7M): how build
// cost, index size, query latency and accuracy move with the reference
// cardinality, for the Q+T_3 strategy on D2-grade inputs. The paper's
// asymptotics (Section 4.4) predict build ~ O(|R|) and query latency
// growing only through tid-list lengths.

#include <cstdio>

#include "common/string_util.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

Status Run() {
  const size_t num_inputs = EnvSize("FM_NUM_INPUTS", 400);
  std::printf("Scaling sweep — Q+T_3, D2 errors, %zu inputs per point\n\n",
              num_inputs);
  PrintRow({"|R|", "build(s)", "ETI rows", "accuracy", "tids/in", "ms/in"});

  for (const size_t ref_size : {10000u, 30000u, 100000u, 300000u}) {
    FM_ASSIGN_OR_RETURN(auto db, Database::Open(DatabaseOptions{
                                     .path = "", .pool_pages = 96 * 1024}));
    FM_ASSIGN_OR_RETURN(
        Table * ref,
        db->CreateTable("customers", CustomerGenerator::CustomerSchema()));
    CustomerGenOptions gen_options;
    gen_options.num_tuples = ref_size;
    CustomerGenerator generator(gen_options);
    FM_RETURN_IF_ERROR(generator.Populate(ref));

    FuzzyMatchConfig config;
    config.eti.signature_size = 3;
    config.eti.index_tokens = true;
    FM_ASSIGN_OR_RETURN(auto matcher,
                        FuzzyMatcher::Build(db.get(), "customers", config));

    DatasetSpec spec = DatasetD2();
    spec.num_inputs = num_inputs;
    FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                        GenerateInputs(ref, spec, &matcher->weights()));
    const MatchTotals before = MatchTotals::Read();
    size_t correct = 0;
    for (const InputTuple& input : inputs) {
      FM_ASSIGN_OR_RETURN(const std::vector<Match> matches,
                          matcher->FindMatches(input.dirty));
      correct += (!matches.empty() && matches[0].tid == input.seed_tid);
    }
    const MatchTotals s = MatchTotals::Read() - before;
    PrintRow({StringPrintf("%zu", ref_size),
              StringPrintf("%.2f", matcher->build_stats().total_seconds),
              StringPrintf("%llu",
                           static_cast<unsigned long long>(
                               matcher->build_stats().eti_rows)),
              StringPrintf("%.1f%%",
                           100.0 * correct / static_cast<double>(
                                                 inputs.size())),
              StringPrintf("%.0f",
                           static_cast<double>(s.tids_processed) / s.queries),
              StringPrintf("%.3f",
                           1e3 * s.elapsed_seconds / s.queries)});
  }
  std::printf("\nExpected shape: near-linear build time and index size; "
              "per-query latency grows\nsublinearly (tid-lists lengthen, "
              "but OSC still terminates after the heavy\nq-grams); "
              "accuracy dips slowly as the space of confusable neighbors "
              "densifies.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_scaling");
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
