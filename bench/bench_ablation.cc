// Ablations of the design choices DESIGN.md calls out, on dataset D2 with
// the Q+T_2 strategy as the baseline:
//   - OSC on/off (how much work the short circuit saves);
//   - new-tid admission filter on/off (hash-table size effect; only
//     visible when the similarity threshold c > 0);
//   - conservative (adjustment-inclusive) bounds on/off;
//   - stop q-gram threshold sweep;
//   - token transposition operation in fms on/off;
//   - token insertion factor c_ins sweep.

#include <cstdio>

#include "common/string_util.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

struct Variant {
  std::string label;
  EtiParams eti;
  MatcherOptions matcher;
};

Status Run() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  const size_t inputs_wanted = std::min<size_t>(env.num_inputs, 600);
  const DatasetSpec spec = WithInputs(DatasetD2(), inputs_wanted);

  EtiParams base_eti;
  base_eti.signature_size = 2;
  base_eti.index_tokens = true;
  MatcherOptions base_matcher;

  std::vector<Variant> variants;
  variants.push_back({"baseline Q+T_2", base_eti, base_matcher});
  {
    Variant v{"no OSC", base_eti, base_matcher};
    v.matcher.use_osc = false;
    variants.push_back(v);
  }
  {
    Variant v{"tight bounds", base_eti, base_matcher};
    v.matcher.bound_policy = MatcherOptions::BoundPolicy::kTight;
    variants.push_back(v);
  }
  {
    Variant v{"conservative bounds", base_eti, base_matcher};
    v.matcher.bound_policy = MatcherOptions::BoundPolicy::kConservative;
    variants.push_back(v);
  }
  {
    Variant v{"c=0.5 with admission", base_eti, base_matcher};
    v.matcher.min_similarity = 0.5;
    variants.push_back(v);
  }
  {
    Variant v{"c=0.5 no admission", base_eti, base_matcher};
    v.matcher.min_similarity = 0.5;
    v.matcher.admission_filter = false;
    variants.push_back(v);
  }
  {
    Variant v{"stop threshold 500", base_eti, base_matcher};
    v.eti.stop_qgram_threshold = 500;
    variants.push_back(v);
  }
  {
    Variant v{"stop threshold 100", base_eti, base_matcher};
    v.eti.stop_qgram_threshold = 100;
    variants.push_back(v);
  }
  {
    Variant v{"fms transpositions", base_eti, base_matcher};
    v.matcher.fms.enable_transposition = true;
    variants.push_back(v);
  }
  {
    Variant v{"cins=0.1", base_eti, base_matcher};
    v.matcher.fms.cins = 0.1;
    variants.push_back(v);
  }
  {
    Variant v{"cins=1.0", base_eti, base_matcher};
    v.matcher.fms.cins = 1.0;
    variants.push_back(v);
  }

  std::printf("Ablations on D2 with Q+T_2 (|R| = %zu, %zu inputs)\n\n",
              env.ref_size, inputs_wanted);
  PrintRow({"Variant", "accuracy", "fetch/in", "tids/in", "table/in",
            "osc-ok", "ms/in"});

  // Each variant may alter the ETI, so each gets a fresh database.
  for (const Variant& variant : variants) {
    FM_ASSIGN_OR_RETURN(auto db, Database::Open(DatabaseOptions{
                                     .path = "", .pool_pages = 64 * 1024}));
    FM_ASSIGN_OR_RETURN(
        Table * ref,
        db->CreateTable("customers", CustomerGenerator::CustomerSchema()));
    CustomerGenOptions gen_options;
    gen_options.num_tuples = env.ref_size;
    CustomerGenerator generator(gen_options);
    FM_RETURN_IF_ERROR(generator.Populate(ref));

    FuzzyMatchConfig config;
    config.eti = variant.eti;
    config.matcher = variant.matcher;
    FM_ASSIGN_OR_RETURN(auto matcher,
                        FuzzyMatcher::Build(db.get(), "customers", config));
    FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                        GenerateInputs(ref, spec, &matcher->weights()));
    FM_ASSIGN_OR_RETURN(const EvalResult result, Evaluate(*matcher, inputs));
    const MatchTotals& s = result.stats;
    const double q = static_cast<double>(s.queries);
    PrintRow({variant.label,
              StringPrintf("%.1f%%", 100 * result.accuracy),
              StringPrintf("%.2f", s.ref_tuples_fetched / q),
              StringPrintf("%.0f", s.tids_processed / q),
              StringPrintf("%.0f", s.hash_table_size / q),
              StringPrintf("%.2f", s.osc_succeeded / q),
              StringPrintf("%.3f", 1e3 * s.elapsed_seconds / q)});
  }
  std::printf("\nReading guide: 'no OSC' shows the lookup/fetch work OSC "
              "avoids; 'conservative\nbounds' shows the cost of the "
              "strictly-safe Lemma 4.2 slack; the admission pair\nshows "
              "step 9b shrinking the score table when c > 0; aggressive "
              "stop thresholds\ntrade accuracy for smaller tid-lists; "
              "transpositions and c_ins shift fms itself.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_ablation");
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
