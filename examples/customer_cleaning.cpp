// Online data-cleaning pipeline (Figure 1 of the paper).
//
// A data warehouse holds a clean Customer reference relation. A stream of
// incoming sales records arrives with errors; each record is fuzzily
// matched against the reference:
//   - similarity 1.0          -> validated, loaded as-is;
//   - similarity >= threshold -> corrected to the matched reference tuple;
//   - below threshold         -> routed for further (manual) cleaning.
//
// Run: customer_cleaning [num_reference_tuples] [num_incoming]

#include <cstdio>
#include <cstdlib>

#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "obs/metrics.h"

using namespace fuzzymatch;

int main(int argc, char** argv) {
  const size_t ref_size = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                   : 20000;
  const size_t incoming = argc > 2 ? std::strtoul(argv[2], nullptr, 10)
                                   : 500;
  constexpr double kLoadThreshold = 0.80;

  // The warehouse: a clean reference relation.
  auto db_or = Database::Open(DatabaseOptions{});
  if (!db_or.ok()) return 1;
  auto db = std::move(*db_or);
  auto table_or =
      db->CreateTable("customers", CustomerGenerator::CustomerSchema());
  if (!table_or.ok()) return 1;
  CustomerGenOptions gen_options;
  gen_options.num_tuples = ref_size;
  CustomerGenerator generator(gen_options);
  if (!generator.Populate(*table_or).ok()) return 1;
  std::printf("Reference relation: %zu customer tuples\n", ref_size);

  // One-time index build.
  FuzzyMatchConfig config;
  config.eti.q = 4;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;  // Q+T_3: the paper's best trade-off
  config.matcher.min_similarity = 0.0;
  auto matcher_or = FuzzyMatcher::Build(db.get(), "customers", config);
  if (!matcher_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 matcher_or.status().ToString().c_str());
    return 1;
  }
  auto& matcher = *matcher_or;
  std::printf("ETI built in %.2fs (%llu rows, %llu stop q-grams)\n\n",
              matcher->build_stats().total_seconds,
              static_cast<unsigned long long>(matcher->build_stats().eti_rows),
              static_cast<unsigned long long>(
                  matcher->build_stats().stop_qgrams));

  // The incoming feed: reference tuples corrupted with the paper's D2
  // error profile.
  DatasetSpec spec = DatasetD2();
  spec.num_inputs = incoming;
  auto ref = db->GetTable("customers");
  if (!ref.ok()) return 1;
  auto inputs = GenerateInputs(*ref, spec, &matcher->weights());
  if (!inputs.ok()) return 1;

  size_t validated = 0, corrected = 0, routed = 0, miscorrected = 0;
  for (const InputTuple& record : *inputs) {
    auto matches = matcher->FindMatches(record.dirty);
    if (!matches.ok()) {
      std::fprintf(stderr, "match failed: %s\n",
                   matches.status().ToString().c_str());
      return 1;
    }
    if (matches->empty() || (*matches)[0].similarity < kLoadThreshold) {
      ++routed;
      continue;
    }
    const Match& best = (*matches)[0];
    if (best.similarity >= 1.0) {
      ++validated;
    } else {
      ++corrected;
      if (best.tid != record.seed_tid) {
        ++miscorrected;  // known only because this is a simulation
      }
    }
  }

  // Totals come from the process-wide metrics registry, where every
  // query records its counters.
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Histogram* latency = reg.GetHistogram(
      "match.query_seconds", obs::LatencyHistogramOptions());
  const double queries = static_cast<double>(latency->count());
  auto per_query = [&](const char* counter) {
    return static_cast<double>(reg.GetCounter(counter)->value()) / queries;
  };
  std::printf("Processed %zu incoming records at threshold %.2f:\n",
              inputs->size(), kLoadThreshold);
  std::printf("  validated (exact)      : %zu\n", validated);
  std::printf("  corrected (fuzzy)      : %zu  (of which %zu to a wrong "
              "customer)\n",
              corrected, miscorrected);
  std::printf("  routed for cleaning    : %zu\n", routed);
  std::printf("\nPer-record work (averages):\n");
  std::printf("  ETI lookups            : %.1f\n",
              per_query("match.eti_lookups"));
  std::printf("  tids scored            : %.1f\n",
              per_query("match.tids_processed"));
  std::printf("  reference fetches      : %.2f\n",
              per_query("match.ref_tuples_fetched"));
  std::printf("  OSC success fraction   : %.2f\n",
              per_query("match.osc_succeeded"));
  std::printf("  latency                : %.2f ms\n",
              1e3 * latency->sum() / queries);
  return 0;
}
