// End-to-end invariants between the per-query QueryStats out-param and
// the process-wide metrics registry, the one account of every counter:
// registry deltas around a run must equal the sum of the run's per-call
// stats. Runs a real FuzzyMatcher over a small synthetic relation.

#include <gtest/gtest.h>

#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

using test_support::CounterDelta;

uint64_t Get(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = db_->CreateTable("customers",
                                  CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    ref_ = *table;
    CustomerGenOptions gen_options;
    gen_options.num_tuples = 1000;
    CustomerGenerator gen(gen_options);
    ASSERT_TRUE(gen.Populate(ref_).ok());
    FuzzyMatchConfig config;
    config.eti.signature_size = 2;
    config.eti.index_tokens = true;
    auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
    ASSERT_TRUE(matcher.ok()) << matcher.status();
    matcher_ = std::move(*matcher);
  }

  std::vector<InputTuple> MakeInputs(size_t n) {
    DatasetSpec spec = DatasetD2();
    spec.num_inputs = n;
    auto inputs = GenerateInputs(ref_, spec, nullptr);
    EXPECT_TRUE(inputs.ok());
    return std::move(*inputs);
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
  std::unique_ptr<FuzzyMatcher> matcher_;
};

TEST_F(ObsIntegrationTest, EtiProbesMatchQueryStatsLookups) {
  // Every Eti::Lookup increments eti.probes exactly once, and the
  // matcher counts the same events into QueryStats::eti_lookups.
  for (const auto& input : MakeInputs(10)) {
    const uint64_t before = Get("eti.probes");
    QueryStats stats;
    ASSERT_TRUE(matcher_->FindMatches(input.dirty, &stats).ok());
    EXPECT_EQ(Get("eti.probes") - before, stats.eti_lookups);
  }
}

TEST_F(ObsIntegrationTest, EveryQueryTouchesTheBufferPool) {
  // Every page access is either a hit or a miss; this workload touches
  // the pool at least once per query.
  const CounterDelta hits("bufferpool.hits");
  const CounterDelta misses("bufferpool.misses");
  const auto inputs = MakeInputs(10);
  for (const auto& input : inputs) {
    ASSERT_TRUE(matcher_->FindMatches(input.dirty).ok());
  }
  EXPECT_GE(hits.value() + misses.value(), inputs.size());
}

TEST_F(ObsIntegrationTest, MatchCountersSumQueryStats) {
  const CounterDelta queries("match.queries");
  const CounterDelta lookups("match.eti_lookups");
  const CounterDelta tids("match.tids_processed");
  const CounterDelta table("match.hash_table_size");
  const CounterDelta candidates("match.candidates");
  const CounterDelta fetched("match.ref_tuples_fetched");
  const CounterDelta cache_hits("tuple_cache.hits");
  const CounterDelta osc_attempted("match.osc_attempted");
  const CounterDelta osc_succeeded("match.osc_succeeded");
  const CounterDelta fetched_ok("match.fetched_when_osc_succeeded");
  const CounterDelta fetched_fail("match.fetched_when_osc_failed");
  const CounterDelta fetched_none("match.fetched_when_osc_not_attempted");
  obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "match.query_seconds", obs::LatencyHistogramOptions());
  const uint64_t latency_count = latency->count();

  QueryStats sum;
  uint64_t attempted = 0, succeeded = 0;
  uint64_t sum_ok = 0, sum_fail = 0, sum_none = 0;
  const auto inputs = MakeInputs(25);
  for (const auto& input : inputs) {
    QueryStats stats;
    ASSERT_TRUE(matcher_->FindMatches(input.dirty, &stats).ok());
    sum.eti_lookups += stats.eti_lookups;
    sum.tids_processed += stats.tids_processed;
    sum.hash_table_size += stats.hash_table_size;
    sum.candidates += stats.candidates;
    sum.ref_tuples_fetched += stats.ref_tuples_fetched;
    sum.tuple_cache_hits += stats.tuple_cache_hits;
    attempted += stats.osc_attempted ? 1 : 0;
    succeeded += stats.osc_succeeded ? 1 : 0;
    if (stats.osc_succeeded) {
      sum_ok += stats.ref_tuples_fetched;
    } else if (stats.osc_attempted) {
      sum_fail += stats.ref_tuples_fetched;
    } else {
      sum_none += stats.ref_tuples_fetched;
    }
  }

  EXPECT_EQ(queries.value(), inputs.size());
  EXPECT_EQ(latency->count() - latency_count, inputs.size());
  EXPECT_EQ(lookups.value(), sum.eti_lookups);
  EXPECT_EQ(tids.value(), sum.tids_processed);
  EXPECT_EQ(table.value(), sum.hash_table_size);
  EXPECT_EQ(candidates.value(), sum.candidates);
  EXPECT_EQ(fetched.value(), sum.ref_tuples_fetched);
  EXPECT_EQ(cache_hits.value(), sum.tuple_cache_hits);
  EXPECT_EQ(osc_attempted.value(), attempted);
  EXPECT_EQ(osc_succeeded.value(), succeeded);
  EXPECT_EQ(fetched_ok.value(), sum_ok);
  EXPECT_EQ(fetched_fail.value(), sum_fail);
  EXPECT_EQ(fetched_none.value(), sum_none);
  // The three fetch attributions partition the total.
  EXPECT_EQ(fetched_ok.value() + fetched_fail.value() + fetched_none.value(),
            fetched.value());
}

TEST_F(ObsIntegrationTest, SpanHistogramsCoverTheQueryPhases) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* probe = reg.GetHistogram(
      "span.match.probe_seconds", obs::LatencyHistogramOptions());
  obs::Histogram* score = reg.GetHistogram(
      "span.match.score_seconds", obs::LatencyHistogramOptions());
  const uint64_t probes_before = probe->count();
  const uint64_t scores_before = score->count();
  QueryStats stats;
  auto row = ref_->Get(7);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(matcher_->FindMatches(*row, &stats).ok());
  // One probe span per ETI lookup; at least one scoring span.
  EXPECT_EQ(probe->count() - probes_before, stats.eti_lookups);
  EXPECT_GT(score->count(), scores_before);
}

}  // namespace
}  // namespace fuzzymatch
