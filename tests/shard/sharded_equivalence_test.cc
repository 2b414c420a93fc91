// Sharded scatter/gather vs the single-database matcher: the merged
// output must be byte-identical (same tids, bit-identical similarities,
// same order) across shard counts, seeds, K values and bound policies —
// the acceptance bar of DESIGN.md 5h. Also pins the coordinator-side
// contracts: request-id propagation into one span tree per request, and
// per-shard stats aggregation.

#include <gtest/gtest.h>

#include "core/batch_cleaner.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "obs/trace.h"
#include "shard/sharded_matcher.h"
#include "support/counter_delta.h"
#include "support/seed.h"

namespace fuzzymatch {
namespace shard {
namespace {

struct Env {
  std::unique_ptr<Database> db;
  Table* ref = nullptr;
  std::vector<Row> inputs;  // clean rows + corrupted rows
};

Result<Env> MakeEnv(uint64_t seed, size_t ref_size, size_t num_inputs) {
  Env env;
  DatabaseOptions db_options;
  FM_ASSIGN_OR_RETURN(env.db, Database::Open(std::move(db_options)));
  FM_ASSIGN_OR_RETURN(
      env.ref,
      env.db->CreateTable("customers",
                          CustomerGenerator::CustomerSchema()));
  CustomerGenOptions gen_options;
  gen_options.seed = seed;
  gen_options.num_tuples = ref_size;
  CustomerGenerator gen(gen_options);
  FM_RETURN_IF_ERROR(gen.Populate(env.ref));

  DatasetSpec spec = DatasetD2();
  spec.seed = seed + 1;
  spec.num_inputs = num_inputs;
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> dirty,
                      GenerateInputs(env.ref, spec, nullptr));
  for (const InputTuple& input : dirty) {
    env.inputs.push_back(input.dirty);
  }
  // Exact copies exercise the validated path (similarity 1.0 plus score
  // ties between duplicate-ish variants).
  for (Tid tid = 0; tid < ref_size && env.inputs.size() < 2 * num_inputs;
       tid += 13) {
    FM_ASSIGN_OR_RETURN(const Row row, env.ref->Get(tid));
    env.inputs.push_back(row);
  }
  return env;
}

/// Asserts byte-identical FindMatches output over every input. Sound
/// for the conservative bound policy (nothing true is ever pruned, on
/// either side), and for any policy at num_shards == 1.
void ExpectIdentical(const FuzzyMatcher& single,
                     const ShardedMatcher& sharded,
                     const std::vector<Row>& inputs) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    auto expected = single.FindMatches(inputs[i]);
    auto actual = sharded.FindMatches(inputs[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(expected->size(), actual->size());
    for (size_t m = 0; m < expected->size(); ++m) {
      EXPECT_EQ((*expected)[m].tid, (*actual)[m].tid) << "rank " << m;
      // Bit-identical, not approximately equal: both sides sum the same
      // weights over the same per-shard tuples.
      EXPECT_EQ((*expected)[m].similarity, (*actual)[m].similarity)
          << "rank " << m;
    }
  }
}

/// The contract under the lossy bound policies (kAggressive/kTight):
/// each shard's K-th-best threshold is at most the single database's, so
/// per-shard engines prune a SUBSET of what the single engine prunes —
/// the sharded tier can recover matches the single database lost, never
/// the reverse. Divergence must stay rare (DESIGN.md 5h).
void ExpectNeverWorse(const FuzzyMatcher& single,
                      const ShardedMatcher& sharded,
                      const std::vector<Row>& inputs,
                      size_t max_diverged) {
  size_t diverged = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    auto expected = single.FindMatches(inputs[i]);
    auto actual = sharded.FindMatches(inputs[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(expected->empty(), actual->empty());
    if (expected->empty()) continue;
    if (*expected == *actual) continue;
    ++diverged;
    EXPECT_GE((*actual)[0].similarity, (*expected)[0].similarity)
        << "sharded top-1 must never be worse than single-database";
  }
  // At K=1 the lossy-policy divergence is a rare-dirty-query phenomenon,
  // not a rewrite of the result stream; deeper ranks (K>1) diverge far
  // more often, so those callers pass a lenient cap.
  EXPECT_LE(diverged, max_diverged)
      << diverged << " of " << inputs.size() << " inputs diverged";
}

TEST(ShardedEquivalenceTest, DefaultConfigIsNeverWorseThanSingleDatabase) {
  for (const uint64_t seed : test_support::TestSeeds({11, 23})) {
    SCOPED_TRACE(test_support::SeedTrace(seed));
    auto env = MakeEnv(seed, 1200, 80);
    ASSERT_TRUE(env.ok()) << env.status();

    FuzzyMatchConfig config;
    auto single = FuzzyMatcher::Build(env->db.get(), "customers", config);
    ASSERT_TRUE(single.ok()) << single.status();

    for (const size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      ShardRouter::Options options;
      options.num_shards = shards;
      auto router = ShardRouter::Build(env->ref, config, options);
      ASSERT_TRUE(router.ok()) << router.status();
      auto sharded = ShardedMatcher::Create(router->get());
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      if (shards == 1) {
        // One shard is the same engine over the same relation: identical
        // even under the default lossy bound policy.
        ExpectIdentical(**single, **sharded, env->inputs);
      } else {
        ExpectNeverWorse(**single, **sharded, env->inputs,
                         env->inputs.size() / 5);
      }
    }
  }
}

TEST(ShardedEquivalenceTest, SweepsKValuesPoliciesAndReplicas) {
  for (const uint64_t seed : test_support::TestSeeds({31})) {
    SCOPED_TRACE(test_support::SeedTrace(seed));
    auto env = MakeEnv(seed, 900, 50);
    ASSERT_TRUE(env.ok()) << env.status();

    for (const size_t k : {1u, 3u}) {
      for (const auto policy : {MatcherOptions::BoundPolicy::kAggressive,
                                MatcherOptions::BoundPolicy::kConservative}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " conservative=" +
                     std::to_string(policy ==
                                    MatcherOptions::BoundPolicy::kConservative));
        FuzzyMatchConfig config;
        config.matcher.k = k;
        config.matcher.bound_policy = policy;
        {
          auto single =
              FuzzyMatcher::Build(env->db.get(), "customers", config);
          ASSERT_TRUE(single.ok()) << single.status();

          ShardRouter::Options options;
          options.num_shards = 3;
          auto router = ShardRouter::Build(env->ref, config, options);
          ASSERT_TRUE(router.ok()) << router.status();
          auto sharded = ShardedMatcher::Create(router->get());
          ASSERT_TRUE(sharded.ok()) << sharded.status();
          if (policy == MatcherOptions::BoundPolicy::kConservative) {
            ExpectIdentical(**single, **sharded, env->inputs);
          } else {
            ExpectNeverWorse(**single, **sharded, env->inputs,
                             env->inputs.size());
          }
        }
        // Rebuilding the single matcher reuses the database; drop the
        // persisted ETI (after the matchers above are gone) so the next
        // configuration builds fresh.
        const std::string eti_name =
            "customers_eti_" + config.eti.StrategyName();
        ASSERT_TRUE(env->db->DropTable(eti_name).ok());
        ASSERT_TRUE(env->db->DropIndex(eti_name + "_idx").ok());
        ASSERT_TRUE(env->db->DropTable(eti_name + "_meta").ok());
      }
    }
  }
}

TEST(ShardedEquivalenceTest, CleanBatchRoutesIdentically) {
  auto env = MakeEnv(47, 800, 60);
  ASSERT_TRUE(env.ok()) << env.status();
  FuzzyMatchConfig config;
  // The byte-identity contract needs the sound bound policy; see 5h.
  config.matcher.bound_policy = MatcherOptions::BoundPolicy::kConservative;
  auto single = FuzzyMatcher::Build(env->db.get(), "customers", config);
  ASSERT_TRUE(single.ok());
  ShardRouter::Options options;
  options.num_shards = 4;
  auto router = ShardRouter::Build(env->ref, config, options);
  ASSERT_TRUE(router.ok());
  auto sharded = ShardedMatcher::Create(router->get());
  ASSERT_TRUE(sharded.ok());

  const BatchCleaner single_cleaner(single->get(), BatchCleaner::Options{});
  const BatchCleaner sharded_cleaner(sharded->get(),
                                     BatchCleaner::Options{});
  for (const Row& input : env->inputs) {
    auto expected = single_cleaner.Clean(input);
    auto actual = sharded_cleaner.Clean(input);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(expected->outcome, actual->outcome);
    EXPECT_EQ(expected->output, actual->output);
    ASSERT_EQ(expected->best_match.has_value(),
              actual->best_match.has_value());
    if (expected->best_match.has_value()) {
      EXPECT_EQ(expected->best_match->tid, actual->best_match->tid);
      EXPECT_EQ(expected->best_match->similarity,
                actual->best_match->similarity);
    }
  }
}

TEST(ShardedEquivalenceTest, PropagatesRequestIdIntoOneSpanTree) {
  auto env = MakeEnv(59, 300, 5);
  ASSERT_TRUE(env.ok()) << env.status();
  FuzzyMatchConfig config;
  ShardRouter::Options options;
  options.num_shards = 3;
  auto router = ShardRouter::Build(env->ref, config, options);
  ASSERT_TRUE(router.ok());
  auto sharded = ShardedMatcher::Create(router->get());
  ASSERT_TRUE(sharded.ok());

  obs::TraceRecord record;
  {
    obs::RequestTrace trace("match", 4242,
                            obs::RequestTrace::CollectInto{&record});
    auto matches = (*sharded)->FindMatches(env->inputs[0]);
    ASSERT_TRUE(matches.ok());
  }
  EXPECT_EQ(record.request_id, 4242u);

  // One tree: every shard's subtree hangs off a shard[k] span which is
  // itself parented under the coordinator's scatter/gather span.
  int shard_roots = 0;
  int scatter_index = -1;
  for (size_t i = 0; i < record.spans.size(); ++i) {
    if (std::string(record.spans[i].name) == "shard.scatter_gather") {
      scatter_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(scatter_index, 0);
  for (const obs::TraceSpan& span : record.spans) {
    const std::string name = span.name;
    if (name.rfind("shard[", 0) == 0) {
      ++shard_roots;
      EXPECT_EQ(span.parent, scatter_index);
    }
    if (name == "match.find_matches") {
      // The per-shard engine spans are inside a shard[k] subtree, not
      // roots of their own.
      ASSERT_GE(span.parent, 0);
      EXPECT_EQ(std::string(record.spans[span.parent].name).rfind("shard[", 0),
                0u);
    }
  }
  EXPECT_EQ(shard_roots, 3);

  // The shard engines' counts merged into the coordinator's tallies.
  bool saw_lookups = false;
  for (const obs::TraceCount& count : record.counts) {
    if (std::string(count.key) == "eti_lookups") {
      saw_lookups = count.value > 0;
    }
  }
  EXPECT_TRUE(saw_lookups);
}

TEST(ShardedEquivalenceTest, AggregatesQueryStatsAcrossShards) {
  auto env = MakeEnv(67, 400, 5);
  ASSERT_TRUE(env.ok()) << env.status();
  FuzzyMatchConfig config;
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Build(env->ref, config, options);
  ASSERT_TRUE(router.ok());
  auto sharded = ShardedMatcher::Create(router->get());
  ASSERT_TRUE(sharded.ok());

  const test_support::CounterDelta queries("match.queries");
  const test_support::CounterDelta lookups("match.eti_lookups");
  QueryStats stats;
  auto matches = (*sharded)->FindMatches(env->inputs[0], &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(stats.eti_lookups, 0u);
  EXPECT_GT(stats.elapsed_seconds, 0.0);

  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ((*sharded)->queue_depth(k), 0u);
  }
  EXPECT_EQ(queries.value(), 2u);  // one task per shard
  EXPECT_EQ(lookups.value(), stats.eti_lookups);  // the per-shard sum
}

}  // namespace
}  // namespace shard
}  // namespace fuzzymatch
