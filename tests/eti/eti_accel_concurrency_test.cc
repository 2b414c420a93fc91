// Concurrency tests of the accelerated read path: many threads probing
// the same EtiAccel segment (each with its own scratch) and many threads
// running full accelerated queries through the shared matcher + tuple
// cache. Results must be identical to the serial run; the suite is part
// of the ThreadSanitizer slice in tools/ci.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/fuzzy_match.h"
#include "eti/eti_builder.h"
#include "eti/signature.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

class EtiAccelConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = db_->CreateTable("customers",
                                  CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    customers_ = *table;
    CustomerGenOptions options;
    options.num_tuples = 400;
    CustomerGenerator gen(options);
    ASSERT_TRUE(gen.Populate(customers_).ok());
  }

  std::unique_ptr<Database> db_;
  Table* customers_ = nullptr;
};

TEST_F(EtiAccelConcurrencyTest, ConcurrentProbesMatchSerialResults) {
  EtiBuilder::Options options;
  options.params.q = 4;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  auto built = EtiBuilder::Build(db_.get(), customers_, options);
  ASSERT_TRUE(built.ok());
  // Partial budget on purpose: concurrent readers exercise both the
  // resident-hit path and the B-tree spill path.
  ASSERT_TRUE(built->eti
                  .AttachAccelerator(
                      EtiAccelOptions{.memory_budget_bytes = 32u << 10})
                  .ok());
  const Eti& eti = built->eti;

  // Probe list + serial ground truth.
  struct Probe {
    std::string gram;
    uint32_t coordinate;
    uint32_t column;
  };
  std::vector<Probe> probes;
  std::vector<EtiEntry> expected;
  std::vector<bool> expected_found;
  const Tokenizer tokenizer = eti.MakeTokenizer();
  const MinHasher hasher = eti.MakeHasher();
  Table::Scanner scanner = customers_->Scan();
  Tid tid;
  Row row;
  size_t seen = 0;
  for (;;) {
    auto more = scanner.Next(&tid, &row);
    ASSERT_TRUE(more.ok());
    if (!*more || seen++ >= 60) break;
    const TokenizedTuple tokens = tokenizer.TokenizeTuple(row);
    for (uint32_t col = 0; col < tokens.size(); ++col) {
      for (const auto& token : tokens[col]) {
        for (const auto& tc :
             MakeTokenCoordinates(hasher, eti.params(), token, 1.0)) {
          probes.push_back({tc.gram, tc.coordinate, col});
        }
      }
    }
  }
  probes.push_back({"zzzz", 1, 0});  // a guaranteed miss
  for (const Probe& p : probes) {
    auto entry = eti.Lookup(p.gram, p.coordinate, p.column);
    ASSERT_TRUE(entry.ok());
    expected_found.push_back(entry->has_value());
    expected.push_back(entry->has_value() ? **entry : EtiEntry{});
  }

  constexpr size_t kThreads = 8;
  std::vector<uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EtiScratch scratch;  // one per thread, per the contract
      for (size_t i = 0; i < probes.size(); ++i) {
        const Probe& p = probes[i];
        auto view = eti.LookupInto(p.gram, p.coordinate, p.column, &scratch);
        if (!view.ok() || view->found != expected_found[i]) {
          ++mismatches[t];
          continue;
        }
        if (!view->found) continue;
        const EtiEntry& want = expected[i];
        const bool same =
            view->is_stop == want.is_stop &&
            view->frequency == want.frequency &&
            view->num_tids == want.tids.size() &&
            std::equal(want.tids.begin(), want.tids.end(), view->tids);
        mismatches[t] += same ? 0 : 1;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST_F(EtiAccelConcurrencyTest, ConcurrentAcceleratedQueriesMatchSerial) {
  FuzzyMatchConfig config;
  config.eti.signature_size = 2;
  config.eti.index_tokens = true;
  // Small budgets keep eviction and spill active under contention.
  config.accel_memory_bytes = 1u << 20;
  config.matcher.tuple_cache_bytes = 64u << 10;
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  DatasetSpec spec = DatasetD2();
  spec.num_inputs = 40;
  auto inputs = GenerateInputs(customers_, spec, &(*matcher)->weights());
  ASSERT_TRUE(inputs.ok());

  // Serial ground truth (also warms the tuple cache, so the threaded runs
  // hit it immediately).
  std::vector<std::vector<Match>> expected;
  for (const auto& input : *inputs) {
    auto matches = (*matcher)->FindMatches(input.dirty);
    ASSERT_TRUE(matches.ok());
    expected.push_back(std::move(*matches));
  }

  const test_support::CounterDelta cache_hits("tuple_cache.hits");
  constexpr size_t kThreads = 6;
  std::vector<uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < inputs->size(); ++i) {
        auto matches = (*matcher)->FindMatches((*inputs)[i].dirty);
        if (!matches.ok() || matches->size() != expected[i].size()) {
          ++mismatches[t];
          continue;
        }
        for (size_t m = 0; m < matches->size(); ++m) {
          if ((*matches)[m].tid != expected[i][m].tid ||
              (*matches)[m].similarity != expected[i][m].similarity) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_GT(cache_hits.value(), 0u);
}

}  // namespace
}  // namespace fuzzymatch
