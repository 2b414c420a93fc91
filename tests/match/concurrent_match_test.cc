// Concurrency tests for the shared-read query path: many threads
// querying one FuzzyMatcher must produce byte-identical results to the
// serial run, and the lock-free registry counters must not lose counts.
// Run under -DFM_SANITIZE=thread these are the TSan probes for the whole
// matcher/storage read stack.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_cleaner.h"
#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

class ConcurrentMatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table =
        db_->CreateTable("customers", CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    ref_ = *table;
    CustomerGenOptions options;
    options.num_tuples = 2000;
    CustomerGenerator gen(options);
    ASSERT_TRUE(gen.Populate(ref_).ok());
    FuzzyMatchConfig config;
    auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
    ASSERT_TRUE(matcher.ok());
    matcher_ = std::move(*matcher);

    DatasetSpec spec = DatasetD2();
    spec.num_inputs = 120;
    auto inputs = GenerateInputs(ref_, spec, nullptr);
    ASSERT_TRUE(inputs.ok());
    for (const InputTuple& input : *inputs) {
      queries_.push_back(input.dirty);
    }
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
  std::unique_ptr<FuzzyMatcher> matcher_;
  std::vector<Row> queries_;
};

TEST_F(ConcurrentMatchTest, ThreadedFindMatchesEqualsSerial) {
  // Serial ground truth.
  std::vector<std::vector<Match>> serial(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto matches = matcher_->FindMatches(queries_[i]);
    ASSERT_TRUE(matches.ok());
    serial[i] = *matches;
  }

  // Every thread runs EVERY query, so each query executes concurrently
  // with itself and with all others.
  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::vector<Match>>> per_thread(
      kThreads, std::vector<std::vector<Match>>(queries_.size()));
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries_.size(); ++i) {
        auto matches = matcher_->FindMatches(queries_[i]);
        if (!matches.ok()) {
          failures.fetch_add(1);
          return;
        }
        per_thread[t][i] = *matches;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(per_thread[t][i], serial[i])
          << "thread " << t << " diverged on query " << i;
    }
  }
}

TEST_F(ConcurrentMatchTest, MatchCountersLoseNothingUnderThreads) {
  const test_support::CounterDelta queries("match.queries");
  const test_support::CounterDelta lookups("match.eti_lookups");
  const test_support::CounterDelta tids("match.tids_processed");
  const test_support::CounterDelta fetched("match.ref_tuples_fetched");
  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 40;
  // Per-thread sums of the per-call stats, added up after the join.
  std::vector<QueryStats> sums(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        QueryStats stats;
        (void)matcher_->FindMatches(queries_[(t * kPerThread + i) %
                                             queries_.size()],
                                    &stats);
        sums[t].eti_lookups += stats.eti_lookups;
        sums[t].tids_processed += stats.tids_processed;
        sums[t].ref_tuples_fetched += stats.ref_tuples_fetched;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  QueryStats total;
  for (const QueryStats& sum : sums) {
    total.eti_lookups += sum.eti_lookups;
    total.tids_processed += sum.tids_processed;
    total.ref_tuples_fetched += sum.ref_tuples_fetched;
  }
  EXPECT_EQ(queries.value(), kThreads * kPerThread)
      << "the registry counters dropped queries (data race)";
  EXPECT_EQ(lookups.value(), total.eti_lookups);
  EXPECT_EQ(tids.value(), total.tids_processed);
  EXPECT_EQ(fetched.value(), total.ref_tuples_fetched);
}

TEST_F(ConcurrentMatchTest, GetReferenceTupleConcurrentWithQueries) {
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 200; ++i) {
        if (t % 2 == 0) {
          auto row = matcher_->GetReferenceTuple((t * 977 + i * 31) % 2000);
          if (!row.ok()) failures.fetch_add(1);
        } else {
          auto matches =
              matcher_->FindMatches(queries_[i % queries_.size()]);
          if (!matches.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ConcurrentMatchTest, CleanBatchParallelMatchesSerial) {
  const BatchCleaner cleaner(matcher_.get(), {});

  std::vector<CleanResult> serial;
  auto serial_stats = cleaner.CleanBatch(
      queries_, [&](size_t, const CleanResult& r) -> Status {
        serial.push_back(r);
        return Status::OK();
      });
  ASSERT_TRUE(serial_stats.ok());

  for (const size_t threads : {2u, 5u}) {
    std::vector<CleanResult> parallel;
    std::vector<size_t> order;
    auto stats = cleaner.CleanBatchParallel(
        queries_, threads, [&](size_t i, const CleanResult& r) -> Status {
          order.push_back(i);
          parallel.push_back(r);
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << "threads=" << threads;
    EXPECT_EQ(stats->processed, serial_stats->processed);
    EXPECT_EQ(stats->validated, serial_stats->validated);
    EXPECT_EQ(stats->corrected, serial_stats->corrected);
    EXPECT_EQ(stats->routed, serial_stats->routed);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "sink must run in input order";
    }
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].outcome, serial[i].outcome) << "input " << i;
      EXPECT_EQ(parallel[i].output, serial[i].output) << "input " << i;
      ASSERT_EQ(parallel[i].best_match.has_value(),
                serial[i].best_match.has_value());
      if (serial[i].best_match.has_value()) {
        EXPECT_EQ(*parallel[i].best_match, *serial[i].best_match);
      }
    }
  }
}

TEST_F(ConcurrentMatchTest, CleanBatchParallelSinkErrorAborts) {
  const BatchCleaner cleaner(matcher_.get(), {});
  auto stats = cleaner.CleanBatchParallel(
      queries_, 4, [&](size_t i, const CleanResult&) -> Status {
        if (i == 3) {
          return Status::Internal("sink exploded");
        }
        return Status::OK();
      });
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInternal());
}

}  // namespace
}  // namespace fuzzymatch
