// Randomized cross-module stress tests of the storage engine: the
// B+-tree against std::map under a mixed workload, heap files under a
// tiny buffer pool (constant eviction), and a file-backed end-to-end
// fuzzy-match pipeline.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "common/random.h"
#include "common/string_util.h"
#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

TEST(BTreeStressTest, MixedWorkloadMatchesStdMap) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 512);
  auto tree_or = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree_or.ok());
  BPlusTree tree = std::move(*tree_or);
  std::map<std::string, std::string> model;
  Rng rng(20260706);

  auto random_key = [&rng]() {
    return StringPrintf("k%06llu",
                        static_cast<unsigned long long>(rng.Uniform(5000)));
  };

  for (int op = 0; op < 30000; ++op) {
    const std::string key = random_key();
    switch (rng.Uniform(5)) {
      case 0:
      case 1: {  // put
        const std::string value = StringPrintf("v%d", op);
        ASSERT_TRUE(tree.Put(key, value).ok());
        model[key] = value;
        break;
      }
      case 2: {  // insert (must fail iff present)
        const Status s = tree.Insert(key, "fresh");
        EXPECT_EQ(s.ok(), model.count(key) == 0) << key;
        if (s.ok()) {
          model[key] = "fresh";
        }
        break;
      }
      case 3: {  // delete
        const Status s = tree.Delete(key);
        EXPECT_EQ(s.ok(), model.erase(key) > 0) << key;
        break;
      }
      default: {  // get
        const auto got = tree.Get(key);
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(got.status().IsNotFound()) << key;
        } else {
          ASSERT_TRUE(got.ok()) << key;
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
  }

  // Final full comparison via iteration.
  ASSERT_EQ(*tree.Count(), model.size());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    EXPECT_EQ(it.value(), value);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
}

TEST(HeapFileStressTest, TinyBufferPoolWithOverflowRecords) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 6);  // brutal: constant eviction
  auto heap_or = HeapFile::Create(&pool);
  ASSERT_TRUE(heap_or.ok());
  HeapFile heap = std::move(*heap_or);
  Rng rng(99);

  std::vector<std::pair<Rid, std::string>> live;
  for (int op = 0; op < 800; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      // Insert: mix of tiny, page-sized and multi-page records.
      const size_t len = rng.Bernoulli(0.15)
                             ? 2 * kPageSize + rng.Uniform(kPageSize)
                             : rng.Uniform(600);
      std::string rec(len, 'x');
      for (auto& c : rec) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      auto rid = heap.Insert(rec);
      ASSERT_TRUE(rid.ok()) << rid.status();
      live.emplace_back(*rid, std::move(rec));
    } else if (rng.Bernoulli(0.3)) {
      // Delete a random record.
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(heap.Delete(live[i].first).ok());
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      // Read a random record back.
      const size_t i = rng.Uniform(live.size());
      auto rec = heap.Get(live[i].first);
      ASSERT_TRUE(rec.ok()) << rec.status();
      EXPECT_EQ(*rec, live[i].second);
    }
  }
  // Everything still alive reads back correctly, and the scan agrees.
  size_t scanned = 0;
  auto scanner = heap.Scan();
  Rid rid;
  std::string rec;
  for (;;) {
    auto more = scanner.Next(&rid, &rec);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++scanned;
  }
  EXPECT_EQ(scanned, live.size());
}

TEST(FileBackedPipelineTest, SmallPoolEndToEnd) {
  // The whole pipeline — populate, build ETI, match — against a
  // file-backed database whose buffer pool is much smaller than the
  // working set, so every stage runs through real page I/O.
  const std::string path = std::string(::testing::TempDir()) +
                           "/fm_stress_" + std::to_string(::getpid()) +
                           ".db";
  std::remove(path.c_str());
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 64;  // 512 KiB of cache for a multi-MB database
    const test_support::CounterDelta evictions("bufferpool.evictions");
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable("customers",
                                    CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    CustomerGenOptions gen_options;
    gen_options.num_tuples = 3000;
    CustomerGenerator gen(gen_options);
    ASSERT_TRUE(gen.Populate(*table).ok());

    FuzzyMatchConfig config;
    config.eti.signature_size = 2;
    config.eti.index_tokens = true;
    auto matcher = FuzzyMatcher::Build(db->get(), "customers", config);
    ASSERT_TRUE(matcher.ok()) << matcher.status();

    DatasetSpec spec = DatasetD2();
    spec.num_inputs = 40;
    auto inputs = GenerateInputs(*table, spec, nullptr);
    ASSERT_TRUE(inputs.ok());
    int correct = 0;
    for (const auto& input : *inputs) {
      auto matches = (*matcher)->FindMatches(input.dirty);
      ASSERT_TRUE(matches.ok());
      correct += (!matches->empty() && (*matches)[0].tid == input.seed_tid);
    }
    EXPECT_GT(correct, 20) << correct << "/40";
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_GT(evictions.value(), 200u)
        << "the tiny pool must actually thrash";
  }
  // Reopen and re-attach to the persisted index.
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 64;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    FuzzyMatchConfig reopen_config;
    auto matcher =
        FuzzyMatcher::Open(db->get(), "customers", "Q+T_2", reopen_config);
    ASSERT_TRUE(matcher.ok()) << matcher.status();
    auto row = (*matcher)->reference().Get(1234);
    ASSERT_TRUE(row.ok());
    auto matches = (*matcher)->FindMatches(*row);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fuzzymatch
