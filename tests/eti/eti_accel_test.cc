// Tests of the in-memory ETI read accelerator (DESIGN.md 5d): parity with
// the B-tree route, budget-bounded residency, maintenance coherence, and
// end-to-end matcher equivalence with the accelerator on vs off.

#include "eti/eti_accel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/fuzzy_match.h"
#include "eti/eti_builder.h"
#include "eti/signature.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

class EtiAccelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  /// The paper's Table 1 organization relation.
  Table* MakeTable1() {
    auto table = db_->CreateTable(
        "orgs", Schema({"name", "city", "state", "zipcode"}));
    EXPECT_TRUE(table.ok());
    for (const char* name : {"Boeing Company", "Bon Corporation",
                             "Companions"}) {
      const char* zip = name[2] == 'e' ? "98004"
                        : name[2] == 'n' ? "98014"
                                         : "98024";
      EXPECT_TRUE((*table)
                      ->Insert(Row{std::string(name), std::string("Seattle"),
                                   std::string("WA"), std::string(zip)})
                      .ok());
    }
    return *table;
  }

  /// A synthetic customer relation for volume tests.
  Table* MakeCustomers(size_t n) {
    auto table = db_->CreateTable("customers",
                                  CustomerGenerator::CustomerSchema());
    EXPECT_TRUE(table.ok());
    CustomerGenOptions options;
    options.num_tuples = n;
    CustomerGenerator gen(options);
    EXPECT_TRUE(gen.Populate(*table).ok());
    return *table;
  }

  /// Every (gram, coordinate, column) key the reference relation indexes.
  struct ProbeKey {
    std::string gram;
    uint32_t coordinate;
    uint32_t column;
  };
  std::vector<ProbeKey> AllProbeKeys(Table* ref, const Eti& eti,
                                     size_t max_tuples = SIZE_MAX) {
    std::vector<ProbeKey> keys;
    const Tokenizer tokenizer = eti.MakeTokenizer();
    const MinHasher hasher = eti.MakeHasher();
    Table::Scanner scanner = ref->Scan();
    Tid tid;
    Row row;
    size_t seen = 0;
    for (;;) {
      auto more = scanner.Next(&tid, &row);
      EXPECT_TRUE(more.ok());
      if (!*more || seen++ >= max_tuples) break;
      const TokenizedTuple tokens = tokenizer.TokenizeTuple(row);
      for (uint32_t col = 0; col < tokens.size(); ++col) {
        for (const auto& token : tokens[col]) {
          for (const auto& tc :
               MakeTokenCoordinates(hasher, eti.params(), token, 1.0)) {
            keys.push_back({tc.gram, tc.coordinate, col});
          }
        }
      }
    }
    return keys;
  }

  /// Asserts that `accel_handle` and `plain_handle` answer identically
  /// for every key in `keys`.
  void ExpectLookupParity(const Eti& accel_handle, const Eti& plain_handle,
                          const std::vector<ProbeKey>& keys) {
    for (const ProbeKey& key : keys) {
      auto a = accel_handle.Lookup(key.gram, key.coordinate, key.column);
      auto b = plain_handle.Lookup(key.gram, key.coordinate, key.column);
      ASSERT_TRUE(a.ok()) << key.gram;
      ASSERT_TRUE(b.ok()) << key.gram;
      ASSERT_EQ(a->has_value(), b->has_value())
          << key.gram << "/" << key.coordinate << "/" << key.column;
      if (!a->has_value()) continue;
      EXPECT_EQ((*a)->frequency, (*b)->frequency) << key.gram;
      EXPECT_EQ((*a)->is_stop, (*b)->is_stop) << key.gram;
      EXPECT_EQ((*a)->tids, (*b)->tids) << key.gram;
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(EtiAccelTest, CompleteSegmentMirrorsTheBTree) {
  Table* orgs = MakeTable1();
  EtiBuilder::Options options;
  options.params.q = 3;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  auto built = EtiBuilder::Build(db_.get(), orgs, options);
  ASSERT_TRUE(built.ok());

  const Eti plain = built->eti;  // copy WITHOUT the accelerator
  ASSERT_TRUE(built->eti.AttachAccelerator(EtiAccelOptions{}).ok());
  const EtiAccel* accel = built->eti.accelerator();
  ASSERT_NE(accel, nullptr);
  EXPECT_TRUE(accel->complete());
  EXPECT_EQ(accel->entry_count(), built->eti.entry_count());
  EXPECT_EQ(accel->rows_scanned(), accel->rows_admitted());
  EXPECT_GT(accel->memory_bytes(), 0u);

  std::vector<ProbeKey> keys = AllProbeKeys(orgs, built->eti);
  ASSERT_FALSE(keys.empty());
  // Misses must agree too (authoritative negatives on a complete segment).
  keys.push_back({"zzz", 1, 0});
  keys.push_back({"sea", 1, 3});
  keys.push_back({"seattle", 0, 3});
  ExpectLookupParity(built->eti, plain, keys);
}

TEST_F(EtiAccelTest, LookupIntoDecodesIntoCallerScratch) {
  Table* orgs = MakeTable1();
  EtiBuilder::Options options;
  options.params.q = 3;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  auto built = EtiBuilder::Build(db_.get(), orgs, options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->eti.AttachAccelerator(EtiAccelOptions{}).ok());

  EtiScratch scratch;
  auto view = built->eti.LookupInto("seattle", 0, 1, &scratch);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->found);
  EXPECT_FALSE(view->is_stop);
  EXPECT_EQ(view->frequency, 3u);
  ASSERT_EQ(view->num_tids, 3u);
  EXPECT_EQ(view->tids, scratch.tids.data())
      << "tids must alias the caller-owned scratch buffer";
  EXPECT_EQ((std::vector<Tid>(view->tids, view->tids + view->num_tids)),
            (std::vector<Tid>{0, 1, 2}));

  // A miss on a complete segment is an authoritative negative.
  auto miss = built->eti.LookupInto("zzz", 1, 0, &scratch);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
}

TEST_F(EtiAccelTest, ZeroBudgetAdmitsNothingButStaysCorrect) {
  Table* orgs = MakeTable1();
  EtiBuilder::Options options;
  options.params.q = 3;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  auto built = EtiBuilder::Build(db_.get(), orgs, options);
  ASSERT_TRUE(built.ok());

  const Eti plain = built->eti;
  ASSERT_TRUE(
      built->eti.AttachAccelerator(EtiAccelOptions{.memory_budget_bytes = 0})
          .ok());
  const EtiAccel* accel = built->eti.accelerator();
  ASSERT_NE(accel, nullptr);
  EXPECT_FALSE(accel->complete());
  EXPECT_EQ(accel->entry_count(), 0u);
  EXPECT_EQ(accel->rows_admitted(), 0u);
  EXPECT_GT(accel->rows_scanned(), 0u);

  ExpectLookupParity(built->eti, plain, AllProbeKeys(orgs, built->eti));
}

TEST_F(EtiAccelTest, PartialBudgetSpillsToTheBTree) {
  Table* customers = MakeCustomers(400);
  EtiBuilder::Options options;
  options.params.q = 4;
  options.params.signature_size = 2;
  auto built = EtiBuilder::Build(db_.get(), customers, options);
  ASSERT_TRUE(built.ok());

  const Eti plain = built->eti;
  // A budget far below the full segment: only the most frequent entries
  // become resident, the rest spill.
  ASSERT_TRUE(built->eti
                  .AttachAccelerator(
                      EtiAccelOptions{.memory_budget_bytes = 16u << 10})
                  .ok());
  const EtiAccel* accel = built->eti.accelerator();
  ASSERT_NE(accel, nullptr);
  EXPECT_FALSE(accel->complete());
  EXPECT_GT(accel->entry_count(), 0u);
  EXPECT_LT(accel->entry_count(), built->eti.entry_count());
  EXPECT_LT(accel->rows_admitted(), accel->rows_scanned());
  EXPECT_LE(accel->memory_bytes(), 16u << 10);

  ExpectLookupParity(built->eti, plain,
                     AllProbeKeys(customers, built->eti, 40));
}

TEST_F(EtiAccelTest, MaintenanceInsertAndRemoveStayCoherent) {
  Table* orgs = MakeTable1();
  EtiBuilder::Options options;
  options.params.q = 3;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  auto built = EtiBuilder::Build(db_.get(), orgs, options);
  ASSERT_TRUE(built.ok());
  const Eti plain = built->eti;
  ASSERT_TRUE(built->eti.AttachAccelerator(EtiAccelOptions{}).ok());
  ASSERT_TRUE(built->eti.accelerator()->complete());

  // Insert a 4th tuple sharing 'seattle' and bringing brand-new tokens.
  const Row fresh{std::string("Rainier Works"), std::string("Seattle"),
                  std::string("WA"), std::string("98044")};
  auto tid = orgs->Insert(fresh);
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(*tid, 3u);
  const Tokenizer tokenizer = built->eti.MakeTokenizer();
  const TokenizedTuple tokens = tokenizer.TokenizeTuple(fresh);
  ASSERT_TRUE(built->eti.IndexTuple(*tid, tokens).ok());

  // Existing key: the resident entry was invalidated, the accelerated
  // handle must see the appended tid via the B-tree.
  auto seattle = built->eti.Lookup("seattle", 0, 1);
  ASSERT_TRUE(seattle.ok());
  ASSERT_TRUE(seattle->has_value());
  EXPECT_EQ((*seattle)->frequency, 4u);
  EXPECT_EQ((*seattle)->tids, (std::vector<Tid>{0, 1, 2, 3}));

  // Brand-new key: the segment was complete, so without the fresh spill
  // marker this lookup would be a wrong authoritative negative.
  auto works = built->eti.Lookup("works", 0, 0);
  ASSERT_TRUE(works.ok());
  ASSERT_TRUE(works->has_value())
      << "new key inserted after the accelerator was built must be found";
  EXPECT_EQ((*works)->tids, (std::vector<Tid>{3}));

  // Full parity against the plain handle, including the new tuple's keys.
  ExpectLookupParity(built->eti, plain, AllProbeKeys(orgs, built->eti));

  // Remove the tuple again: both routes converge back.
  ASSERT_TRUE(built->eti.UnindexTuple(*tid, tokens).ok());
  auto after = built->eti.Lookup("seattle", 0, 1);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->has_value());
  EXPECT_EQ((*after)->frequency, 3u);
  EXPECT_EQ((*after)->tids, (std::vector<Tid>{0, 1, 2}));
  ExpectLookupParity(built->eti, plain, AllProbeKeys(orgs, built->eti));
}

TEST_F(EtiAccelTest, StopQGramCrossingThroughMaintenance) {
  Table* orgs = MakeTable1();
  EtiBuilder::Options options;
  options.params.q = 3;
  options.params.signature_size = 2;
  options.params.index_tokens = true;
  // 'seattle' has frequency 3 at build time (not a stop q-gram yet); the
  // 4th insert pushes it over the threshold.
  options.params.stop_qgram_threshold = 3;
  auto built = EtiBuilder::Build(db_.get(), orgs, options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->eti.AttachAccelerator(EtiAccelOptions{}).ok());

  auto before = built->eti.Lookup("seattle", 0, 1);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->has_value());
  EXPECT_FALSE((*before)->is_stop);

  const Row fresh{std::string("Emerald Cafe"), std::string("Seattle"),
                  std::string("WA"), std::string("98054")};
  auto tid = orgs->Insert(fresh);
  ASSERT_TRUE(tid.ok());
  const TokenizedTuple tokens =
      built->eti.MakeTokenizer().TokenizeTuple(fresh);
  ASSERT_TRUE(built->eti.IndexTuple(*tid, tokens).ok());

  // The row crossed into stop territory; the accelerated handle must see
  // the NULL tid-list, not the stale resident postings.
  auto after = built->eti.Lookup("seattle", 0, 1);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->has_value());
  EXPECT_TRUE((*after)->is_stop);
  EXPECT_EQ((*after)->frequency, 4u);
  EXPECT_TRUE((*after)->tids.empty());

  // Re-seeding admits the row as a resident stop slot, which must serve
  // the same NULL tid-list from the accelerator itself.
  ASSERT_TRUE(built->eti.AttachAccelerator(EtiAccelOptions{}).ok());
  ASSERT_TRUE(built->eti.accelerator()->complete());
  EtiScratch scratch;
  auto view = built->eti.LookupInto("seattle", 0, 1, &scratch);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->found);
  EXPECT_TRUE(view->is_stop);
  EXPECT_EQ(view->frequency, 4u);
  EXPECT_EQ(view->num_tids, 0u);
}

TEST_F(EtiAccelTest, MatcherResultsIdenticalWithAcceleratorOnAndOff) {
  // Two databases with the same deterministic reference relation; one
  // matcher runs fully accelerated, the other takes the B-tree route with
  // the tuple cache disabled. Results must be identical.
  Table* customers = MakeCustomers(800);

  auto db2 = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db2.ok());
  auto table2 = (*db2)->CreateTable("customers",
                                    CustomerGenerator::CustomerSchema());
  ASSERT_TRUE(table2.ok());
  CustomerGenOptions gen_options;
  gen_options.num_tuples = 800;
  CustomerGenerator gen(gen_options);
  ASSERT_TRUE(gen.Populate(*table2).ok());

  FuzzyMatchConfig accel_config;
  accel_config.eti.signature_size = 3;
  accel_config.eti.index_tokens = true;
  FuzzyMatchConfig plain_config = accel_config;
  plain_config.accel_memory_bytes = 0;
  plain_config.matcher.tuple_cache_bytes = 0;

  auto accelerated = FuzzyMatcher::Build(db_.get(), "customers",
                                         accel_config);
  ASSERT_TRUE(accelerated.ok()) << accelerated.status();
  ASSERT_NE((*accelerated)->eti().accelerator(), nullptr);
  EXPECT_TRUE((*accelerated)->eti().accelerator()->complete());
  auto plain = FuzzyMatcher::Build(db2->get(), "customers", plain_config);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ((*plain)->eti().accelerator(), nullptr);

  DatasetSpec spec = DatasetD2();
  spec.num_inputs = 80;
  auto inputs = GenerateInputs(customers, spec, &(*accelerated)->weights());
  ASSERT_TRUE(inputs.ok());

  for (const auto& input : *inputs) {
    auto a = (*accelerated)->FindMatches(input.dirty);
    auto b = (*plain)->FindMatches(input.dirty);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].tid, (*b)[i].tid);
      EXPECT_DOUBLE_EQ((*a)[i].similarity, (*b)[i].similarity);
    }
  }
}

TEST_F(EtiAccelTest, TupleCacheHitsShowUpInQueryStats) {
  MakeCustomers(300);
  FuzzyMatchConfig config;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
  ASSERT_TRUE(matcher.ok());

  auto row = (*matcher)->reference().Get(42);
  ASSERT_TRUE(row.ok());
  // First query warms the cache; repeats verify the same reference tuples
  // from memory.
  const test_support::CounterDelta cache_hits("tuple_cache.hits");
  QueryStats cold;
  ASSERT_TRUE((*matcher)->FindMatches(*row, &cold).ok());
  ASSERT_GT(cold.ref_tuples_fetched, 0u);
  QueryStats warm;
  ASSERT_TRUE((*matcher)->FindMatches(*row, &warm).ok());
  EXPECT_GT(warm.tuple_cache_hits, 0u);
  EXPECT_LT(warm.ref_tuples_fetched, cold.ref_tuples_fetched);
  EXPECT_EQ(cache_hits.value(), warm.tuple_cache_hits + cold.tuple_cache_hits);

  // Maintenance removes a tuple: its cached tokenization must go with it.
  auto victim = (*matcher)->FindMatches(*row);
  ASSERT_TRUE(victim.ok());
  ASSERT_FALSE(victim->empty());
  ASSERT_TRUE((*matcher)->RemoveReferenceTuple((*victim)[0].tid).ok());
  auto gone = (*matcher)->FindMatches(*row);
  ASSERT_TRUE(gone.ok());
  for (const Match& m : *gone) {
    EXPECT_NE(m.tid, (*victim)[0].tid) << "removed tuple still matched";
  }
}

}  // namespace
}  // namespace fuzzymatch
