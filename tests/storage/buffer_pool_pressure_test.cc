// Dirty-page eviction under pool pressure while a B+-tree is splitting:
// a pool far smaller than the working set forces dirty writebacks in the
// middle of multi-page split operations, and everything written must
// still be readable — through the live handle, after FlushAll, and after
// a file-backed reopen. A failpoint variant injects a writeback error
// mid-split and requires the tree to stay intact and the retry to land.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

using test_support::CounterDelta;

using fault::Action;
using fault::FailpointSpec;
using fault::Failpoints;

constexpr size_t kPoolFrames = 8;
constexpr int kKeys = 300;

// ~600-byte keys pack only ~a dozen entries per node, so 300 inserts
// force both leaf and internal splits while 8 frames thrash.
std::string WideKey(int i) {
  char head[16];
  std::snprintf(head, sizeof(head), "k%06d", i);
  return std::string(head) + std::string(592, 'p');
}

std::string ValueOf(int i) { return "value-" + std::to_string(i); }

TEST(BufferPoolPressureTest, SplitsSurviveDirtyEvictionAndReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fm_pool_pressure_" + std::to_string(::getpid()) + ".db"))
          .string();
  std::filesystem::remove(path);
  PageId root;
  {
    auto pager_or = Pager::OpenFile(path);
    ASSERT_TRUE(pager_or.ok());
    auto pager = std::move(*pager_or);
    BufferPool pool(pager.get(), kPoolFrames);
    const CounterDelta evictions("bufferpool.evictions");
    auto tree_or = BPlusTree::Create(&pool);
    ASSERT_TRUE(tree_or.ok());
    BPlusTree tree = *tree_or;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(tree.Put(WideKey(i), ValueOf(i)).ok()) << "key " << i;
    }
    // The whole point of the test: the working set did not fit.
    EXPECT_GT(evictions.value(), 0u);

    // Every key readable through the live handle (faulting pages back in
    // past more evictions).
    for (int i = 0; i < kKeys; ++i) {
      auto value = tree.Get(WideKey(i));
      ASSERT_TRUE(value.ok()) << "key " << i << ": " << value.status();
      EXPECT_EQ(*value, ValueOf(i));
    }
    auto count = tree.Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, static_cast<uint64_t>(kKeys));
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(pager->Sync().ok());
    root = tree.root();
  }
  // Cold reopen from the file: the persisted image must be complete.
  {
    auto pager_or = Pager::OpenFile(path);
    ASSERT_TRUE(pager_or.ok());
    auto pager = std::move(*pager_or);
    BufferPool pool(pager.get(), kPoolFrames);
    BPlusTree tree = BPlusTree::Open(&pool, root);
    for (int i = 0; i < kKeys; ++i) {
      auto value = tree.Get(WideKey(i));
      ASSERT_TRUE(value.ok()) << "key " << i << ": " << value.status();
      EXPECT_EQ(*value, ValueOf(i));
    }
  }
  std::filesystem::remove(path);
}

TEST(BufferPoolPressureTest, EvictionErrorMidSplitLeavesTreeIntact) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (-DFM_FAILPOINTS=OFF)";
  }
  Failpoints::Global().Reset();
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), kPoolFrames);
  const CounterDelta evictions("bufferpool.evictions");
  auto tree_or = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree_or.ok());
  BPlusTree tree = *tree_or;

  // Grow the tree until evictions are happening, then make the next
  // dirty writeback fail and keep inserting until something trips.
  int inserted = 0;
  for (; inserted < kKeys / 2; ++inserted) {
    ASSERT_TRUE(tree.Put(WideKey(inserted), ValueOf(inserted)).ok());
  }
  ASSERT_GT(evictions.value(), 0u);

  FailpointSpec spec;
  spec.action = Action::kError;
  Failpoints::Global().Arm("bufferpool.evict_dirty", spec);
  int failed_key = -1;
  for (int i = inserted; i < kKeys; ++i) {
    const Status s = tree.Put(WideKey(i), ValueOf(i));
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError()) << s;
      failed_key = i;
      break;
    }
    ++inserted;
  }
  ASSERT_GE(failed_key, 0) << "armed eviction failpoint never fired";
  Failpoints::Global().DisarmAll();

  // The failed Put must not have corrupted the tree: every successful
  // key still reads back, and the retry of the failed key succeeds.
  for (int i = 0; i < inserted; ++i) {
    auto value = tree.Get(WideKey(i));
    ASSERT_TRUE(value.ok()) << "key " << i << ": " << value.status();
    EXPECT_EQ(*value, ValueOf(i));
  }
  ASSERT_TRUE(tree.Put(WideKey(failed_key), ValueOf(failed_key)).ok());
  auto retried = tree.Get(WideKey(failed_key));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, ValueOf(failed_key));
  Failpoints::Global().Reset();
}

}  // namespace
}  // namespace fuzzymatch
