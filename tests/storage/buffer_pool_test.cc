#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

using test_support::CounterDelta;

TEST(BufferPoolTest, NewPageIsZeroedAndPinned) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 4);
  auto guard = pool.New();
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page_id(), 0u);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(guard->data()[i], 0);
  }
}

TEST(BufferPoolTest, FetchHitsCache) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 4);
  const CounterDelta hits("bufferpool.hits");
  const CounterDelta misses("bufferpool.misses");
  {
    auto guard = pool.New();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = 'a';
    guard->MarkDirty();
  }
  auto g1 = pool.Fetch(0);
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(g1->data()[0], 'a');
  EXPECT_EQ(hits.value(), 1u);
  EXPECT_EQ(misses.value(), 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  const CounterDelta evictions("bufferpool.evictions");
  // Create 3 pages through a 2-frame pool; page 0 must be evicted.
  for (int i = 0; i < 3; ++i) {
    auto guard = pool.New();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<char>('a' + i);
    guard->MarkDirty();
  }
  EXPECT_GE(evictions.value(), 1u);
  // Re-fetch page 0: contents must have survived via the pager.
  auto g = pool.Fetch(0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->data()[0], 'a');
}

TEST(BufferPoolTest, AllFramesPinnedFailsGracefully) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto g0 = pool.New();
  auto g1 = pool.New();
  ASSERT_TRUE(g0.ok() && g1.ok());
  auto g2 = pool.New();
  EXPECT_FALSE(g2.ok());
  EXPECT_TRUE(g2.status().IsResourceExhausted());
  // Releasing a pin frees a frame.
  g0->Release();
  auto g3 = pool.New();
  EXPECT_TRUE(g3.ok());
}

TEST(BufferPoolTest, PinCountsAllowMultipleGuards) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto g0 = pool.New();
  ASSERT_TRUE(g0.ok());
  auto g0b = pool.Fetch(0);
  ASSERT_TRUE(g0b.ok());
  g0->Release();
  // Still pinned by g0b: filling the pool with one more page then asking
  // for another must fail rather than evict page 0.
  auto g1 = pool.New();
  ASSERT_TRUE(g1.ok());
  auto g2 = pool.New();
  EXPECT_FALSE(g2.ok());
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 4);
  {
    auto guard = pool.New();
    ASSERT_TRUE(guard.ok());
    guard->data()[7] = 'z';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // Read through the pager directly, bypassing the pool.
  std::vector<char> buf(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf[7], 'z');
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  for (int i = 0; i < 3; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
  }
  // Pages 0 and 1: 0 was evicted for page 2 (LRU). Frames now hold {1, 2}.
  const CounterDelta misses("bufferpool.misses");
  auto g1 = pool.Fetch(1);
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(misses.value(), 0u) << "page 1 should still be cached";
  auto g0 = pool.Fetch(0);
  ASSERT_TRUE(g0.ok());
  EXPECT_EQ(misses.value(), 1u) << "page 0 was evicted";
}

TEST(BufferPoolTest, MoveSemanticsOfGuard) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto g = pool.New();
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(*g);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(g->valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
  // Frame is free again.
  auto g2 = pool.New();
  auto g3 = pool.New();
  EXPECT_TRUE(g2.ok());
  EXPECT_TRUE(g3.ok());
}

TEST(BufferPoolTest, PageViewThroughGuard) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto g = pool.New();
  ASSERT_TRUE(g.ok());
  g->page().Init(PageType::kHeap);
  g->page().Insert("record");
  g->MarkDirty();
  EXPECT_EQ(*g->page().Get(0), "record");
}

}  // namespace
}  // namespace fuzzymatch
