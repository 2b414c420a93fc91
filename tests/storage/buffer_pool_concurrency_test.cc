// Concurrent-reader tests for the BufferPool's shared-read latch: many
// threads fetching overlapping page sets through a pool small enough to
// force constant eviction churn. Under -DFM_SANITIZE=thread this is the
// storage layer's primary race probe.

#include "storage/buffer_pool.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/counter_delta.h"

namespace fuzzymatch {
namespace {

using test_support::CounterDelta;

/// Seeds `pages` pages, each tagged with its own id, through `pool`.
void SeedPages(BufferPool* pool, uint32_t pages) {
  for (uint32_t i = 0; i < pages; ++i) {
    auto guard = pool->New();
    ASSERT_TRUE(guard.ok());
    std::memcpy(guard->data(), &i, sizeof(i));
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool->FlushAll().ok());
}

TEST(BufferPoolConcurrencyTest, ConcurrentReadersUnderEvictionChurn) {
  auto pager = Pager::OpenInMemory();
  constexpr uint32_t kPages = 64;
  // 8 frames for 64 pages: most fetches miss and evict.
  BufferPool pool(pager.get(), 8);
  SeedPages(&pool, kPages);
  const CounterDelta evictions("bufferpool.evictions");

  constexpr size_t kThreads = 8;
  constexpr size_t kFetchesPerThread = 500;
  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        const uint32_t page =
            static_cast<uint32_t>((t * 131 + i * 17) % kPages);
        auto guard = pool.Fetch(page);
        if (!guard.ok()) {
          // All frames transiently pinned is legal; a lost page is not.
          if (!guard.status().IsResourceExhausted()) {
            failed.fetch_add(1);
          }
          continue;
        }
        uint32_t tag;
        std::memcpy(&tag, guard->data(), sizeof(tag));
        if (tag != page) {
          corrupt.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(corrupt.load(), 0u) << "a reader saw another page's bytes";
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(evictions.value(), 0u) << "the test must actually churn";
}

TEST(BufferPoolConcurrencyTest, PinnedPageStaysStableWhileOthersEvict) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 4);
  SeedPages(&pool, 32);

  // One thread holds page 0 pinned and re-reads it; others churn the
  // remaining frames. The pinned frame's buffer must never move or be
  // reused under the reader.
  auto pinned = pool.Fetch(0);
  ASSERT_TRUE(pinned.ok());
  const char* stable_data = pinned->data();

  std::vector<std::thread> churners;
  for (size_t t = 0; t < 4; ++t) {
    churners.emplace_back([&, t] {
      for (size_t i = 0; i < 400; ++i) {
        (void)pool.Fetch(static_cast<uint32_t>(1 + (t * 7 + i) % 31));
      }
    });
  }
  std::atomic<uint64_t> corrupt{0};
  std::thread reader([&] {
    for (size_t i = 0; i < 1000; ++i) {
      uint32_t tag;
      std::memcpy(&tag, pinned->data(), sizeof(tag));
      if (tag != 0 || pinned->data() != stable_data) {
        corrupt.fetch_add(1);
      }
    }
  });
  for (std::thread& t : churners) {
    t.join();
  }
  reader.join();
  EXPECT_EQ(corrupt.load(), 0u);
}

TEST(BufferPoolConcurrencyTest, StatisticsAreConsistentUnderThreads) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 16);
  SeedPages(&pool, 16);  // everything fits: all fetches hit

  constexpr size_t kThreads = 4;
  constexpr size_t kFetches = 250;
  const CounterDelta hits("bufferpool.hits");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kFetches; ++i) {
        auto guard = pool.Fetch(static_cast<uint32_t>(i % 16));
        ASSERT_TRUE(guard.ok());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(hits.value(), kThreads * kFetches)
      << "hit counter dropped increments under concurrency";
}

}  // namespace
}  // namespace fuzzymatch
