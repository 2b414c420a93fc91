// Unit tests for the write-ahead log: on-disk framing, torn-tail
// discard, identity guard, undo/redo precedence, group commit under
// concurrency, and the fsync-mode knob. Crash-schedule coverage (kill at
// every failpoint, recover, compare against the acknowledged prefix)
// lives in tests/fault/wal_recovery_test.cc.

#include "storage/wal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace fuzzymatch {
namespace {

constexpr uint64_t kDbId = 0x00c0ffee12345678ull;

// Frame sizes implied by the record layout (crc + len + payload).
constexpr size_t kImageFrame = 8 + 1 + 8 + 4 + kPageSize;
constexpr size_t kCommitFrame = 8 + 1 + 8 + 4;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/fm_wal_" + name + "_" +
         std::to_string(::getpid()) + ".wal";
}

std::vector<char> MakeImage(char fill) {
  std::vector<char> image(kPageSize, fill);
  Page(image.data()).Init(PageType::kHeap);
  // Distinguishable payload beyond the header.
  for (size_t i = Page::kHeaderSize; i < kPageSize; ++i) {
    image[i] = static_cast<char>(fill + (i % 7));
  }
  return image;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::unique_ptr<Wal> OpenWal(uint64_t start_lsn = 1,
                               WalFsyncMode mode = WalFsyncMode::kGroup) {
    auto wal = Wal::Open(path_, kDbId, start_lsn, mode);
    EXPECT_TRUE(wal.ok()) << wal.status();
    return std::move(*wal);
  }

  std::string path_;
};

TEST(WalFsyncModeTest, ParseAndNameRoundTrip) {
  for (const auto mode : {WalFsyncMode::kAlways, WalFsyncMode::kGroup,
                          WalFsyncMode::kNever}) {
    auto parsed = ParseWalFsyncMode(WalFsyncModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_TRUE(ParseWalFsyncMode("sometimes").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWalFsyncMode("").status().IsInvalidArgument());
}

TEST_F(WalTest, OpenWritesHeaderOnly) {
  auto wal = OpenWal(/*start_lsn=*/5);
  EXPECT_EQ(std::filesystem::file_size(path_), Wal::kHeaderSize);
  EXPECT_EQ(wal->next_lsn(), 5u);
  const std::string header = ReadFileBytes(path_);
  uint32_t magic, version;
  uint64_t db_id, start_lsn;
  std::memcpy(&magic, header.data(), 4);
  std::memcpy(&version, header.data() + 4, 4);
  std::memcpy(&db_id, header.data() + 8, 8);
  std::memcpy(&start_lsn, header.data() + 16, 8);
  EXPECT_EQ(magic, Wal::kMagic);
  EXPECT_EQ(version, Wal::kVersion);
  EXPECT_EQ(db_id, kDbId);
  EXPECT_EQ(start_lsn, 5u);
}

TEST_F(WalTest, CommitReplayRoundTrip) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    auto lsn = wal->CommitPages({{0, img0.data()}, {1, img1.data()}});
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, 3u);  // two image LSNs, then the commit record
    EXPECT_EQ(wal->flushed_lsn(), 3u);
  }

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, /*checkpoint_lsn=*/1, pager.get());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->log_present);
  EXPECT_TRUE(stats->identity_match);
  EXPECT_EQ(stats->records_scanned, 3u);
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->pages_applied, 2u);
  EXPECT_EQ(stats->undo_applied, 0u);
  EXPECT_EQ(stats->torn_bytes, 0u);
  EXPECT_EQ(stats->next_lsn, 4u);

  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
  ASSERT_TRUE(pager->ReadPage(1, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img1.data(), kPageSize), 0);
}

TEST_F(WalTest, MissingLogIsEmptyStats) {
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->log_present);
  EXPECT_EQ(stats->next_lsn, 0u);
}

TEST_F(WalTest, StaleIdentityIsIgnored) {
  auto img = MakeImage('s');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
  }
  auto pager = Pager::OpenInMemory();
  // Wrong database id: the log belongs to another history.
  auto stats = Wal::Replay(path_, kDbId + 1, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->log_present);
  EXPECT_FALSE(stats->identity_match);
  EXPECT_EQ(stats->pages_applied, 0u);
  EXPECT_EQ(pager->page_count(), 0u);
  // Right id, wrong checkpoint LSN: the main file moved on without us.
  stats = Wal::Replay(path_, kDbId, /*checkpoint_lsn=*/9, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->log_present);
  EXPECT_FALSE(stats->identity_match);
  EXPECT_EQ(pager->page_count(), 0u);
}

TEST_F(WalTest, TornCommitRecordDropsTheTransaction) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
  }
  // Cut txn2's commit record in half: its image is intact on disk but
  // the transaction never became durable.
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  const size_t cut = txn1_end + kImageFrame + kCommitFrame / 2;
  std::filesystem::resize_file(path_, cut);

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->pages_applied, 1u);
  EXPECT_GT(stats->torn_bytes, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0)
      << "uncommitted after-image must not be applied";
}

TEST_F(WalTest, TornImageDropsTheTail) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
  }
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  std::filesystem::resize_file(path_, txn1_end + kImageFrame / 3);

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->torn_bytes, kImageFrame / 3);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
}

TEST_F(WalTest, CorruptRecordDiscardsEverythingAfterIt) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  auto img2 = MakeImage('c');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img2.data()}}).ok());
  }
  // Flip one byte inside txn2's page image: its CRC no longer matches,
  // so txn2 AND the (physically intact) txn3 behind it are discarded —
  // the log's committed prefix ends at the corruption.
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(txn1_end + 100));
    const char x = '\xee';
    f.write(&x, 1);
  }
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_GT(stats->torn_bytes, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
}

TEST_F(WalTest, CommittedImageSupersedesEarlierUndo) {
  auto before = MakeImage('u');
  auto after = MakeImage('v');
  {
    auto wal = OpenWal();
    // The steal order: undo image durable first, then the transaction
    // commits the page's after-image.
    ASSERT_TRUE(wal->AppendUndo(0, before.data()).ok());
    ASSERT_TRUE(wal->CommitPages({{0, after.data()}}).ok());
  }
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pages_applied, 1u);
  EXPECT_EQ(stats->undo_applied, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), after.data(), kPageSize), 0);
}

TEST_F(WalTest, UncommittedStealIsRolledBack) {
  auto committed = MakeImage('v');
  auto before = MakeImage('u');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, committed.data()}}).ok());
    // A later transaction dirties page 0 and gets stolen (before-image
    // logged, page written to the main file), then the crash comes
    // before its commit: replay must restore the before-image.
    ASSERT_TRUE(wal->AppendUndo(0, before.data()).ok());
  }
  auto pager = Pager::OpenInMemory();
  // Simulate the steal having reached the main file.
  ASSERT_TRUE(pager->EnsureCapacity(0).ok());
  auto dirty = MakeImage('x');
  ASSERT_TRUE(pager->WritePage(0, dirty.data()).ok());

  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pages_applied, 1u);
  EXPECT_EQ(stats->undo_applied, 1u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), before.data(), kPageSize), 0)
      << "uncommitted steal must be rolled back to its before-image";
}

TEST_F(WalTest, ReplayLeavesTheLogUntouchedAndIsIdempotent) {
  auto img = MakeImage('r');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{1, img.data()}}).ok());
  }
  const std::string log_before = ReadFileBytes(path_);
  auto pager = Pager::OpenInMemory();
  ASSERT_TRUE(Wal::Replay(path_, kDbId, 1, pager.get()).ok());
  ASSERT_TRUE(Wal::Replay(path_, kDbId, 1, pager.get()).ok());
  EXPECT_EQ(ReadFileBytes(path_), log_before);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(1, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), kPageSize), 0);
}

TEST_F(WalTest, TruncateResetsToEmptyLog) {
  auto img = MakeImage('t');
  auto wal = OpenWal();
  ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
  EXPECT_GT(std::filesystem::file_size(path_), Wal::kHeaderSize);
  ASSERT_TRUE(wal->Truncate(/*start_lsn=*/17).ok());
  EXPECT_EQ(std::filesystem::file_size(path_), Wal::kHeaderSize);
  EXPECT_EQ(wal->next_lsn(), 17u);
  // The truncated log replays as empty at the new checkpoint LSN.
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 17, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->identity_match);
  EXPECT_EQ(stats->records_scanned, 0u);
  // And a pre-truncation checkpoint LSN no longer matches.
  stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->identity_match);
}

TEST_F(WalTest, FsyncModeControlsSyncsPerCommit) {
  auto& fsyncs = *obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  auto img = MakeImage('f');
  {
    auto wal = OpenWal(1, WalFsyncMode::kAlways);
    const uint64_t before = fsyncs.value();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
    EXPECT_GT(fsyncs.value(), before);
  }
  std::filesystem::remove(path_);
  {
    auto wal = OpenWal(1, WalFsyncMode::kNever);
    const uint64_t before = fsyncs.value();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
    EXPECT_EQ(fsyncs.value(), before);
    // The shutdown drain fsyncs even in kNever mode.
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_GT(fsyncs.value(), before);
  }
}

TEST_F(WalTest, GroupCommitUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 4;
  auto wal = OpenWal(1, WalFsyncMode::kGroup);

  std::vector<std::vector<char>> images;
  for (int i = 0; i < kThreads; ++i) {
    images.push_back(MakeImage(static_cast<char>('A' + i)));
  }
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto lsn = wal->CommitPages(
            {{static_cast<PageId>(t), images[t].data()}});
        ASSERT_TRUE(lsn.ok()) << lsn.status();
        lsns[t].push_back(*lsn);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every commit got a distinct LSN, all durable by the time it returned.
  std::set<uint64_t> all;
  uint64_t max_lsn = 0;
  for (const auto& per_thread : lsns) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kCommitsPerThread));
    EXPECT_TRUE(std::is_sorted(per_thread.begin(), per_thread.end()));
    for (const uint64_t lsn : per_thread) {
      EXPECT_TRUE(all.insert(lsn).second) << "duplicate commit LSN " << lsn;
      max_lsn = std::max(max_lsn, lsn);
    }
  }
  EXPECT_GE(wal->flushed_lsn(), max_lsn);

  // The log replays cleanly: every commit record landed whole.
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(stats->torn_bytes, 0u);
  EXPECT_EQ(stats->pages_applied, static_cast<uint64_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    std::vector<char> got(kPageSize);
    ASSERT_TRUE(pager->ReadPage(static_cast<PageId>(t), got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), images[t].data(), kPageSize), 0);
  }
}

}  // namespace
}  // namespace fuzzymatch
