#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "fault/faulty_env.h"
#include "obs/metrics.h"

namespace fuzzymatch {

namespace {

obs::Counter& AppendsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.appends");
  return *c;
}

obs::Counter& CommitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.commits");
  return *c;
}

obs::Counter& FsyncsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  return *c;
}

obs::Counter& BytesWrittenCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.bytes_written");
  return *c;
}

obs::Counter& UndoRecordsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.undo_records");
  return *c;
}

obs::Counter& TruncatesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.truncates");
  return *c;
}

obs::Counter& ReplayRecordsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_records");
  return *c;
}

obs::Counter& ReplayPagesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_pages");
  return *c;
}

obs::Counter& ReplayUndoCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_undo");
  return *c;
}

obs::Counter& TornTailBytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.torn_tail_bytes");
  return *c;
}

obs::Gauge& ReplaySecondsGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("wal.replay_seconds");
  return *g;
}

obs::Histogram& GroupSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "wal.group_commit_size", obs::HistogramOptions{1.0, 2.0, 10});
  return *h;
}

void TouchWalMetrics() {
  AppendsCounter();
  CommitsCounter();
  FsyncsCounter();
  BytesWrittenCounter();
  UndoRecordsCounter();
  TruncatesCounter();
  ReplayRecordsCounter();
  ReplayPagesCounter();
  ReplayUndoCounter();
  TornTailBytesCounter();
  ReplaySecondsGauge();
  GroupSizeHistogram();
}

// CRC-32 (reflected, polynomial 0xEDB88320) over the record payload.
uint32_t Crc32(const char* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// How long the group-commit leader waits for followers to join its
// batch before flushing (kGroup mode only).
constexpr std::chrono::microseconds kGroupWindow{100};

// Record payload sizes: type(1) + lsn(8) + body.
constexpr size_t kImagePayloadSize = 1 + 8 + 4 + kPageSize;
constexpr size_t kCommitPayloadSize = 1 + 8 + 4;
constexpr size_t kFrameOverhead = 8;  // crc(4) + len(4)

std::string EncodeHeader(uint64_t db_id, uint64_t start_lsn) {
  std::string h;
  PutU32(&h, Wal::kMagic);
  PutU32(&h, Wal::kVersion);
  PutU64(&h, db_id);
  PutU64(&h, start_lsn);
  return h;
}

}  // namespace

Result<WalFsyncMode> ParseWalFsyncMode(std::string_view s) {
  if (s == "always") return WalFsyncMode::kAlways;
  if (s == "group") return WalFsyncMode::kGroup;
  if (s == "never") return WalFsyncMode::kNever;
  return Status::InvalidArgument(
      StringPrintf("bad wal fsync mode '%.*s' (always|group|never)",
                   static_cast<int>(s.size()), s.data()));
}

std::string_view WalFsyncModeName(WalFsyncMode mode) {
  switch (mode) {
    case WalFsyncMode::kAlways:
      return "always";
    case WalFsyncMode::kGroup:
      return "group";
    case WalFsyncMode::kNever:
      return "never";
  }
  return "unknown";
}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort drain; a failure here means the process is crashing
    // anyway and recovery will see exactly the flushed prefix.
    const Status s = Sync();
    if (!s.ok()) {
      FM_LOG(Warning) << "wal drain on close failed: " << s;
    }
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       uint64_t db_id, uint64_t start_lsn,
                                       WalFsyncMode fsync_mode) {
  TouchWalMetrics();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->fd_ = fd;
  wal->path_ = path;
  wal->db_id_ = db_id;
  wal->fsync_mode_ = fsync_mode;
  FM_RETURN_IF_ERROR(wal->Truncate(start_lsn));
  return wal;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Wal::flushed_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_lsn_;
}

void Wal::AppendRecordLocked_(uint8_t type, uint64_t lsn, PageId page_id,
                              const char* image) {
  std::string payload;
  payload.reserve(type == kRecCommit ? kCommitPayloadSize : kImagePayloadSize);
  payload.push_back(static_cast<char>(type));
  PutU64(&payload, lsn);
  PutU32(&payload, page_id);
  if (type != kRecCommit) {
    payload.append(image, kPageSize);
  }
  PutU32(&buf_, Crc32(payload.data(), payload.size()));
  PutU32(&buf_, static_cast<uint32_t>(payload.size()));
  buf_.append(payload);
  appended_lsn_ = lsn;
  AppendsCounter().Increment();
}

Status Wal::WriteAndSync_(const std::string& data, uint64_t offset,
                          bool do_fsync) {
  FM_FAIL_POINT("wal.append");
  size_t admitted = data.size();
#if FM_FAILPOINTS_ENABLED
  // Simulated power loss. Unlike Pager::Sync, the WAL reports the loss:
  // an op whose commit record never reached the platter must not be
  // acknowledged, so the error has to unwind to the committer.
  admitted = fault::FileFaults::Global().AdmitWrite(data.size());
#endif
  size_t done = 0;
  while (done < admitted) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, admitted - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StringPrintf("wal pwrite: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  if (admitted < data.size()) {
    return Status::IOError("wal write lost (simulated crash)");
  }
  BytesWrittenCounter().Increment(data.size());
  if (!do_fsync) {
    return Status::OK();
  }
#if FM_FAILPOINTS_ENABLED
  {
    const Status fp = fault::Failpoints::Global().Hit("wal.fsync");
    const bool sync_lost =
        !fp.ok() || !fault::FileFaults::Global().AdmitSync();
    if (sync_lost) {
      if (fault::FileFaults::Global().crashed()) {
        // Power died at the fsync: the bytes this flush pwrote were
        // still in the page cache and never reached the platter. The
        // log is append-only, so cutting them off models that exactly.
        (void)::ftruncate(fd_, static_cast<off_t>(offset));
      }
      return fp.ok() ? Status::IOError("wal fsync lost (simulated crash)")
                     : fp;
    }
  }
#endif
  if (::fsync(fd_) != 0) {
    return Status::IOError(
        StringPrintf("wal fsync: %s", std::strerror(errno)));
  }
  FsyncsCounter().Increment();
  return Status::OK();
}

Status Wal::WaitDurable_(std::unique_lock<std::mutex>& lock, uint64_t lsn,
                         bool force_fsync) {
  while (flushed_lsn_ < lsn) {
    if (flushing_) {
      cv_.wait(lock);
      continue;
    }
    // Become the leader. In group mode, wait a short window with the lock
    // dropped so concurrent committers can append into the batch.
    flushing_ = true;
    if (fsync_mode_ == WalFsyncMode::kGroup) {
      lock.unlock();
      std::this_thread::sleep_for(kGroupWindow);
      lock.lock();
    }
    std::string batch;
    batch.swap(buf_);
    const uint64_t target = appended_lsn_;
    const uint64_t offset = file_size_;
    const size_t commits = pending_commits_;
    pending_commits_ = 0;
    lock.unlock();
    const bool do_fsync =
        force_fsync || fsync_mode_ != WalFsyncMode::kNever;
    const Status s = WriteAndSync_(batch, offset, do_fsync);
    lock.lock();
    flushing_ = false;
    if (!s.ok()) {
      // Roll the batch back in front of anything appended meanwhile so a
      // retry rewrites the same offsets; nothing in it was acknowledged.
      buf_.insert(0, batch);
      pending_commits_ += commits;
      cv_.notify_all();
      return s;
    }
    file_size_ = offset + batch.size();
    flushed_lsn_ = target;
    if (commits > 0) {
      GroupSizeHistogram().Observe(static_cast<double>(commits));
    }
    cv_.notify_all();
  }
  return Status::OK();
}

Result<uint64_t> Wal::CommitPages(
    const std::vector<std::pair<PageId, const char*>>& pages) {
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& [page_id, image] : pages) {
    AppendRecordLocked_(kRecPageImage, next_lsn_++, page_id, image);
  }
  const uint64_t commit_lsn = next_lsn_++;
  AppendRecordLocked_(kRecCommit, commit_lsn,
                      static_cast<PageId>(pages.size()), nullptr);
  ++pending_commits_;
  FM_RETURN_IF_ERROR(WaitDurable_(lock, commit_lsn, /*force_fsync=*/false));
  CommitsCounter().Increment();
  return commit_lsn;
}

Status Wal::AppendUndo(PageId id, const char* image) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t lsn = next_lsn_++;
  AppendRecordLocked_(kRecUndoImage, lsn, id, image);
  UndoRecordsCounter().Increment();
  // A steal must be durable in the log before the page hits the main
  // file, whatever the fsync mode — this is the no-force/steal contract.
  return WaitDurable_(lock, lsn, /*force_fsync=*/true);
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  FM_RETURN_IF_ERROR(WaitDurable_(lock, appended_lsn_, /*force_fsync=*/true));
  // In kNever mode flushes advance flushed_lsn_ without touching the
  // platter, so WaitDurable_ may have found nothing to do; the drain's
  // promise is an fsync regardless, issued here as an empty flush.
  const uint64_t offset = file_size_;
  lock.unlock();
  return WriteAndSync_(std::string(), offset, /*do_fsync=*/true);
}

Status Wal::Truncate(uint64_t start_lsn) {
  FM_FAIL_POINT("wal.truncate");
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce any in-flight flush; committed content is now covered by the
  // main file (the caller checkpointed), so losing the rest is fine.
  while (flushing_) {
    cv_.wait(lock);
  }
#if FM_FAILPOINTS_ENABLED
  if (fault::FileFaults::Global().crashed()) {
    return Status::IOError("wal truncate lost (simulated crash)");
  }
#endif
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError(
        StringPrintf("wal ftruncate: %s", std::strerror(errno)));
  }
  buf_.clear();
  pending_commits_ = 0;
  file_size_ = 0;
  next_lsn_ = start_lsn;
  appended_lsn_ = start_lsn == 0 ? 0 : start_lsn - 1;
  flushed_lsn_ = appended_lsn_;
  const std::string header = EncodeHeader(db_id_, start_lsn);
  size_t done = 0;
  while (done < header.size()) {
    const ssize_t n = ::pwrite(fd_, header.data() + done,
                               header.size() - done, done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StringPrintf("wal header pwrite: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(
        StringPrintf("wal header fsync: %s", std::strerror(errno)));
  }
  file_size_ = header.size();
  TruncatesCounter().Increment();
  return Status::OK();
}

Result<Wal::ReplayStats> Wal::Replay(const std::string& path, uint64_t db_id,
                                     uint64_t checkpoint_lsn, Pager* pager) {
  TouchWalMetrics();
  const auto t0 = std::chrono::steady_clock::now();
  ReplayStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return stats;  // no log: nothing to recover
    }
    return Status::IOError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  std::string content;
  {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError(
            StringPrintf("read %s: %s", path.c_str(), std::strerror(errno)));
      }
      if (n == 0) break;
      content.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);

  if (content.size() < kHeaderSize || ReadU32(content.data()) != kMagic ||
      ReadU32(content.data() + 4) != kVersion) {
    if (!content.empty()) {
      FM_LOG(Warning) << "wal " << path << ": malformed header, ignoring";
    }
    return stats;
  }
  stats.log_present = true;
  const uint64_t log_db_id = ReadU64(content.data() + 8);
  const uint64_t log_start_lsn = ReadU64(content.data() + 16);
  if (log_db_id != db_id || log_start_lsn != checkpoint_lsn) {
    FM_LOG(Warning) << "wal " << path << ": stale log (db id or checkpoint "
                    << "lsn mismatch), ignoring";
    return stats;
  }
  stats.identity_match = true;

  // Scan: collect the last committed after-image and the newest
  // before-image per page. A CRC or framing failure is a torn tail —
  // everything from there on was never acknowledged.
  struct Image {
    uint64_t lsn = 0;
    const char* data = nullptr;
  };
  std::map<PageId, Image> committed;
  std::map<PageId, Image> undo;
  std::vector<std::pair<PageId, Image>> pending;  // current txn's images
  uint64_t last_lsn = log_start_lsn == 0 ? 0 : log_start_lsn - 1;
  size_t off = kHeaderSize;
  for (;;) {
    if (off == content.size()) break;
    if (content.size() - off < kFrameOverhead) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const uint32_t crc = ReadU32(content.data() + off);
    const uint32_t len = ReadU32(content.data() + off + 4);
    if (len < kCommitPayloadSize || len > kImagePayloadSize ||
        content.size() - off - kFrameOverhead < len) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const char* payload = content.data() + off + kFrameOverhead;
    if (Crc32(payload, len) != crc) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const uint8_t type = static_cast<uint8_t>(payload[0]);
    const uint64_t lsn = ReadU64(payload + 1);
    if (lsn <= last_lsn ||
        (type != kRecCommit && len != kImagePayloadSize) ||
        (type == kRecCommit && len != kCommitPayloadSize) ||
        (type != kRecPageImage && type != kRecUndoImage &&
         type != kRecCommit)) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    last_lsn = lsn;
    ++stats.records_scanned;
    const PageId page_id = ReadU32(payload + 9);
    switch (type) {
      case kRecPageImage:
        pending.emplace_back(page_id, Image{lsn, payload + 13});
        break;
      case kRecUndoImage: {
        Image& u = undo[page_id];
        if (lsn > u.lsn) u = Image{lsn, payload + 13};
        break;
      }
      case kRecCommit:
        for (const auto& [pid, img] : pending) {
          committed[pid] = img;
        }
        pending.clear();
        ++stats.commits_applied;
        break;
    }
    off += kFrameOverhead + len;
  }
  // Images from a transaction whose commit record is missing are not
  // applied; `pending` is dropped here.

  // Redo the committed after-images (unconditionally: each is a full
  // page), then put back before-images of steals no committed image
  // supersedes.
  for (const auto& [pid, img] : committed) {
    FM_FAIL_POINT("wal.replay");
    FM_RETURN_IF_ERROR(pager->EnsureCapacity(pid));
    FM_RETURN_IF_ERROR(pager->WritePage(pid, img.data));
    ++stats.pages_applied;
  }
  for (const auto& [pid, img] : undo) {
    const auto it = committed.find(pid);
    if (it != committed.end() && it->second.lsn > img.lsn) {
      continue;  // a later committed image wins
    }
    FM_FAIL_POINT("wal.replay");
    FM_RETURN_IF_ERROR(pager->EnsureCapacity(pid));
    FM_RETURN_IF_ERROR(pager->WritePage(pid, img.data));
    ++stats.undo_applied;
  }
  stats.next_lsn = last_lsn + 1;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ReplayRecordsCounter().Increment(stats.records_scanned);
  ReplayPagesCounter().Increment(stats.pages_applied);
  ReplayUndoCounter().Increment(stats.undo_applied);
  TornTailBytesCounter().Increment(stats.torn_bytes);
  ReplaySecondsGauge().Set(stats.seconds);
  if (stats.commits_applied > 0 || stats.torn_bytes > 0) {
    FM_LOG(Info) << "wal replay: " << stats.commits_applied << " commits, "
                 << stats.pages_applied << " pages, " << stats.undo_applied
                 << " undo images, " << stats.torn_bytes
                 << " torn tail bytes in " << stats.seconds << "s";
  }
  return stats;
}

}  // namespace fuzzymatch
