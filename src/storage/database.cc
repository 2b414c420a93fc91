#include "storage/database.h"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/varint.h"
#include "fault/failpoint.h"

namespace fuzzymatch {

namespace {

constexpr uint32_t kCatalogMagic = 0x464d4442;  // "FMDB"
constexpr PageId kCatalogPage = 0;
// Catalog page layout after the page header:
//   magic(4) blob_len(4) db_id(8) checkpoint_lsn(8) blob
constexpr size_t kCatalogPrefix = 24;

uint64_t MintDbId() {
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return id == 0 ? 1 : id;
}

std::string WalPathFor(const std::string& db_path) {
  return db_path + ".wal";
}

// Reads the identity fields straight from page 0 of an unopened store,
// before the buffer pool exists (replay must run before any caching).
bool ReadIdentityRaw(Pager* pager, uint64_t* db_id, uint64_t* ckpt_lsn) {
  if (pager->page_count() == 0) {
    return false;
  }
  std::vector<char> buf(kPageSize);
  if (!pager->ReadPage(kCatalogPage, buf.data()).ok()) {
    return false;
  }
  const char* p = buf.data() + Page::kHeaderSize;
  uint32_t magic;
  std::memcpy(&magic, p, 4);
  if (magic != kCatalogMagic) {
    return false;
  }
  std::memcpy(db_id, p + 8, 8);
  std::memcpy(ckpt_lsn, p + 16, 8);
  return true;
}

void PutString(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string> GetString(std::string_view* in) {
  FM_ASSIGN_OR_RETURN(const uint64_t len, GetVarint64(in));
  if (in->size() < len) {
    return Status::Corruption("truncated catalog string");
  }
  std::string out(in->substr(0, len));
  in->remove_prefix(len);
  return out;
}

}  // namespace

Database::~Database() {
  // pool_ can be null when Open() failed before constructing it (e.g. a
  // crash injected during log replay) and the half-built db unwinds.
  if (pager_ && pool_ && pager_->is_file_backed()) {
    // Best-effort durability on clean shutdown.
    const Status s = Checkpoint();
    if (!s.ok()) {
      FM_LOG(Warning) << "checkpoint on close failed: " << s;
    }
  }
  // The WAL must close (draining its buffer) before the pager goes away.
  wal_.reset();
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->path_ = options.path;
  const bool fresh_memory = options.path.empty();
  bool fresh_file = false;
  if (fresh_memory) {
    db->pager_ = Pager::OpenInMemory();
  } else {
    FM_ASSIGN_OR_RETURN(db->pager_, Pager::OpenFile(options.path));
    fresh_file = db->pager_->page_count() == 0;
  }

  if (!fresh_memory && !fresh_file) {
    // Recovery: redo the committed log prefix onto the raw pager, before
    // the buffer pool can cache stale pages. The identity guard inside
    // Replay() discards a log that does not belong to this exact file
    // state (e.g. a stale .wal next to a restored backup copy).
    uint64_t db_id = 0;
    uint64_t ckpt_lsn = 0;
    if (ReadIdentityRaw(db->pager_.get(), &db_id, &ckpt_lsn)) {
      FM_ASSIGN_OR_RETURN(
          db->replay_stats_,
          Wal::Replay(WalPathFor(options.path), db_id, ckpt_lsn,
                      db->pager_.get()));
      if (db->replay_stats_.pages_applied + db->replay_stats_.undo_applied >
          0) {
        // Replayed pages must be durable before the log is reset below.
        FM_RETURN_IF_ERROR(db->pager_->Sync());
      }
    }
  }

  db->pool_ =
      std::make_unique<BufferPool>(db->pager_.get(), options.pool_pages);

  if (fresh_memory || fresh_file) {
    // Reserve page 0 for the catalog.
    FM_ASSIGN_OR_RETURN(PageGuard guard, db->pool_->New());
    if (guard.page_id() != kCatalogPage) {
      return Status::Internal("catalog page is not page 0");
    }
    guard.page().Init(PageType::kMeta);
    guard.MarkDirty();
    db->db_id_ = MintDbId();
    FM_RETURN_IF_ERROR(db->SaveCatalog());
  } else {
    FM_RETURN_IF_ERROR(db->LoadCatalog());
    db->SweepRebuildOrphans();
  }

  if (!fresh_memory) {
    const uint64_t start_lsn =
        std::max(db->replay_stats_.next_lsn, db->checkpoint_lsn_);
    FM_ASSIGN_OR_RETURN(
        db->wal_,
        Wal::Open(WalPathFor(options.path), db->db_id_, start_lsn,
                  options.wal_fsync));
    db->pool_->SetWal(db->wal_.get());
    db->checkpoint_lsn_ = start_lsn;
    // Re-establish the invariant `catalog checkpoint_lsn == log start`:
    // the log was just reset (its old content is durable in the main
    // file), so the catalog must say so before any new commit.
    FM_RETURN_IF_ERROR(db->Checkpoint());
    db->SweepTempFiles();
  }
  return db;
}

Status Database::SaveCatalog() {
  std::string blob;
  PutVarint64(&blob, tables_.size());
  for (const auto& [name, table] : tables_) {
    PutString(&blob, name);
    table->schema_.EncodeTo(&blob);
    PutVarint64(&blob, table->heap_.first_page());
    PutVarint64(&blob, table->tid_index_.root());
    PutVarint64(&blob, table->next_tid_);
    PutVarint64(&blob, table->row_count_);
  }
  PutVarint64(&blob, indexes_.size());
  for (const auto& [name, index] : indexes_) {
    PutString(&blob, name);
    PutVarint64(&blob, index->root());
  }

  if (blob.size() + kCatalogPrefix > kPageSize - Page::kHeaderSize) {
    return Status::ResourceExhausted("catalog exceeds one page");
  }
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(kCatalogPage));
  char* p = guard.data() + Page::kHeaderSize;
  std::memcpy(p, &kCatalogMagic, 4);
  const uint32_t len = static_cast<uint32_t>(blob.size());
  std::memcpy(p + 4, &len, 4);
  std::memcpy(p + 8, &db_id_, 8);
  std::memcpy(p + 16, &checkpoint_lsn_, 8);
  std::memcpy(p + kCatalogPrefix, blob.data(), blob.size());
  guard.MarkDirty();
  return Status::OK();
}

Status Database::LoadCatalog() {
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(kCatalogPage));
  const char* p = guard.data() + Page::kHeaderSize;
  uint32_t magic, len;
  std::memcpy(&magic, p, 4);
  std::memcpy(&len, p + 4, 4);
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  if (len > kPageSize - Page::kHeaderSize - kCatalogPrefix) {
    return Status::Corruption("bad catalog length");
  }
  std::memcpy(&db_id_, p + 8, 8);
  std::memcpy(&checkpoint_lsn_, p + 16, 8);
  std::string blob(p + kCatalogPrefix, len);
  std::string_view in = blob;

  FM_ASSIGN_OR_RETURN(const uint64_t num_tables, GetVarint64(&in));
  for (uint64_t i = 0; i < num_tables; ++i) {
    FM_ASSIGN_OR_RETURN(std::string name, GetString(&in));
    FM_ASSIGN_OR_RETURN(Schema schema, Schema::Decode(&in));
    FM_ASSIGN_OR_RETURN(const uint64_t first_page, GetVarint64(&in));
    FM_ASSIGN_OR_RETURN(const uint64_t index_root, GetVarint64(&in));
    FM_ASSIGN_OR_RETURN(const uint64_t next_tid, GetVarint64(&in));
    FM_ASSIGN_OR_RETURN(const uint64_t row_count, GetVarint64(&in));
    FM_ASSIGN_OR_RETURN(
        HeapFile heap,
        HeapFile::Open(pool_.get(), static_cast<PageId>(first_page)));
    BPlusTree tid_index =
        BPlusTree::Open(pool_.get(), static_cast<PageId>(index_root));
    auto table = std::unique_ptr<Table>(
        new Table(name, std::move(schema), std::move(heap),
                  std::move(tid_index), static_cast<Tid>(next_tid),
                  row_count));
    tables_.emplace(std::move(name), std::move(table));
  }

  FM_ASSIGN_OR_RETURN(const uint64_t num_indexes, GetVarint64(&in));
  for (uint64_t i = 0; i < num_indexes; ++i) {
    FM_ASSIGN_OR_RETURN(std::string name, GetString(&in));
    FM_ASSIGN_OR_RETURN(const uint64_t root, GetVarint64(&in));
    auto index = std::make_unique<BPlusTree>(
        BPlusTree::Open(pool_.get(), static_cast<PageId>(root)));
    indexes_.emplace(std::move(name), std::move(index));
  }
  return Status::OK();
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists(
        StringPrintf("table %s exists", name.c_str()));
  }
  FM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool_.get()));
  FM_ASSIGN_OR_RETURN(BPlusTree tid_index, BPlusTree::Create(pool_.get()));
  auto table = std::unique_ptr<Table>(
      new Table(name, std::move(schema), std::move(heap),
                std::move(tid_index), /*next_tid=*/0, /*row_count=*/0));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StringPrintf("no table %s", name.c_str()));
  }
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound(StringPrintf("no table %s", name.c_str()));
  }
  return Status::OK();
}

Result<BPlusTree*> Database::CreateIndex(const std::string& name) {
  if (indexes_.count(name) > 0) {
    return Status::AlreadyExists(
        StringPrintf("index %s exists", name.c_str()));
  }
  FM_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_.get()));
  auto index = std::make_unique<BPlusTree>(std::move(tree));
  BPlusTree* ptr = index.get();
  indexes_.emplace(name, std::move(index));
  return ptr;
}

Result<BPlusTree*> Database::GetIndex(const std::string& name) {
  const auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound(StringPrintf("no index %s", name.c_str()));
  }
  return it->second.get();
}

Status Database::DropIndex(const std::string& name) {
  if (indexes_.erase(name) == 0) {
    return Status::NotFound(StringPrintf("no index %s", name.c_str()));
  }
  return Status::OK();
}

Status Database::RenameTable(const std::string& from, const std::string& to) {
  if (tables_.count(to) > 0) {
    return Status::AlreadyExists(StringPrintf("table %s exists", to.c_str()));
  }
  auto node = tables_.extract(from);
  if (node.empty()) {
    return Status::NotFound(StringPrintf("no table %s", from.c_str()));
  }
  node.key() = to;
  node.mapped()->name_ = to;
  tables_.insert(std::move(node));
  return Status::OK();
}

Status Database::RenameIndex(const std::string& from, const std::string& to) {
  if (indexes_.count(to) > 0) {
    return Status::AlreadyExists(StringPrintf("index %s exists", to.c_str()));
  }
  auto node = indexes_.extract(from);
  if (node.empty()) {
    return Status::NotFound(StringPrintf("no index %s", from.c_str()));
  }
  node.key() = to;
  indexes_.insert(std::move(node));
  return Status::OK();
}

Status Database::RetireTable(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StringPrintf("no table %s", name.c_str()));
  }
  retired_tables_.push_back(std::move(it->second));
  tables_.erase(it);
  return Status::OK();
}

Status Database::RetireIndex(const std::string& name) {
  const auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound(StringPrintf("no index %s", name.c_str()));
  }
  retired_indexes_.push_back(std::move(it->second));
  indexes_.erase(it);
  return Status::OK();
}

void Database::BeginMaintenance() { pool_->BeginWalTxn(); }

Status Database::CommitMaintenance() {
  if (!pool_->wal_txn_active()) {
    return Status::OK();
  }
  // The catalog page joins the transaction: tid counters and row counts
  // persist only there, and recovery must not reuse tids of committed
  // inserts.
  FM_RETURN_IF_ERROR(SaveCatalog());
  return pool_->CommitWalTxn();
}

Status Database::FlushWal() {
  if (pool_->wal_txn_active()) {
    FM_RETURN_IF_ERROR(CommitMaintenance());
  }
  if (wal_ != nullptr) {
    return wal_->Sync();
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  FM_FAIL_POINT("db.checkpoint");
  // A dangling maintenance transaction (a failed op the facade could not
  // commit) must not leak uncommitted pages into the flush below.
  if (pool_->wal_txn_active()) {
    FM_RETURN_IF_ERROR(CommitMaintenance());
  }
  const uint64_t ckpt_lsn = wal_ != nullptr ? wal_->next_lsn() : 1;
  // Data pages first, with an fsync barrier: the catalog page must never
  // become durable while pointing at pages the crash kept from the file.
  FM_RETURN_IF_ERROR(pool_->FlushAllExcept(kCatalogPage));
  FM_FAIL_POINT("db.checkpoint_barrier");
  checkpoint_lsn_ = ckpt_lsn;
  FM_RETURN_IF_ERROR(SaveCatalog());
  FM_RETURN_IF_ERROR(pool_->FlushPage(kCatalogPage));
  if (wal_ != nullptr) {
    // Everything the log held is now durable in the main file; reset it.
    // Crash before this point replays the old log; crash after finds an
    // empty log whose start matches the new catalog checkpoint LSN.
    FM_RETURN_IF_ERROR(wal_->Truncate(ckpt_lsn));
  }
  return Status::OK();
}

void Database::SweepRebuildOrphans() {
  std::vector<std::string> doomed_tables;
  for (const auto& [name, table] : tables_) {
    if (name.find(kRebuildNameSuffix) != std::string::npos) {
      doomed_tables.push_back(name);
    }
  }
  std::vector<std::string> doomed_indexes;
  for (const auto& [name, index] : indexes_) {
    if (name.find(kRebuildNameSuffix) != std::string::npos) {
      doomed_indexes.push_back(name);
    }
  }
  for (const auto& name : doomed_tables) {
    FM_LOG(Warning) << "dropping orphan rebuild table " << name;
    tables_.erase(name);
  }
  for (const auto& name : doomed_indexes) {
    FM_LOG(Warning) << "dropping orphan rebuild index " << name;
    indexes_.erase(name);
  }
}

void Database::SweepTempFiles() {
  // Spill files embed their owner's pid; anything owned by a dead
  // process is an orphan of an aborted build/rebuild. Live pids are left
  // alone — parallel tests share temp directories.
  std::string dir = path_;
  const size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return;
  }
  size_t swept = 0;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string_view name(ent->d_name);
    if (name.rfind("fm_sort_run_", 0) != 0 || !name.ends_with(".tmp")) {
      continue;
    }
    const pid_t pid =
        static_cast<pid_t>(std::atol(ent->d_name + strlen("fm_sort_run_")));
    if (pid <= 0 || (::kill(pid, 0) != 0 && errno == ESRCH)) {
      const std::string full = dir + "/" + std::string(name);
      if (::unlink(full.c_str()) == 0) {
        ++swept;
      }
    }
  }
  ::closedir(d);
  if (swept > 0) {
    FM_LOG(Info) << "swept " << swept << " orphan spill file(s) in " << dir;
  }
}

}  // namespace fuzzymatch
