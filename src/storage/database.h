// Database: catalog + storage for a set of tables and secondary indexes.
//
// This is the "current operational data warehouse" stand-in the paper
// deploys over: relations and B+-tree indexes persisted in one page file.
// The catalog lives in page 0 and is rewritten by Checkpoint().

#ifndef FUZZYMATCH_STORAGE_DATABASE_H_
#define FUZZYMATCH_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/btree.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace fuzzymatch {

/// Name suffix of shadow tables/indexes an online ETI rebuild builds
/// next to the live ones. Open() drops orphans left by a rebuild that
/// crashed before its atomic swap.
inline constexpr std::string_view kRebuildNameSuffix = "~rebuild";

struct DatabaseOptions {
  /// Backing file; empty selects a non-persistent in-memory store.
  std::string path;
  /// Buffer pool capacity in pages (8 KiB each).
  size_t pool_pages = 4096;
  /// When the write-ahead log fsyncs (the `--wal-fsync` server flag).
  /// Every file-backed store logs its maintenance transactions to
  /// `<path>.wal`, replayed by Open() after a crash; in-memory stores
  /// never log.
  WalFsyncMode wal_fsync = WalFsyncMode::kGroup;
};

/// One storage namespace.
///
/// Thread safety (the shared-read contract): after the catalog and the
/// tables/indexes it hands out are built, any number of threads may read
/// concurrently — Table::Get/Scan, BPlusTree::Get/iteration and
/// Eti::Lookup all funnel into the BufferPool, whose internal latch makes
/// the read path safe. Catalog mutations (CreateTable/DropTable/
/// CreateIndex/DropIndex/Checkpoint) and row/index writes remain
/// exclusive: run them before serving starts or behind an external write
/// lock. The fuzzy-match deployment fits this exactly — the reference
/// relation and the ETI are immutable once built.
class Database {
 public:
  /// Opens (or creates) a database.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an empty table; fails with AlreadyExists on name collision.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Looks up a table; NotFound if absent.
  Result<Table*> GetTable(const std::string& name);

  /// Removes a table from the catalog. Its pages are not reclaimed (this
  /// engine has no free-space map); used for dropping temporary relations.
  Status DropTable(const std::string& name);

  /// Creates an empty secondary index (a standalone B+-tree).
  Result<BPlusTree*> CreateIndex(const std::string& name);

  /// Looks up an index; NotFound if absent.
  Result<BPlusTree*> GetIndex(const std::string& name);

  Status DropIndex(const std::string& name);

  /// Renames a table/index in the catalog (AlreadyExists on collision,
  /// NotFound if absent). Handed-out pointers stay valid. Used by the
  /// online ETI rebuild to move the shadow index into place.
  Status RenameTable(const std::string& from, const std::string& to);
  Status RenameIndex(const std::string& from, const std::string& to);

  /// Removes a table/index from the catalog but keeps the object alive
  /// until the Database is destroyed, so in-flight readers holding the
  /// pointer are safe. The swap half of the online rebuild.
  Status RetireTable(const std::string& name);
  Status RetireIndex(const std::string& name);

  /// Starts a maintenance transaction: every page dirtied until
  /// CommitMaintenance() is WAL-logged as one atomic batch. No-op when
  /// the store has no WAL. Maintenance ops must be externally serialized
  /// (the FuzzyMatcher facade holds its maintenance lock across this).
  void BeginMaintenance();

  /// Commits the open maintenance transaction: persists the catalog
  /// (tid counters live only there) and group-commits the dirtied pages.
  /// The operation is acknowledged only after this returns OK; on error
  /// the transaction stays open and nothing was made durable.
  Status CommitMaintenance();

  /// Final group commit + fsync of the log (graceful-shutdown drain).
  /// Commits a dangling maintenance transaction first.
  Status FlushWal();

  /// Persists the catalog and flushes dirty pages. For file-backed
  /// databases this is what makes state durable across Open() calls.
  /// Ordering contract: data pages are flushed and fsynced before the
  /// page-0 catalog is rewritten, so a crash in the window can never
  /// persist a catalog pointing at unwritten pages. With a WAL, the log
  /// is truncated afterwards. Requires no concurrent maintenance.
  Status Checkpoint();

  BufferPool* buffer_pool() { return pool_.get(); }

  /// The write-ahead log; nullptr for in-memory stores.
  Wal* wal() { return wal_.get(); }

  /// What log replay did during Open() (zeroes when there was no log).
  const Wal::ReplayStats& replay_stats() const { return replay_stats_; }

  /// Backing file path; empty for in-memory stores. Lets co-located
  /// scratch data (e.g. ETI build spill runs) default to the database's
  /// own directory instead of /tmp.
  const std::string& path() const { return path_; }

 private:
  Database() = default;

  Status LoadCatalog();
  Status SaveCatalog();
  /// Drops orphan shadow tables/indexes a crashed rebuild left behind.
  void SweepRebuildOrphans();
  /// Unlinks spill files (fm_sort_run_*.tmp) of dead processes in the
  /// database's directory.
  void SweepTempFiles();

  std::string path_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Wal> wal_;
  uint64_t db_id_ = 0;           // random identity minted at create time
  uint64_t checkpoint_lsn_ = 1;  // WAL start LSN as of the last checkpoint
  Wal::ReplayStats replay_stats_;
  // Stable addresses for handed-out pointers.
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<BPlusTree>> indexes_;
  // Retired but still-referenced objects (see RetireTable).
  std::vector<std::unique_ptr<Table>> retired_tables_;
  std::vector<std::unique_ptr<BPlusTree>> retired_indexes_;
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_STORAGE_DATABASE_H_
