// B+-tree with variable-length byte-string keys and values.
//
// This is the "standard B+-tree index" the paper relies on: the ETI
// relation is indexed on [QGram, Coordinate, Column] and the reference
// relation on Tid. Keys are compared in memcmp order; composite keys are
// produced by KeyEncoder so byte order matches logical order.
//
// Layout: internal nodes store (separator, child) entries plus a leftmost
// child in the page header (Page::leftmost_child); leaves store (key,
// value) entries and are chained left-to-right for range scans. Node
// pages keep their slot directory sorted by key.
//
// Keys are unique. Deletion removes the entry without rebalancing
// (underfull pages are tolerated, as in several production engines); the
// fuzzy-match workload is build-once/read-many.

#ifndef FUZZYMATCH_STORAGE_BTREE_H_
#define FUZZYMATCH_STORAGE_BTREE_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fuzzymatch {

/// A single B+-tree. The root page id changes as the tree grows; callers
/// persisting the tree must re-read root() after mutations (the Database
/// catalog does this at checkpoint).
///
/// Concurrency: the read path (Get, iterators, Count, Height) is safe
/// from any number of threads once the tree is built — node pages are
/// pinned through the BufferPool's latch and never mutated by readers.
/// Insert/Put/Delete are exclusive (no node latching): serialize writes
/// externally and do not interleave them with reads.
class BPlusTree {
 public:
  /// Creates an empty tree (root = empty leaf).
  static Result<BPlusTree> Create(BufferPool* pool);

  /// Attaches to an existing tree by root page id.
  static BPlusTree Open(BufferPool* pool, PageId root) {
    return BPlusTree(pool, root);
  }

  /// Inserts a new key; fails with AlreadyExists if present.
  Status Insert(std::string_view key, std::string_view value);

  /// Inserts or overwrites.
  Status Put(std::string_view key, std::string_view value);

  /// Point lookup; NotFound if absent.
  Result<std::string> Get(std::string_view key) const;

  /// Removes a key; NotFound if absent.
  Status Delete(std::string_view key);

  /// Forward iterator over (key, value) pairs in key order.
  class Iterator {
   public:
    /// Positions at the first entry with key >= `key`.
    Status Seek(std::string_view key);

    /// Positions at the smallest key.
    Status SeekToFirst();

    /// True if positioned on an entry.
    bool Valid() const { return valid_; }

    /// Current entry (valid until the next Next/Seek).
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }

    /// Advances; invalidates at the end.
    Status Next();

   private:
    friend class BPlusTree;
    explicit Iterator(const BPlusTree* tree) : tree_(tree) {}
    Status LoadEntry();
    /// Skips empty leaves (possible after deletions).
    Status SkipEmptyLeaves();

    const BPlusTree* tree_;
    PageId leaf_ = kInvalidPageId;
    uint16_t pos_ = 0;
    bool valid_ = false;
    std::string key_;
    std::string value_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Current root page id (persist this).
  PageId root() const { return root_; }

  /// Number of entries (maintained by this handle; after Open it is
  /// recomputed lazily by Count()).
  Result<uint64_t> Count() const;

  /// Tree height (1 = root is a leaf).
  Result<int> Height() const;

  /// Hard cap on key+value size so a node always fits several entries.
  static constexpr size_t kMaxEntrySize = 1800;

 private:
  BPlusTree(BufferPool* pool, PageId root) : pool_(pool), root_(root) {}

  struct SplitResult {
    std::string separator;  // smallest key in the new right sibling
    PageId right;
  };

  Status PutImpl(std::string_view key, std::string_view value,
                 bool allow_overwrite);
  /// Recursive insert; sets `split` when the child had to split.
  Status InsertInto(PageId node, std::string_view key, std::string_view value,
                    bool allow_overwrite, std::optional<SplitResult>* split);
  Status SplitLeaf(PageGuard& guard, std::optional<SplitResult>* split);
  Status SplitInternal(PageGuard& guard, std::optional<SplitResult>* split);
  /// Descends to the leaf that would contain `key`.
  Result<PageId> FindLeaf(std::string_view key) const;
  Result<PageId> LeftmostLeaf() const;

  BufferPool* pool_;
  PageId root_;
};

namespace btree_internal {

/// Leaf entry accessors (record = u16 klen | key | value).
std::string EncodeLeafEntry(std::string_view key, std::string_view value);
std::string_view LeafKey(std::string_view record);
std::string_view LeafValue(std::string_view record);

/// Internal entry accessors (record = u16 klen | key | u32 child).
std::string EncodeInternalEntry(std::string_view key, PageId child);
std::string_view InternalKey(std::string_view record);
PageId InternalChild(std::string_view record);

/// Binary search over a sorted node: index of the first entry whose key is
/// >= `key` (== slot_count() if none). `is_leaf` selects the key accessor.
uint16_t LowerBound(const Page& page, std::string_view key, bool is_leaf);

}  // namespace btree_internal

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_STORAGE_BTREE_H_
