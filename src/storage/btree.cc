#include "storage/btree.h"

#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzymatch {

namespace {

obs::Counter& LookupsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("btree.lookups");
  return *c;
}

// Node fetches during root-to-leaf descents (internal nodes + the leaf);
// node_reads / lookups is the effective probe depth.
obs::Counter& NodeReadsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("btree.node_reads");
  return *c;
}

}  // namespace

namespace btree_internal {

std::string EncodeLeafEntry(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(2 + key.size() + value.size());
  const uint16_t klen = static_cast<uint16_t>(key.size());
  out.append(reinterpret_cast<const char*>(&klen), 2);
  out.append(key);
  out.append(value);
  return out;
}

std::string_view LeafKey(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  return record.substr(2, klen);
}

std::string_view LeafValue(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  return record.substr(2 + klen);
}

std::string EncodeInternalEntry(std::string_view key, PageId child) {
  std::string out;
  out.reserve(2 + key.size() + 4);
  const uint16_t klen = static_cast<uint16_t>(key.size());
  out.append(reinterpret_cast<const char*>(&klen), 2);
  out.append(key);
  out.append(reinterpret_cast<const char*>(&child), 4);
  return out;
}

std::string_view InternalKey(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  return record.substr(2, klen);
}

PageId InternalChild(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  PageId child;
  std::memcpy(&child, record.data() + 2 + klen, 4);
  return child;
}

uint16_t LowerBound(const Page& page, std::string_view key, bool is_leaf) {
  uint16_t lo = 0;
  uint16_t hi = page.slot_count();
  while (lo < hi) {
    const uint16_t mid = static_cast<uint16_t>(lo + (hi - lo) / 2);
    const auto rec = page.Get(mid);
    FM_CHECK(rec.has_value());
    const std::string_view k = is_leaf ? LeafKey(*rec) : InternalKey(*rec);
    if (k < key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace btree_internal

using namespace btree_internal;  // NOLINT(build/namespaces) - impl file

Result<BPlusTree> BPlusTree::Create(BufferPool* pool) {
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool->New());
  guard.page().Init(PageType::kBTreeLeaf);
  guard.page().set_next_page(kInvalidPageId);
  guard.MarkDirty();
  return BPlusTree(pool, guard.page_id());
}

Result<PageId> BPlusTree::FindLeaf(std::string_view key) const {
  PageId node = root_;
  for (;;) {
    NodeReadsCounter().Increment();
    FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(node));
    const Page page = guard.page();
    if (page.type() == PageType::kBTreeLeaf) {
      return node;
    }
    if (page.type() != PageType::kBTreeInternal) {
      return Status::Corruption(
          StringPrintf("page %u is not a btree node", node));
    }
    // Child covering `key`: the last entry with separator <= key, or the
    // leftmost child if key precedes all separators.
    const uint16_t idx = LowerBound(page, key, /*is_leaf=*/false);
    // idx = first entry with sep >= key.
    if (idx < page.slot_count()) {
      const auto rec = page.Get(idx);
      if (InternalKey(*rec) == key) {
        node = InternalChild(*rec);
        continue;
      }
    }
    if (idx == 0) {
      node = page.leftmost_child();
    } else {
      node = InternalChild(*page.Get(static_cast<uint16_t>(idx - 1)));
    }
  }
}

Result<std::string> BPlusTree::Get(std::string_view key) const {
  FM_TRACE_SPAN("btree.lookup");
  LookupsCounter().Increment();
  FM_ASSIGN_OR_RETURN(const PageId leaf, FindLeaf(key));
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(leaf));
  const Page page = guard.page();
  const uint16_t idx = LowerBound(page, key, /*is_leaf=*/true);
  if (idx < page.slot_count()) {
    const auto rec = page.Get(idx);
    if (LeafKey(*rec) == key) {
      return std::string(LeafValue(*rec));
    }
  }
  return Status::NotFound("key not in btree");
}

Status BPlusTree::Insert(std::string_view key, std::string_view value) {
  return PutImpl(key, value, /*allow_overwrite=*/false);
}

Status BPlusTree::Put(std::string_view key, std::string_view value) {
  return PutImpl(key, value, /*allow_overwrite=*/true);
}

Status BPlusTree::PutImpl(std::string_view key, std::string_view value,
                          bool allow_overwrite) {
  FM_FAIL_POINT("btree.put");
  if (key.size() + value.size() > kMaxEntrySize) {
    return Status::InvalidArgument(
        StringPrintf("btree entry too large (%zu bytes, max %zu)",
                     key.size() + value.size(), kMaxEntrySize));
  }
  if (key.empty()) {
    return Status::InvalidArgument("btree keys must be non-empty");
  }
  std::optional<SplitResult> split;
  FM_RETURN_IF_ERROR(InsertInto(root_, key, value, allow_overwrite, &split));
  if (split) {
    // Grow a new root above the old one.
    FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New());
    Page page = guard.page();
    page.Init(PageType::kBTreeInternal);
    page.set_leftmost_child(root_);
    const std::string entry =
        EncodeInternalEntry(split->separator, split->right);
    FM_CHECK(page.InsertAt(0, entry));
    guard.MarkDirty();
    root_ = guard.page_id();
  }
  return Status::OK();
}

Status BPlusTree::InsertInto(PageId node, std::string_view key,
                             std::string_view value, bool allow_overwrite,
                             std::optional<SplitResult>* split) {
  split->reset();
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(node));
  Page page = guard.page();

  if (page.type() == PageType::kBTreeLeaf) {
    uint16_t idx = LowerBound(page, key, /*is_leaf=*/true);
    if (idx < page.slot_count() && LeafKey(*page.Get(idx)) == key) {
      if (!allow_overwrite) {
        return Status::AlreadyExists("duplicate btree key");
      }
      page.RemoveAt(idx);
      // fall through to reinsert at the same position
    }
    const std::string entry = EncodeLeafEntry(key, value);
    if (!page.InsertAt(idx, entry)) {
      page.Compact();
      if (!page.InsertAt(idx, entry)) {
        FM_RETURN_IF_ERROR(SplitLeaf(guard, split));
        // Retry in the correct half.
        Page left = guard.page();
        if (key >= (*split)->separator) {
          FM_ASSIGN_OR_RETURN(PageGuard right_guard,
                              pool_->Fetch((*split)->right));
          Page right = right_guard.page();
          const uint16_t ridx = LowerBound(right, key, /*is_leaf=*/true);
          FM_CHECK(right.InsertAt(ridx, entry));
          right_guard.MarkDirty();
        } else {
          const uint16_t lidx = LowerBound(left, key, /*is_leaf=*/true);
          FM_CHECK(left.InsertAt(lidx, entry));
        }
      }
    }
    guard.MarkDirty();
    return Status::OK();
  }

  if (page.type() != PageType::kBTreeInternal) {
    return Status::Corruption(
        StringPrintf("page %u is not a btree node", node));
  }

  // Locate child, release nothing (single-threaded; recursion is fine).
  uint16_t idx = LowerBound(page, key, /*is_leaf=*/false);
  PageId child;
  if (idx < page.slot_count() && InternalKey(*page.Get(idx)) == key) {
    child = InternalChild(*page.Get(idx));
  } else if (idx == 0) {
    child = page.leftmost_child();
  } else {
    child = InternalChild(*page.Get(static_cast<uint16_t>(idx - 1)));
  }

  std::optional<SplitResult> child_split;
  FM_RETURN_IF_ERROR(
      InsertInto(child, key, value, allow_overwrite, &child_split));
  if (!child_split) {
    return Status::OK();
  }

  // Insert the promoted separator into this node.
  const std::string entry =
      EncodeInternalEntry(child_split->separator, child_split->right);
  uint16_t at = LowerBound(page, child_split->separator, /*is_leaf=*/false);
  if (!page.InsertAt(at, entry)) {
    page.Compact();
    if (!page.InsertAt(at, entry)) {
      FM_RETURN_IF_ERROR(SplitInternal(guard, split));
      // Insert into the proper half.
      if (child_split->separator >= (*split)->separator) {
        FM_ASSIGN_OR_RETURN(PageGuard right_guard,
                            pool_->Fetch((*split)->right));
        Page right = right_guard.page();
        const uint16_t ridx =
            LowerBound(right, child_split->separator, /*is_leaf=*/false);
        FM_CHECK(right.InsertAt(ridx, entry));
        right_guard.MarkDirty();
      } else {
        Page left = guard.page();
        const uint16_t lidx =
            LowerBound(left, child_split->separator, /*is_leaf=*/false);
        FM_CHECK(left.InsertAt(lidx, entry));
      }
    }
  }
  guard.MarkDirty();
  return Status::OK();
}

Status BPlusTree::SplitLeaf(PageGuard& guard,
                            std::optional<SplitResult>* split) {
  FM_FAIL_POINT("btree.split_leaf");
  Page left = guard.page();
  const uint16_t count = left.slot_count();
  FM_CHECK_GE(count, uint16_t{2});
  const uint16_t mid = static_cast<uint16_t>(count / 2);

  FM_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->New());
  Page right = right_guard.page();
  right.Init(PageType::kBTreeLeaf);

  // Move entries [mid, count) to the new right sibling.
  for (uint16_t i = mid; i < count; ++i) {
    const auto rec = left.Get(i);
    FM_CHECK(rec.has_value());
    FM_CHECK(right.Insert(*rec).has_value());
  }
  for (uint16_t i = count; i > mid; --i) {
    left.RemoveAt(static_cast<uint16_t>(i - 1));
  }
  left.Compact();

  right.set_next_page(left.next_page());
  left.set_next_page(right_guard.page_id());

  guard.MarkDirty();
  right_guard.MarkDirty();

  SplitResult result;
  result.separator = std::string(LeafKey(*right.Get(0)));
  result.right = right_guard.page_id();
  *split = std::move(result);
  return Status::OK();
}

Status BPlusTree::SplitInternal(PageGuard& guard,
                                std::optional<SplitResult>* split) {
  FM_FAIL_POINT("btree.split_internal");
  Page left = guard.page();
  const uint16_t count = left.slot_count();
  FM_CHECK_GE(count, uint16_t{3});
  const uint16_t mid = static_cast<uint16_t>(count / 2);

  FM_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->New());
  Page right = right_guard.page();
  right.Init(PageType::kBTreeInternal);

  // The mid entry's key is promoted; its child becomes the right node's
  // leftmost child. Entries (mid, count) move to the right node.
  const auto mid_rec = left.Get(mid);
  FM_CHECK(mid_rec.has_value());
  SplitResult result;
  result.separator = std::string(InternalKey(*mid_rec));
  right.set_leftmost_child(InternalChild(*mid_rec));

  for (uint16_t i = static_cast<uint16_t>(mid + 1); i < count; ++i) {
    const auto rec = left.Get(i);
    FM_CHECK(rec.has_value());
    FM_CHECK(right.Insert(*rec).has_value());
  }
  for (uint16_t i = count; i > mid; --i) {
    left.RemoveAt(static_cast<uint16_t>(i - 1));
  }
  left.Compact();

  guard.MarkDirty();
  right_guard.MarkDirty();

  result.right = right_guard.page_id();
  *split = std::move(result);
  return Status::OK();
}

Status BPlusTree::Delete(std::string_view key) {
  FM_FAIL_POINT("btree.delete");
  FM_ASSIGN_OR_RETURN(const PageId leaf, FindLeaf(key));
  FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(leaf));
  Page page = guard.page();
  const uint16_t idx = LowerBound(page, key, /*is_leaf=*/true);
  if (idx >= page.slot_count() || LeafKey(*page.Get(idx)) != key) {
    return Status::NotFound("key not in btree");
  }
  page.RemoveAt(idx);
  guard.MarkDirty();
  return Status::OK();
}

Result<PageId> BPlusTree::LeftmostLeaf() const {
  PageId node = root_;
  for (;;) {
    FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(node));
    const Page page = guard.page();
    if (page.type() == PageType::kBTreeLeaf) {
      return node;
    }
    node = page.leftmost_child();
  }
}

Result<uint64_t> BPlusTree::Count() const {
  uint64_t n = 0;
  FM_ASSIGN_OR_RETURN(PageId leaf, LeftmostLeaf());
  while (leaf != kInvalidPageId) {
    FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(leaf));
    n += guard.page().slot_count();
    leaf = guard.page().next_page();
  }
  return n;
}

Result<int> BPlusTree::Height() const {
  int h = 1;
  PageId node = root_;
  for (;;) {
    FM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(node));
    const Page page = guard.page();
    if (page.type() == PageType::kBTreeLeaf) {
      return h;
    }
    node = page.leftmost_child();
    ++h;
  }
}

Status BPlusTree::Iterator::Seek(std::string_view key) {
  FM_ASSIGN_OR_RETURN(leaf_, tree_->FindLeaf(key));
  FM_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(leaf_));
  pos_ = LowerBound(guard.page(), key, /*is_leaf=*/true);
  valid_ = true;
  FM_RETURN_IF_ERROR(SkipEmptyLeaves());
  return LoadEntry();
}

Status BPlusTree::Iterator::SeekToFirst() {
  FM_ASSIGN_OR_RETURN(leaf_, tree_->LeftmostLeaf());
  pos_ = 0;
  valid_ = true;
  FM_RETURN_IF_ERROR(SkipEmptyLeaves());
  return LoadEntry();
}

Status BPlusTree::Iterator::SkipEmptyLeaves() {
  while (leaf_ != kInvalidPageId) {
    FM_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(leaf_));
    if (pos_ < guard.page().slot_count()) {
      return Status::OK();
    }
    leaf_ = guard.page().next_page();
    pos_ = 0;
  }
  valid_ = false;
  return Status::OK();
}

Status BPlusTree::Iterator::LoadEntry() {
  if (!valid_) {
    return Status::OK();
  }
  FM_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(leaf_));
  const auto rec = guard.page().Get(pos_);
  if (!rec) {
    return Status::Corruption("btree iterator out of bounds");
  }
  key_.assign(LeafKey(*rec));
  value_.assign(LeafValue(*rec));
  return Status::OK();
}

Status BPlusTree::Iterator::Next() {
  FM_CHECK(valid_);
  ++pos_;
  FM_RETURN_IF_ERROR(SkipEmptyLeaves());
  return LoadEntry();
}

}  // namespace fuzzymatch
