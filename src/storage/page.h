// Slotted-page layout.
//
// Every page in the storage engine is a fixed 8 KiB buffer with a small
// header, a slot directory growing down from the header, and record data
// growing up from the end of the page:
//
//   [ header | slot0 slot1 ... ->   free space   <- ... rec1 rec0 ]
//
// The 16-byte header is declared here and nowhere else:
//
//   [0, 2)    page type
//   [2, 4)    slot count
//   [4, 6)    end of free space (record data grows down to it)
//   [6, 8)    unused
//   [8, 12)   next page in a chain
//   [12, 16)  leftmost child (B+-tree internal nodes only)
//
// A Page is a non-owning view over such a buffer (the buffer itself lives
// in a buffer-pool frame).

#ifndef FUZZYMATCH_STORAGE_PAGE_H_
#define FUZZYMATCH_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

namespace fuzzymatch {

/// Fixed page size of the storage engine.
inline constexpr size_t kPageSize = 8192;

/// Page identifier within a Pager; dense, starting at 0.
using PageId = uint32_t;

/// Sentinel for "no page" (e.g. end of a linked page chain).
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Slot index within a page.
using SlotId = uint16_t;

/// What a page stores; recorded in the header for sanity checking.
enum class PageType : uint16_t {
  kFree = 0,
  kHeap = 1,
  kBTreeLeaf = 2,
  kBTreeInternal = 3,
  kMeta = 4,
};

/// Mutable view over one 8 KiB page buffer with slotted-record access.
class Page {
 public:
  /// Wraps an existing buffer of kPageSize bytes; does not take ownership.
  explicit Page(char* data) : data_(data) {}

  /// Formats the buffer as an empty page of the given type.
  void Init(PageType type);

  PageType type() const;
  void set_type(PageType type);

  /// Number of slots in the directory, including tombstoned ones.
  uint16_t slot_count() const;

  /// Link to the next page in a chain (heap file page list, B+-tree leaf
  /// chain); kInvalidPageId if none.
  PageId next_page() const;
  void set_next_page(PageId id);

  /// B+-tree internal nodes: the child left of the first separator.
  PageId leftmost_child() const { return ReadU32(kLeftmostChildOff); }
  void set_leftmost_child(PageId id) { WriteU32(kLeftmostChildOff, id); }

  /// Bytes available for one more record of any size (accounts for the
  /// slot directory entry the insert would add).
  size_t FreeSpace() const;

  /// True if a record of `len` bytes fits.
  bool Fits(size_t len) const { return FreeSpace() >= len + kSlotSize; }

  /// Appends a record; returns its slot, or nullopt if it does not fit.
  std::optional<SlotId> Insert(std::string_view record);

  /// Inserts a record so that it occupies directory position `pos`,
  /// shifting later slots up by one. Used by B+-tree nodes, which keep the
  /// slot directory sorted by key. Returns false if it does not fit.
  bool InsertAt(SlotId pos, std::string_view record);

  /// Removes the directory entry at `pos`, shifting later slots down. The
  /// record bytes become a hole reclaimed by Compact(). Unlike Delete(),
  /// this changes the slot ids of subsequent records — only for layouts
  /// (like B+-tree nodes) that do not hand out stable slot ids.
  bool RemoveAt(SlotId pos);

  /// Returns the record in `slot`, or nullopt if the slot is tombstoned or
  /// out of range.
  std::optional<std::string_view> Get(SlotId slot) const;

  /// Tombstones `slot`. The space is reclaimed by Compact(). Returns false
  /// if the slot was already empty or out of range.
  bool Delete(SlotId slot);

  /// Replaces the record in `slot` in place if the new record is not larger
  /// than the old one; returns false otherwise (caller must delete+insert).
  bool UpdateInPlace(SlotId slot, std::string_view record);

  /// Rewrites live records to squeeze out holes left by Delete(). Slot ids
  /// of live records are preserved.
  void Compact();

  /// Raw buffer access (for page-type-specific layouts like B+-tree nodes).
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Size of one slot-directory entry.
  static constexpr size_t kSlotSize = 4;
  /// Size of the page header.
  static constexpr size_t kHeaderSize = 16;
  /// Largest record a single page can hold.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotSize;

 private:
  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  void WriteU16(size_t off, uint16_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }
  uint32_t ReadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  void WriteU32(size_t off, uint32_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }

  // Header field offsets (layout in the file comment).
  static constexpr size_t kTypeOff = 0;
  static constexpr size_t kSlotCountOff = 2;
  static constexpr size_t kFreeEndOff = 4;
  static constexpr size_t kNextPageOff = 8;
  static constexpr size_t kLeftmostChildOff = 12;

  // Slot entry: u16 record offset (0xFFFF = tombstone), u16 record length.
  size_t SlotDirOff(SlotId slot) const {
    return kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  }

  char* data_;
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_STORAGE_PAGE_H_
