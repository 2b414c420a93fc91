#include "storage/page.h"

#include <cstring>
#include <vector>

#include "common/logging.h"

namespace fuzzymatch {

namespace {
constexpr uint16_t kTombstone = 0xFFFF;
}

void Page::Init(PageType type) {
  std::memset(data_, 0, kPageSize);
  WriteU16(kTypeOff, static_cast<uint16_t>(type));
  WriteU16(kSlotCountOff, 0);
  WriteU16(kFreeEndOff, static_cast<uint16_t>(kPageSize));
  WriteU32(kNextPageOff, kInvalidPageId);
}

PageType Page::type() const {
  return static_cast<PageType>(ReadU16(kTypeOff));
}

void Page::set_type(PageType type) {
  WriteU16(kTypeOff, static_cast<uint16_t>(type));
}

uint16_t Page::slot_count() const { return ReadU16(kSlotCountOff); }

PageId Page::next_page() const { return ReadU32(kNextPageOff); }

void Page::set_next_page(PageId id) { WriteU32(kNextPageOff, id); }

size_t Page::FreeSpace() const {
  const size_t slots_end = SlotDirOff(slot_count());
  const size_t free_end = ReadU16(kFreeEndOff);
  FM_CHECK_LE(slots_end, free_end);
  return free_end - slots_end;
}

std::optional<SlotId> Page::Insert(std::string_view record) {
  FM_CHECK_LE(record.size(), kMaxRecordSize);
  if (!Fits(record.size())) {
    return std::nullopt;
  }
  const uint16_t count = slot_count();
  const uint16_t new_free_end =
      static_cast<uint16_t>(ReadU16(kFreeEndOff) - record.size());
  std::memcpy(data_ + new_free_end, record.data(), record.size());
  WriteU16(kFreeEndOff, new_free_end);
  WriteU16(SlotDirOff(count), new_free_end);
  WriteU16(SlotDirOff(count) + 2, static_cast<uint16_t>(record.size()));
  WriteU16(kSlotCountOff, static_cast<uint16_t>(count + 1));
  return count;
}

bool Page::InsertAt(SlotId pos, std::string_view record) {
  FM_CHECK_LE(record.size(), kMaxRecordSize);
  const uint16_t count = slot_count();
  FM_CHECK_LE(pos, count);
  if (!Fits(record.size())) {
    return false;
  }
  const uint16_t new_free_end =
      static_cast<uint16_t>(ReadU16(kFreeEndOff) - record.size());
  std::memcpy(data_ + new_free_end, record.data(), record.size());
  WriteU16(kFreeEndOff, new_free_end);
  // Shift directory entries [pos, count) up by one slot.
  std::memmove(data_ + SlotDirOff(pos + 1), data_ + SlotDirOff(pos),
               static_cast<size_t>(count - pos) * kSlotSize);
  WriteU16(SlotDirOff(pos), new_free_end);
  WriteU16(SlotDirOff(pos) + 2, static_cast<uint16_t>(record.size()));
  WriteU16(kSlotCountOff, static_cast<uint16_t>(count + 1));
  return true;
}

bool Page::RemoveAt(SlotId pos) {
  const uint16_t count = slot_count();
  if (pos >= count) {
    return false;
  }
  std::memmove(data_ + SlotDirOff(pos), data_ + SlotDirOff(pos + 1),
               static_cast<size_t>(count - pos - 1) * kSlotSize);
  WriteU16(kSlotCountOff, static_cast<uint16_t>(count - 1));
  return true;
}

std::optional<std::string_view> Page::Get(SlotId slot) const {
  if (slot >= slot_count()) {
    return std::nullopt;
  }
  const uint16_t off = ReadU16(SlotDirOff(slot));
  if (off == kTombstone) {
    return std::nullopt;
  }
  const uint16_t len = ReadU16(SlotDirOff(slot) + 2);
  return std::string_view(data_ + off, len);
}

bool Page::Delete(SlotId slot) {
  if (slot >= slot_count()) {
    return false;
  }
  const size_t dir = SlotDirOff(slot);
  if (ReadU16(dir) == kTombstone) {
    return false;
  }
  WriteU16(dir, kTombstone);
  WriteU16(dir + 2, 0);
  return true;
}

bool Page::UpdateInPlace(SlotId slot, std::string_view record) {
  if (slot >= slot_count()) {
    return false;
  }
  const size_t dir = SlotDirOff(slot);
  const uint16_t off = ReadU16(dir);
  if (off == kTombstone) {
    return false;
  }
  const uint16_t len = ReadU16(dir + 2);
  if (record.size() > len) {
    return false;
  }
  std::memcpy(data_ + off, record.data(), record.size());
  WriteU16(dir + 2, static_cast<uint16_t>(record.size()));
  return true;
}

void Page::Compact() {
  const uint16_t count = slot_count();
  // Collect live records (slot, offset, length), then re-lay them out from
  // the end of the page preserving slot ids.
  struct Live {
    SlotId slot;
    uint16_t off;
    uint16_t len;
  };
  std::vector<Live> live;
  live.reserve(count);
  for (SlotId s = 0; s < count; ++s) {
    const uint16_t off = ReadU16(SlotDirOff(s));
    if (off != kTombstone) {
      live.push_back({s, off, ReadU16(SlotDirOff(s) + 2)});
    }
  }
  std::vector<char> scratch(kPageSize);
  uint16_t free_end = static_cast<uint16_t>(kPageSize);
  for (const Live& l : live) {
    free_end = static_cast<uint16_t>(free_end - l.len);
    std::memcpy(scratch.data() + free_end, data_ + l.off, l.len);
  }
  std::memcpy(data_ + free_end, scratch.data() + free_end,
              kPageSize - free_end);
  // Rewrite slot offsets in the same order the data was copied.
  uint16_t cursor = static_cast<uint16_t>(kPageSize);
  for (const Live& l : live) {
    cursor = static_cast<uint16_t>(cursor - l.len);
    WriteU16(SlotDirOff(l.slot), cursor);
  }
  WriteU16(kFreeEndOff, free_end);
}

}  // namespace fuzzymatch
