#include "eti/eti_accel.h"

#include <chrono>
#include <cstring>

#include <algorithm>

#include "common/hash.h"
#include "eti/tid_list.h"
#include "obs/metrics.h"

namespace fuzzymatch {

namespace {

obs::Counter& HitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.hits");
  return *c;
}

obs::Counter& NegativesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.negative_hits");
  return *c;
}

obs::Counter& FallbacksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.fallbacks");
  return *c;
}

obs::Counter& InvalidationsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.invalidations");
  return *c;
}

obs::Counter& MarkerOverflowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.marker_overflows");
  return *c;
}

obs::Counter& BytesDecodedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti_accel.bytes_decoded");
  return *c;
}

Result<uint32_t> DecodeU32Field(const std::optional<std::string>& field) {
  if (!field || field->size() != 4) {
    return Status::Corruption("bad u32 field in ETI row");
  }
  uint32_t v;
  std::memcpy(&v, field->data(), 4);
  return v;
}

}  // namespace

uint64_t EtiAccel::KeyHash(std::string_view gram, uint32_t coordinate,
                           uint32_t column) {
  const uint64_t seed =
      (static_cast<uint64_t>(coordinate) << 32) | column;
  return Hash64(gram, Mix64(seed));
}

bool EtiAccel::SlotMatches(const Slot& s, uint64_t hash,
                           std::string_view gram, uint32_t coordinate,
                           uint32_t column) const {
  return s.hash == hash && s.coordinate == coordinate &&
         s.column == column && s.key_len == gram.size() &&
         std::memcmp(key_arena_.data() + s.key_offset, gram.data(),
                     gram.size()) == 0;
}

size_t EtiAccel::FindSlot(uint64_t hash, std::string_view gram,
                          uint32_t coordinate, uint32_t column) const {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].state != kEmpty &&
         !SlotMatches(slots_[i], hash, gram, coordinate, column)) {
    i = (i + 1) & mask;
  }
  return i;
}

void EtiAccel::InsertAt(size_t i, uint64_t hash, std::string_view gram,
                        uint32_t coordinate, uint32_t column,
                        uint32_t frequency, SlotState state,
                        std::string_view postings) {
  Slot& s = slots_[i];
  s.hash = hash;
  s.key_offset = static_cast<uint32_t>(key_arena_.size());
  s.key_len = static_cast<uint16_t>(gram.size());
  key_arena_.append(gram);
  s.post_offset = static_cast<uint32_t>(post_arena_.size());
  s.post_len = static_cast<uint32_t>(postings.size());
  post_arena_.append(postings);
  s.frequency = frequency;
  s.coordinate = coordinate;
  s.column = column;
  s.state = state;
  ++used_slots_;
  if (state != kSpill) {
    ++resident_entries_;
  }
}

Result<std::shared_ptr<EtiAccel>> EtiAccel::Build(
    const Table* rows, const EtiAccelOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  // Pass 1: price every ETI row. A resident entry costs its slot (doubled:
  // the table is sized for <= 50% load so probes stay short chains) plus
  // its gram and postings bytes in the arenas.
  struct RowCost {
    Tid tid = 0;
    uint32_t frequency = 0;
    uint32_t key_bytes = 0;
    uint32_t post_bytes = 0;
  };
  std::vector<RowCost> priced;
  priced.reserve(rows->row_count());
  Tid max_tid = 0;
  {
    Table::Scanner scanner = rows->Scan();
    Tid tid;
    Row row;
    for (;;) {
      FM_ASSIGN_OR_RETURN(const bool more, scanner.Next(&tid, &row));
      if (!more) break;
      if (row.size() != 5 || !row[0]) {
        return Status::Corruption("ETI row has wrong arity");
      }
      if (row[0]->size() > UINT16_MAX) {
        return Status::Corruption("ETI q-gram key too long to accelerate");
      }
      RowCost rc;
      rc.tid = tid;
      FM_ASSIGN_OR_RETURN(rc.frequency, DecodeU32Field(row[3]));
      rc.key_bytes = static_cast<uint32_t>(row[0]->size());
      rc.post_bytes =
          row[4] ? static_cast<uint32_t>(row[4]->size()) : 0;
      max_tid = std::max(max_tid, tid);
      priced.push_back(rc);
    }
  }

  const auto cost_of = [](const RowCost& rc) -> uint64_t {
    return 2 * sizeof(Slot) + rc.key_bytes + rc.post_bytes;
  };
  // What the segment really allocates for `count` entries: the slot array
  // is a power of two sized for <= 50% load, and the key arena reserves
  // slack for maintenance spill markers.
  const auto slot_count_for = [](size_t count) -> size_t {
    size_t nslots = 16;
    while (nslots < 2 * count + 16) {
      nslots <<= 1;
    }
    return nslots;
  };
  const auto actual_bytes = [&](size_t count, size_t key_bytes,
                                size_t post_bytes) -> uint64_t {
    return slot_count_for(count) * sizeof(Slot) + key_bytes +
           std::max<size_t>(1024, key_bytes / 8) + post_bytes;
  };

  // Admit most-frequent-first under the budget: the weight-ordered probe
  // schedule hits frequent entries most, so they buy the most B-tree
  // avoidance per resident byte.
  auto accel = std::shared_ptr<EtiAccel>(new EtiAccel());
  accel->rows_scanned_ = priced.size();
  std::sort(priced.begin(), priced.end(),
            [](const RowCost& a, const RowCost& b) {
              if (a.frequency != b.frequency) {
                return a.frequency > b.frequency;
              }
              return a.tid < b.tid;
            });
  std::vector<uint8_t> admitted(priced.empty() ? 0 : max_tid + 1, 0);
  std::vector<const RowCost*> admitted_rows;  // admission-priority order
  admitted_rows.reserve(priced.size());
  size_t admitted_key_bytes = 0;
  size_t admitted_post_bytes = 0;
  uint64_t spent = 0;
  for (const RowCost& rc : priced) {
    const uint64_t cost = cost_of(rc);
    if (spent + cost > options.memory_budget_bytes) {
      continue;  // keep filling with smaller entries further down
    }
    spent += cost;
    admitted[rc.tid] = 1;
    admitted_rows.push_back(&rc);
    admitted_key_bytes += rc.key_bytes;
    admitted_post_bytes += rc.post_bytes;
  }
  // The linear cost model underestimates the power-of-two slot array and
  // the marker slack; trim lowest-priority entries until the budget holds
  // for what will really be allocated.
  while (!admitted_rows.empty() &&
         actual_bytes(admitted_rows.size(), admitted_key_bytes,
                      admitted_post_bytes) > options.memory_budget_bytes) {
    const RowCost* rc = admitted_rows.back();
    admitted_rows.pop_back();
    admitted[rc->tid] = 0;
    admitted_key_bytes -= rc->key_bytes;
    admitted_post_bytes -= rc->post_bytes;
  }
  const size_t admitted_count = admitted_rows.size();
  accel->complete_ = admitted_count == priced.size();
  accel->rows_admitted_ = admitted_count;
  if (admitted_key_bytes > UINT32_MAX || admitted_post_bytes > UINT32_MAX) {
    return Status::InvalidArgument(
        "ETI accelerator arenas exceed 4 GiB; lower the memory budget");
  }

  // Size the table for <= 50% load at build; markers from maintenance may
  // fill it to 87.5% before the segment degrades to incomplete.
  const size_t nslots = slot_count_for(admitted_count);
  accel->slots_.assign(nslots, Slot{});
  accel->max_used_slots_ = nslots - nslots / 8;
  accel->key_arena_.reserve(admitted_key_bytes +
                            std::max<size_t>(1024, admitted_key_bytes / 8));
  accel->post_arena_.reserve(admitted_post_bytes);

  // Pass 2: load the admitted rows. Keys are normally unique (the ETI is
  // clustered on [QGram, Coordinate, Column]); a duplicate can appear if
  // a row relocation was interrupted mid-update and left a superseded
  // image behind. Neither copy is trustworthy from a heap scan alone, so
  // the key is demoted to a spill marker and served from the B-tree,
  // which always points at the authoritative image.
  if (admitted_count > 0) {
    Table::Scanner scanner = rows->Scan();
    Tid tid;
    Row row;
    for (;;) {
      FM_ASSIGN_OR_RETURN(const bool more, scanner.Next(&tid, &row));
      if (!more) break;
      if (!admitted[tid]) continue;
      const std::string& gram = *row[0];
      FM_ASSIGN_OR_RETURN(const uint32_t coordinate,
                          DecodeU32Field(row[1]));
      FM_ASSIGN_OR_RETURN(const uint32_t column, DecodeU32Field(row[2]));
      FM_ASSIGN_OR_RETURN(const uint32_t frequency,
                          DecodeU32Field(row[3]));
      const uint64_t hash = EtiAccel::KeyHash(gram, coordinate, column);
      const size_t i =
          accel->FindSlot(hash, gram, coordinate, column);
      if (accel->slots_[i].state != kEmpty) {
        Slot& dup = accel->slots_[i];
        if (dup.state != kSpill) {
          --accel->resident_entries_;
          dup.state = kSpill;
        }
        continue;
      }
      accel->InsertAt(i, hash, gram, coordinate, column, frequency,
                      row[4] ? kValid : kStop,
                      row[4] ? std::string_view(*row[4])
                             : std::string_view());
    }
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("eti_accel.entries")
      ->Set(static_cast<double>(accel->resident_entries_));
  registry.GetGauge("eti_accel.bytes")
      ->Set(static_cast<double>(accel->memory_bytes()));
  registry.GetGauge("eti_accel.complete")->Set(accel->complete_ ? 1 : 0);
  registry.GetGauge("eti_accel.rows_spilled")
      ->Set(static_cast<double>(accel->rows_scanned_ -
                                accel->rows_admitted_));
  registry.GetGauge("eti_accel.build_seconds")->Set(seconds);
  return accel;
}

EtiAccel::Outcome EtiAccel::Probe(std::string_view gram, uint32_t coordinate,
                                  uint32_t column, std::vector<Tid>* scratch,
                                  EtiLookupView* out) const {
  return ProbeHashed(KeyHash(gram, coordinate, column), gram, coordinate,
                     column, scratch, out);
}

EtiAccel::Outcome EtiAccel::ProbeHashed(uint64_t hash, std::string_view gram,
                                        uint32_t coordinate, uint32_t column,
                                        std::vector<Tid>* scratch,
                                        EtiLookupView* out) const {
  *out = EtiLookupView{};
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.state == kEmpty) {
      break;
    }
    if (!SlotMatches(s, hash, gram, coordinate, column)) {
      continue;
    }
    if (s.state == kSpill) {
      FallbacksCounter().Increment();
      return Outcome::kFallback;
    }
    out->found = true;
    out->frequency = s.frequency;
    if (s.state == kStop) {
      out->is_stop = true;
      HitsCounter().Increment();
      return Outcome::kHit;
    }
    const std::string_view blob(post_arena_.data() + s.post_offset,
                                s.post_len);
    const Status decoded = DecodeTidListInto(blob, scratch);
    if (!decoded.ok()) {
      // Defensive: a corrupt resident blob falls back to the B-tree,
      // which surfaces the corruption through the normal error path.
      *out = EtiLookupView{};
      FallbacksCounter().Increment();
      return Outcome::kFallback;
    }
    out->tids = scratch->data();
    out->num_tids = scratch->size();
    BytesDecodedCounter().Increment(s.post_len);
    HitsCounter().Increment();
    return Outcome::kHit;
  }
  if (complete_) {
    NegativesCounter().Increment();
    return Outcome::kNegative;
  }
  FallbacksCounter().Increment();
  return Outcome::kFallback;
}

void EtiAccel::Invalidate(std::string_view gram, uint32_t coordinate,
                          uint32_t column) {
  InvalidationsCounter().Increment();
  const uint64_t hash = KeyHash(gram, coordinate, column);
  const size_t i = FindSlot(hash, gram, coordinate, column);
  Slot& s = slots_[i];
  if (s.state != kEmpty) {
    if (s.state != kSpill) {
      --resident_entries_;
      s.state = kSpill;
      obs::MetricsRegistry::Global()
          .GetGauge("eti_accel.entries")
          ->Set(static_cast<double>(resident_entries_));
    }
    return;
  }
  if (!complete_) {
    return;  // misses already consult the B-tree
  }
  // The key is new to the segment: place a spill marker so misses stay
  // authoritative negatives. When the marker cannot fit, completeness is
  // the thing that has to give — correct, just slower.
  if (used_slots_ + 1 > max_used_slots_ ||
      key_arena_.size() + gram.size() > key_arena_.capacity() ||
      gram.size() > UINT16_MAX) {
    complete_ = false;
    MarkerOverflowsCounter().Increment();
    return;
  }
  InsertAt(i, hash, gram, coordinate, column, 0, kSpill,
           std::string_view());
}

size_t EtiAccel::memory_bytes() const {
  return slots_.capacity() * sizeof(Slot) + key_arena_.capacity() +
         post_arena_.capacity();
}

}  // namespace fuzzymatch
