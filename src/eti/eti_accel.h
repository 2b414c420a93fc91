// EtiAccel: an immutable in-memory read-acceleration segment over the
// persisted ETI relation.
//
// The paper's query cost is dominated by ETI probes (Section 4.3): every
// coordinate of every input token is one [QGram, Coordinate, Column] key
// lookup, and the B-tree route pays index traversal, buffer-pool latching
// and row decoding per probe. The segment front-ends that route with a
// single open-addressed hash table built in one sequential scan of the
// ETI at FuzzyMatcher::Build/Open time:
//
//   - slots hold the key hash, the gram bytes (in a shared key arena),
//     the frequency, and an offset into a postings arena that stores the
//     tid-list exactly as persisted (delta-encoded varints);
//   - a probe is one hash, a short linear scan, and a varint decode into
//     a caller-owned scratch buffer — zero latching, zero allocation;
//   - a configurable byte budget caps residency. When the whole ETI does
//     not fit, the most frequent entries are admitted first (they are the
//     ones the weight-ordered OSC probe schedule touches most) and the
//     rest spill to the B-tree on miss;
//   - when every ETI row was admitted the segment is *complete*: a probe
//     miss is then an authoritative negative and skips the B-tree
//     entirely — the common case for q-grams of corrupted tokens.
//
// Maintenance coherence: IndexTuple/UnindexTuple write through to the
// B-tree and call Invalidate() for each touched key. A resident entry is
// demoted to a spill marker (next lookup re-reads the B-tree); a key the
// segment has never seen gets a fresh spill marker so completeness stays
// truthful, and if the marker cannot be placed (slot or arena headroom
// exhausted) the segment degrades to incomplete — correct, just slower.
//
// Thread safety follows the repo's shared-read latching model
// (DESIGN.md 5c/5d): any number of threads may Probe concurrently, each
// with its own scratch buffer; Build and Invalidate are writer-phase
// operations and must be exclusive with readers, exactly like the Eti
// maintenance entry points that drive them.

#ifndef FUZZYMATCH_ETI_ETI_ACCEL_H_
#define FUZZYMATCH_ETI_ETI_ACCEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace fuzzymatch {

struct EtiAccelOptions {
  /// Resident-set cap: slots + key arena + postings arena. Entries that
  /// do not fit stay B-tree-only. 0 admits nothing (every probe spills),
  /// which is only useful for tests; callers normally disable the
  /// accelerator instead of passing 0.
  size_t memory_budget_bytes = 64u << 20;
};

/// One lookup answer through caller-owned storage. `tids` points into the
/// scratch buffer passed to the lookup and stays valid until that buffer
/// is reused.
struct EtiLookupView {
  bool found = false;
  bool is_stop = false;
  uint32_t frequency = 0;
  const Tid* tids = nullptr;
  size_t num_tids = 0;
};

class EtiAccel {
 public:
  enum class Outcome {
    kHit,       // resident entry; *out is filled
    kNegative,  // authoritative "not indexed" (segment is complete)
    kFallback,  // not resident or invalidated: consult the B-tree
  };

  /// Builds the segment from the persisted ETI rows relation in two
  /// sequential scans (one to price and rank entries, one to load the
  /// admitted ones).
  static Result<std::shared_ptr<EtiAccel>> Build(
      const Table* rows, const EtiAccelOptions& options);

  /// The zero-latch, zero-allocation read path. On kHit, postings are
  /// decoded into `*scratch` and `out->tids` points at its data.
  Outcome Probe(std::string_view gram, uint32_t coordinate, uint32_t column,
                std::vector<Tid>* scratch, EtiLookupView* out) const;

  /// Probe with the key hash already computed (batched probing computes
  /// hashes for a whole tuple up front, prefetches, then probes). `hash`
  /// must be KeyHash(gram, coordinate, column).
  Outcome ProbeHashed(uint64_t hash, std::string_view gram,
                      uint32_t coordinate, uint32_t column,
                      std::vector<Tid>* scratch, EtiLookupView* out) const;

  /// The probe hash for a key — what ProbeHashed/PrefetchSlot take.
  static uint64_t KeyHash(std::string_view gram, uint32_t coordinate,
                          uint32_t column);

  /// Issues a prefetch for the key's home slot line, so a ProbeHashed a
  /// few probes later finds it in cache instead of stalling on DRAM.
  void PrefetchSlot(uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  /// Writer-phase coherence hook: demotes the key to a spill marker (or
  /// the whole segment to incomplete when no marker fits). Must not run
  /// concurrently with Probe, per the shared-read contract.
  void Invalidate(std::string_view gram, uint32_t coordinate,
                  uint32_t column);

  /// True when every ETI row is resident and no marker overflow happened:
  /// probe misses are then authoritative negatives.
  bool complete() const { return complete_; }

  /// Resident entries (including stop rows, excluding spill markers).
  size_t entry_count() const { return resident_entries_; }

  /// Bytes pinned by the segment (slots + arenas, at capacity).
  size_t memory_bytes() const;

  /// ETI rows seen / admitted by the build (spill ratio for telemetry).
  uint64_t rows_scanned() const { return rows_scanned_; }
  uint64_t rows_admitted() const { return rows_admitted_; }

 private:
  enum SlotState : uint8_t {
    kEmpty = 0,
    kValid = 1,  // frequency + resident postings
    kStop = 2,   // stop q-gram: frequency real, tid-list NULL
    kSpill = 3,  // invalidated or marker: consult the B-tree
  };

  struct Slot {
    uint64_t hash = 0;
    uint32_t key_offset = 0;
    uint32_t post_offset = 0;
    uint32_t post_len = 0;
    uint32_t frequency = 0;
    uint32_t coordinate = 0;
    uint32_t column = 0;
    uint16_t key_len = 0;
    uint8_t state = kEmpty;
  };

  EtiAccel() = default;

  /// Probe position of the key, or the first empty slot on its chain.
  size_t FindSlot(uint64_t hash, std::string_view gram, uint32_t coordinate,
                  uint32_t column) const;

  bool SlotMatches(const Slot& s, uint64_t hash, std::string_view gram,
                   uint32_t coordinate, uint32_t column) const;

  void InsertAt(size_t i, uint64_t hash, std::string_view gram,
                uint32_t coordinate, uint32_t column, uint32_t frequency,
                SlotState state, std::string_view postings);

  std::vector<Slot> slots_;   // power-of-two open-addressed table
  std::string key_arena_;     // gram bytes of resident keys + markers
  std::string post_arena_;    // delta-encoded tid-lists, as persisted
  size_t used_slots_ = 0;
  size_t max_used_slots_ = 0;  // marker headroom: keep load factor sane
  size_t resident_entries_ = 0;
  uint64_t rows_scanned_ = 0;
  uint64_t rows_admitted_ = 0;
  bool complete_ = false;
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_ETI_ETI_ACCEL_H_
