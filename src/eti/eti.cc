#include "eti/eti.h"

#include <cstring>

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "eti/signature.h"
#include "eti/tid_list.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/key_codec.h"

namespace fuzzymatch {

namespace {

obs::Counter& ProbesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti.probes");
  return *c;
}

obs::Counter& ProbeHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti.probe_hits");
  return *c;
}

obs::Counter& TidListBytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti.tidlist_bytes_decoded");
  return *c;
}

std::string EncodeU32Field(uint32_t v) {
  std::string out(4, '\0');
  std::memcpy(out.data(), &v, 4);
  return out;
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

std::string EtiParams::StrategyName() const {
  if (full_qgram_index) {
    return index_tokens ? "FULLQG+T" : "FULLQG";
  }
  return StringPrintf("%s_%d", index_tokens ? "Q+T" : "Q", signature_size);
}

Eti::Eti(Table* rows, BPlusTree* index, EtiParams params)
    : params_(std::move(params)) {
  EtiStorage s;
  s.rows = rows;
  s.index = index;
  InstallStorage(std::move(s));
}

// std::atomic is not movable, so the compiler cannot generate these; the
// owner vector moves wholesale, which keeps the published pointer valid.
Eti::Eti(Eti&& other) noexcept
    : params_(std::move(other.params_)),
      storage_owner_(std::move(other.storage_owner_)) {
  storage_.store(other.storage_.load(std::memory_order_acquire),
                 std::memory_order_release);
  other.storage_.store(nullptr, std::memory_order_release);
}

Eti& Eti::operator=(Eti&& other) noexcept {
  if (this != &other) {
    params_ = std::move(other.params_);
    storage_owner_ = std::move(other.storage_owner_);
    storage_.store(other.storage_.load(std::memory_order_acquire),
                   std::memory_order_release);
    other.storage_.store(nullptr, std::memory_order_release);
  }
  return *this;
}

Eti::Eti(const Eti& other) : params_(other.params_) {
  InstallStorage(EtiStorage(other.storage()));
}

Eti& Eti::operator=(const Eti& other) {
  if (this != &other) {
    params_ = other.params_;
    InstallStorage(EtiStorage(other.storage()));
  }
  return *this;
}

void Eti::InstallStorage(EtiStorage next) {
  storage_owner_.push_back(std::make_unique<EtiStorage>(std::move(next)));
  storage_.store(storage_owner_.back().get(), std::memory_order_release);
}

void Eti::SwapStorageFrom(const Eti& other) {
  InstallStorage(EtiStorage(other.storage()));
}

Schema Eti::RowSchema() {
  return Schema({"qgram", "coordinate", "column", "frequency", "tidlist"});
}

std::string Eti::IndexKey(std::string_view gram, uint32_t coordinate,
                          uint32_t column) {
  KeyEncoder enc;
  enc.AppendString(gram).AppendU32(coordinate).AppendU32(column);
  return enc.Take();
}

Row Eti::EncodeRow(std::string_view gram, uint32_t coordinate,
                   uint32_t column, const EtiEntry& entry) {
  Row row(5);
  row[0] = std::string(gram);
  row[1] = EncodeU32Field(coordinate);
  row[2] = EncodeU32Field(column);
  row[3] = EncodeU32Field(entry.frequency);
  if (entry.is_stop) {
    row[4] = std::nullopt;  // NULL tid-list, per the paper
  } else {
    row[4] = EncodeTidList(entry.tids);
  }
  return row;
}

Result<EtiEntry> Eti::DecodeEntry(const Row& row) {
  if (row.size() != 5) {
    return Status::Corruption("ETI row has wrong arity");
  }
  EtiEntry entry;
  FM_ASSIGN_OR_RETURN(entry.frequency, DecodeU32Field(row[3]));
  if (!row[4].has_value()) {
    entry.is_stop = true;
    return entry;
  }
  FM_ASSIGN_OR_RETURN(entry.tids, DecodeTidList(*row[4]));
  return entry;
}

void Eti::InvalidateAccel(std::string_view gram, uint32_t coordinate,
                          uint32_t column) {
  const EtiStorage& s = storage();
  if (s.accel == nullptr) {
    return;
  }
  FM_FAIL_POINT_VOID("eti.accel_invalidate");
  s.accel->Invalidate(gram, coordinate, column);
}

Status Eti::MutateEntry(std::string_view gram, uint32_t coordinate,
                        uint32_t column, Tid tid, bool add) {
  FM_FAIL_POINT("eti.mutate_entry");
  const EtiStorage& s = storage();
  const std::string key = IndexKey(gram, coordinate, column);
  auto rid_bytes = s.index->Get(key);
  if (!rid_bytes.ok()) {
    if (!rid_bytes.status().IsNotFound()) {
      return rid_bytes.status();
    }
    if (!add) {
      return Status::OK();  // removing a coordinate that was never there
    }
    // Fresh row for a brand-new coordinate.
    EtiEntry entry;
    entry.frequency = 1;
    entry.tids = {tid};
    FM_ASSIGN_OR_RETURN(
        const Table::InsertInfo info,
        s.rows->InsertWithLocation(EncodeRow(gram, coordinate, column,
                                             entry)));
    const Status indexed = s.index->Insert(key, info.rid.Encode());
    if (!indexed.ok()) {
      // Unwind the row insert so a failed coordinate leaves no unindexed
      // orphan behind; if even the unwind fails the orphan is invisible
      // to lookups (nothing points at it) and harmless.
      const Status unwound = s.rows->Delete(info.tid);
      if (!unwound.ok()) {
        FM_LOG(Warning) << "ETI row unwind after failed index insert: "
                        << unwound;
      }
      return indexed;
    }
    InvalidateAccel(gram, coordinate, column);
    return Status::OK();
  }

  FM_ASSIGN_OR_RETURN(const Rid rid, Rid::Decode(*rid_bytes));
  FM_ASSIGN_OR_RETURN(const Row row, s.rows->GetByRid(rid));
  FM_ASSIGN_OR_RETURN(EtiEntry entry, DecodeEntry(row));

  if (add) {
    if (entry.is_stop) {
      ++entry.frequency;
    } else {
      if (!entry.tids.empty() && entry.tids.back() == tid) {
        // Already applied: a retry after a mid-tuple failure re-visits
        // coordinates that committed the first time. Skip without
        // touching the frequency so the retry converges.
        return Status::OK();
      }
      if (!entry.tids.empty() && entry.tids.back() > tid) {
        return Status::InvalidArgument(
            "IndexTuple requires monotonically growing tids");
      }
      entry.tids.push_back(tid);
      ++entry.frequency;
      if (entry.frequency > params_.stop_qgram_threshold) {
        entry.is_stop = true;
        entry.tids.clear();
      }
    }
  } else {
    if (entry.frequency == 0) {
      return Status::Corruption("ETI row with zero frequency");
    }
    --entry.frequency;
    if (!entry.is_stop) {
      const auto it =
          std::find(entry.tids.begin(), entry.tids.end(), tid);
      if (it == entry.tids.end()) {
        return Status::NotFound("tid not present in ETI row");
      }
      entry.tids.erase(it);
      // A now-empty row stays in the relation with frequency 0 (rows are
      // never physically reclaimed; lookups simply yield no tids).
    }
  }

  // Two-phase relocation: the old image stays readable until the
  // clustered index points at the new one, so a failure at any step
  // leaves the key resolvable (old or new image) and the retry converges.
  FM_ASSIGN_OR_RETURN(
      const Rid new_rid,
      s.rows->ReplaceByRid(rid, EncodeRow(gram, coordinate, column, entry)));
  if (new_rid != rid) {
    FM_RETURN_IF_ERROR(s.index->Put(key, new_rid.Encode()));
    const Status erased = s.rows->EraseRid(rid);
    if (!erased.ok()) {
      // The superseded image is unreachable (nothing points at it);
      // leaking it is harmless, so the mutation still counts as applied.
      FM_LOG(Warning) << "ETI row erase after relocation: " << erased;
    }
  }
  InvalidateAccel(gram, coordinate, column);
  return Status::OK();
}

Status Eti::IndexTuple(Tid tid, const TokenizedTuple& tokens) {
  FM_FAIL_POINT("eti.index_tuple");
  const MinHasher hasher = MakeHasher();
  for (uint32_t col = 0; col < tokens.size(); ++col) {
    // Dedupe per column: a token appearing twice contributes once.
    std::vector<std::string> distinct(tokens[col]);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    // Coordinates can also repeat across distinct tokens (two tokens with
    // the same min-hash coordinate); dedupe those as well.
    std::vector<std::pair<std::string, uint32_t>> coords;
    for (const auto& token : distinct) {
      for (const auto& tc :
           MakeTokenCoordinates(hasher, params_, token, 0.0)) {
        coords.emplace_back(tc.gram, tc.coordinate);
      }
    }
    std::sort(coords.begin(), coords.end());
    coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
    for (const auto& [gram, coordinate] : coords) {
      FM_RETURN_IF_ERROR(MutateEntry(gram, coordinate, col, tid, true));
    }
  }
  return Status::OK();
}

Status Eti::UnindexTuple(Tid tid, const TokenizedTuple& tokens) {
  const MinHasher hasher = MakeHasher();
  struct Coord {
    std::string gram;
    uint32_t coordinate;
    uint32_t column;
  };
  std::vector<Coord> coords;
  for (uint32_t col = 0; col < tokens.size(); ++col) {
    std::vector<std::string> distinct(tokens[col]);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<std::pair<std::string, uint32_t>> col_coords;
    for (const auto& token : distinct) {
      for (const auto& tc :
           MakeTokenCoordinates(hasher, params_, token, 0.0)) {
        col_coords.emplace_back(tc.gram, tc.coordinate);
      }
    }
    std::sort(col_coords.begin(), col_coords.end());
    col_coords.erase(std::unique(col_coords.begin(), col_coords.end()),
                     col_coords.end());
    for (auto& [gram, coordinate] : col_coords) {
      coords.push_back(Coord{std::move(gram), coordinate, col});
    }
  }

  // Read-only evidence pass: decide which coordinates still reference the
  // tid before mutating anything. A stop row's NULL tid-list cannot be
  // checked, so it always counts (and gets its frequency decremented); a
  // live row without the tid is skipped, which makes a retry after a
  // mid-tuple failure converge instead of tripping on the coordinates the
  // first attempt already removed.
  bool referenced = coords.empty();  // vacuously done: nothing to remove
  const EtiStorage& s = storage();
  std::vector<bool> apply(coords.size(), false);
  for (size_t i = 0; i < coords.size(); ++i) {
    const std::string key =
        IndexKey(coords[i].gram, coords[i].coordinate, coords[i].column);
    auto rid_bytes = s.index->Get(key);
    if (!rid_bytes.ok()) {
      if (rid_bytes.status().IsNotFound()) {
        continue;
      }
      return rid_bytes.status();
    }
    FM_ASSIGN_OR_RETURN(const Rid rid, Rid::Decode(*rid_bytes));
    FM_ASSIGN_OR_RETURN(const Row row, s.rows->GetByRid(rid));
    FM_ASSIGN_OR_RETURN(const EtiEntry entry, DecodeEntry(row));
    if (entry.is_stop ||
        std::find(entry.tids.begin(), entry.tids.end(), tid) !=
            entry.tids.end()) {
      referenced = true;
      apply[i] = true;
    }
  }
  if (!referenced) {
    return Status::NotFound(
        StringPrintf("tid %u is not indexed in the ETI", tid));
  }

  for (size_t i = 0; i < coords.size(); ++i) {
    if (!apply[i]) {
      continue;
    }
    FM_FAIL_POINT("eti.unindex_tuple");
    FM_RETURN_IF_ERROR(MutateEntry(coords[i].gram, coords[i].coordinate,
                                   coords[i].column, tid, false));
  }
  return Status::OK();
}

Status SaveEtiParams(Database* db, const std::string& eti_name,
                     const EtiParams& params) {
  FM_ASSIGN_OR_RETURN(Table * meta,
                      db->CreateTable(eti_name + "_meta",
                                      Schema({"key", "value"})));
  const std::vector<std::pair<std::string, std::string>> kv = {
      {"q", StringPrintf("%d", params.q)},
      {"signature_size", StringPrintf("%d", params.signature_size)},
      {"index_tokens", params.index_tokens ? "1" : "0"},
      {"full_qgram_index", params.full_qgram_index ? "1" : "0"},
      {"stop_qgram_threshold",
       StringPrintf("%u", params.stop_qgram_threshold)},
      {"minhash_seed",
       StringPrintf("%llu",
                    static_cast<unsigned long long>(params.minhash_seed))},
      {"delimiters", params.delimiters},
  };
  for (const auto& [key, value] : kv) {
    FM_RETURN_IF_ERROR(meta->Insert(Row{key, value}).status());
  }
  return Status::OK();
}

Result<EtiParams> LoadEtiParams(Database* db, const std::string& eti_name) {
  FM_ASSIGN_OR_RETURN(Table * meta, db->GetTable(eti_name + "_meta"));
  EtiParams params;
  Table::Scanner scanner = meta->Scan();
  Tid tid;
  Row row;
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, scanner.Next(&tid, &row));
    if (!more) break;
    if (row.size() != 2 || !row[0] || !row[1]) {
      return Status::Corruption("bad ETI meta row");
    }
    const std::string& key = *row[0];
    const std::string& value = *row[1];
    if (key == "q") {
      params.q = std::atoi(value.c_str());
    } else if (key == "signature_size") {
      params.signature_size = std::atoi(value.c_str());
    } else if (key == "index_tokens") {
      params.index_tokens = (value == "1");
    } else if (key == "full_qgram_index") {
      params.full_qgram_index = (value == "1");
    } else if (key == "stop_qgram_threshold") {
      params.stop_qgram_threshold =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "minhash_seed") {
      params.minhash_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "delimiters") {
      params.delimiters = value;
    }
  }
  return params;
}

Result<std::optional<EtiEntry>> Eti::Lookup(std::string_view gram,
                                            uint32_t coordinate,
                                            uint32_t column) const {
  EtiScratch scratch;
  FM_ASSIGN_OR_RETURN(const EtiLookupView view,
                      LookupInto(gram, coordinate, column, &scratch));
  if (!view.found) {
    return std::optional<EtiEntry>(std::nullopt);
  }
  EtiEntry entry;
  entry.frequency = view.frequency;
  entry.is_stop = view.is_stop;
  entry.tids.assign(view.tids, view.tids + view.num_tids);
  return std::optional<EtiEntry>(std::move(entry));
}

Result<EtiLookupView> Eti::LookupInto(std::string_view gram,
                                      uint32_t coordinate, uint32_t column,
                                      EtiScratch* scratch) const {
  const uint64_t hash =
      accel_probes_active() ? ProbeHash(gram, coordinate, column) : 0;
  return LookupHashed(hash, gram, coordinate, column, scratch);
}

Result<EtiLookupView> Eti::LookupHashed(uint64_t hash, std::string_view gram,
                                        uint32_t coordinate, uint32_t column,
                                        EtiScratch* scratch) const {
  ProbesCounter().Increment();
  // One coherent snapshot for the whole probe: a concurrent rebuild swap
  // cannot mix the old index with the new rows mid-lookup.
  const EtiStorage& s = storage();
  if (s.accel) {
    EtiLookupView view;
    switch (s.accel->ProbeHashed(hash, gram, coordinate, column,
                                 &scratch->tids, &view)) {
      case EtiAccel::Outcome::kHit:
        ProbeHitsCounter().Increment();
        obs::AddTraceCount("accel_hits", 1);
        return view;
      case EtiAccel::Outcome::kNegative:
        obs::AddTraceCount("accel_hits", 1);
        return EtiLookupView{};
      case EtiAccel::Outcome::kFallback:
        obs::AddTraceCount("accel_fallbacks", 1);
        break;  // consult the B-tree
    }
  }
  // B-tree fallback: encode the key into scratch capacity.
  KeyEncoder enc;
  enc.Adopt(std::move(scratch->key));
  enc.AppendString(gram).AppendU32(coordinate).AppendU32(column);
  scratch->key = enc.Take();
  auto rid_bytes = s.index->Get(scratch->key);
  if (!rid_bytes.ok()) {
    if (rid_bytes.status().IsNotFound()) {
      return EtiLookupView{};
    }
    return rid_bytes.status();
  }
  FM_ASSIGN_OR_RETURN(const Rid rid, Rid::Decode(*rid_bytes));
  FM_ASSIGN_OR_RETURN(const Row row, s.rows->GetByRid(rid));
  if (row.size() != 5) {
    return Status::Corruption("ETI row has wrong arity");
  }
  EtiLookupView view;
  view.found = true;
  FM_ASSIGN_OR_RETURN(view.frequency, DecodeU32Field(row[3]));
  if (!row[4].has_value()) {
    view.is_stop = true;
    ProbeHitsCounter().Increment();
    return view;
  }
  TidListBytesCounter().Increment(row[4]->size());
  FM_RETURN_IF_ERROR(DecodeTidListInto(*row[4], &scratch->tids));
  view.tids = scratch->tids.data();
  view.num_tids = scratch->tids.size();
  ProbeHitsCounter().Increment();
  return view;
}

Status Eti::AttachAccelerator(const EtiAccelOptions& options) {
  FM_ASSIGN_OR_RETURN(std::shared_ptr<EtiAccel> accel,
                      EtiAccel::Build(storage().rows, options));
  EtiStorage next = storage();
  next.accel = std::move(accel);
  InstallStorage(std::move(next));
  return Status::OK();
}

}  // namespace fuzzymatch
