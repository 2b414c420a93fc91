// Tid-list codec: the variable-length Tid-list attribute of ETI rows.
//
// Lists are stored sorted ascending and delta-compressed with varints, so
// a 10,000-tid list of a near-stop q-gram stays compact.

#ifndef FUZZYMATCH_ETI_TID_LIST_H_
#define FUZZYMATCH_ETI_TID_LIST_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/simd_varint.h"
#include "storage/table.h"

namespace fuzzymatch {

/// Encodes a sorted, duplicate-free tid list.
std::string EncodeTidList(const std::vector<Tid>& tids);

/// Decodes a tid list; fails on corrupt or unsorted data.
Result<std::vector<Tid>> DecodeTidList(std::string_view blob);

/// Decodes into a caller-owned buffer (cleared first). The buffer's
/// capacity is reused across calls, so steady-state decoding allocates
/// nothing — the shape the query hot path needs. Uses the best SIMD
/// kernel this CPU supports (see common/simd_varint.h).
Status DecodeTidListInto(std::string_view blob, std::vector<Tid>* out);

/// Same, decoding with an explicit kernel — what the codec tests use to
/// run every kernel the CPU supports against the scalar reference.
Status DecodeTidListInto(SimdLevel level, std::string_view blob,
                         std::vector<Tid>* out);

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_ETI_TID_LIST_H_
