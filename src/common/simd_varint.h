// SIMD-accelerated decode of delta-compressed LEB128 varint runs — the
// byte layout of ETI tid-list postings (eti/tid_list.h).
//
// The persisted format is untouched: these kernels read the exact bytes
// EncodeTidList writes. The speedup comes from the shape of real posting
// lists: tids are dense, so almost every delta fits one LEB128 byte, and a
// 16/32-byte block whose continuation bits are all clear decodes to 16/32
// values with one load, one movemask test, a widen, and a SIMD prefix sum
// instead of 16/32 dependent scalar byte walks. Blocks containing
// multi-byte varints fall back to the scalar step for one value and
// re-enter the fast path.
//
// Dispatch: DetectSimdLevel() probes the CPU once (AVX2, then SSE4.1,
// else scalar); the platform alone picks the kernel. Builds with
// -DFM_SIMD=OFF (or non-x86-64 targets) compile only the scalar path and
// DetectSimdLevel() reports kScalar. Tests run every kernel the CPU
// supports on one machine by passing the level explicitly, with the
// scalar kernel as their reference.
//
// Every kernel is bounds-checked: truncated input, overlong varints,
// deltas overflowing uint32, and zero deltas (duplicate tids) all return
// Status::Corruption without reading past the buffer — the contract the
// torn-write fault gate (fault/faulty_env.h) tests against.

#ifndef FUZZYMATCH_COMMON_SIMD_VARINT_H_
#define FUZZYMATCH_COMMON_SIMD_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/result.h"

namespace fuzzymatch {

enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
};

/// The best level this binary + CPU supports, probed once (thread-safe).
SimdLevel DetectSimdLevel();

/// "scalar" / "sse4" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// Parses a level name; InvalidArgument on anything else.
Result<SimdLevel> ParseSimdLevel(std::string_view name);

/// Decodes exactly `count` LEB128 varints from `in`, treating each as a
/// strictly positive delta accumulated onto `base`, and appends the
/// `count` absolute values to `out` (which must have room for them).
/// Consumes the decoded bytes from `*in`. Fails with Corruption on
/// truncated or overlong varints, zero deltas, or accumulation past
/// UINT32_MAX; `*in` and `out` are then in an unspecified (but in-bounds)
/// state and the caller discards both.
Status DecodeDeltaVarints(SimdLevel level, std::string_view* in,
                          size_t count, uint32_t base, uint32_t* out);

/// The reference implementation the SIMD kernels are tested against.
Status DecodeDeltaVarintsScalar(std::string_view* in, size_t count,
                                uint32_t base, uint32_t* out);

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_COMMON_SIMD_VARINT_H_
