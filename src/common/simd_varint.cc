#include "common/simd_varint.h"

#include <cstring>

#if defined(FM_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define FM_SIMD_X86 1
#endif

namespace fuzzymatch {

namespace {

/// Decodes one LEB128 varint at `*p` as a strictly positive delta onto
/// `*acc`. Shared by the scalar loop and the SIMD kernels' slow step
/// (multi-byte varints inside a block), so every path enforces the same
/// bounds, duplicate, and overflow rules.
inline Status DecodeOneDelta(const uint8_t** p, const uint8_t* end,
                             uint32_t* acc, uint32_t* out_val) {
  uint64_t delta = 0;
  int shift = 0;
  const uint8_t* q = *p;
  for (;;) {
    if (q >= end) {
      return Status::Corruption("truncated varint in tid-list");
    }
    if (shift > 63) {
      return Status::Corruption("overlong varint in tid-list");
    }
    const uint8_t b = *q++;
    delta |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  if (delta == 0) {
    return Status::Corruption("duplicate tid in tid-list");
  }
  if (delta > UINT32_MAX - *acc) {
    return Status::Corruption("tid-list delta overflows uint32");
  }
  *acc += static_cast<uint32_t>(delta);
  *out_val = *acc;
  *p = q;
  return Status::OK();
}

#ifdef FM_SIMD_X86

/// Inclusive prefix sum of 4 u32 lanes, then adds the running base; the
/// new base is the top lane. SSE2 ops only, but kept behind the sse4.1
/// target attribute with its callers.
#define FM_PREFIX_SUM_STEP(vec)                              \
  do {                                                       \
    (vec) = _mm_add_epi32((vec), _mm_slli_si128((vec), 4));  \
    (vec) = _mm_add_epi32((vec), _mm_slli_si128((vec), 8));  \
  } while (0)

/// Decodes a 16-byte block known to hold 16 single-byte, non-zero deltas:
/// widen u8 -> u32, prefix-sum each group of 4, carry the base across
/// groups, store 16 absolute values.
__attribute__((target("sse4.1"))) inline void DecodeBlock16(
    __m128i chunk, uint32_t* acc, uint32_t* out) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo16 = _mm_unpacklo_epi8(chunk, zero);
  const __m128i hi16 = _mm_unpackhi_epi8(chunk, zero);
  __m128i groups[4] = {
      _mm_unpacklo_epi16(lo16, zero), _mm_unpackhi_epi16(lo16, zero),
      _mm_unpacklo_epi16(hi16, zero), _mm_unpackhi_epi16(hi16, zero)};
  uint32_t base = *acc;
  for (int g = 0; g < 4; ++g) {
    FM_PREFIX_SUM_STEP(groups[g]);
    groups[g] = _mm_add_epi32(groups[g], _mm_set1_epi32(
                                             static_cast<int>(base)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * g), groups[g]);
    base = static_cast<uint32_t>(_mm_extract_epi32(groups[g], 3));
  }
  *acc = base;
}

/// 16 single-byte deltas can add at most 16*127; starting above this
/// ceiling forces the (overflow-checked) scalar step instead.
constexpr uint32_t kMaxSafeBase16 = UINT32_MAX - 16u * 127u;
constexpr uint32_t kMaxSafeBase32 = UINT32_MAX - 32u * 127u;

__attribute__((target("sse4.1"))) Status DecodeDeltaVarintsSse4(
    std::string_view* in, size_t count, uint32_t base, uint32_t* out) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint8_t* end = p + in->size();
  uint32_t acc = base;
  size_t i = 0;
  while (i + 16 <= count && end - p >= 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    if (_mm_movemask_epi8(chunk) != 0 || acc > kMaxSafeBase16) {
      // A multi-byte varint somewhere in the block (or a base too close
      // to the u32 ceiling): decode one value the checked way, then
      // re-test the window one varint further along.
      FM_RETURN_IF_ERROR(DecodeOneDelta(&p, end, &acc, out + i));
      ++i;
      continue;
    }
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(chunk, _mm_setzero_si128())) !=
        0) {
      return Status::Corruption("duplicate tid in tid-list");
    }
    DecodeBlock16(chunk, &acc, out + i);
    p += 16;
    i += 16;
  }
  for (; i < count; ++i) {
    FM_RETURN_IF_ERROR(DecodeOneDelta(&p, end, &acc, out + i));
  }
  in->remove_prefix(static_cast<size_t>(
      p - reinterpret_cast<const uint8_t*>(in->data())));
  return Status::OK();
}

__attribute__((target("avx2"))) Status DecodeDeltaVarintsAvx2(
    std::string_view* in, size_t count, uint32_t base, uint32_t* out) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint8_t* end = p + in->size();
  uint32_t acc = base;
  size_t i = 0;
  while (i + 32 <= count && end - p >= 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    if (_mm256_movemask_epi8(chunk) != 0 || acc > kMaxSafeBase32) {
      FM_RETURN_IF_ERROR(DecodeOneDelta(&p, end, &acc, out + i));
      ++i;
      continue;
    }
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(
            chunk, _mm256_setzero_si256())) != 0) {
      return Status::Corruption("duplicate tid in tid-list");
    }
    DecodeBlock16(_mm256_castsi256_si128(chunk), &acc, out + i);
    DecodeBlock16(_mm256_extracti128_si256(chunk, 1), &acc, out + i + 16);
    p += 32;
    i += 32;
  }
  // Hand the sub-32 tail to the narrower kernel (which ends scalar).
  std::string_view rest(reinterpret_cast<const char*>(p),
                        static_cast<size_t>(end - p));
  FM_RETURN_IF_ERROR(
      DecodeDeltaVarintsSse4(&rest, count - i, acc, out + i));
  in->remove_prefix(in->size() - rest.size());
  return Status::OK();
}

#undef FM_PREFIX_SUM_STEP

#endif  // FM_SIMD_X86

SimdLevel DetectSimdLevelUncached() {
  SimdLevel hw = SimdLevel::kScalar;
#ifdef FM_SIMD_X86
  if (__builtin_cpu_supports("avx2")) {
    hw = SimdLevel::kAvx2;
  } else if (__builtin_cpu_supports("sse4.1")) {
    hw = SimdLevel::kSse4;
  }
#endif
  return hw;
}

}  // namespace

SimdLevel DetectSimdLevel() {
  static const SimdLevel level = DetectSimdLevelUncached();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse4:
      return "sse4";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<SimdLevel> ParseSimdLevel(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "sse4") return SimdLevel::kSse4;
  if (name == "avx2") return SimdLevel::kAvx2;
  return Status::InvalidArgument("unknown SIMD level: " +
                                 std::string(name));
}

Status DecodeDeltaVarintsScalar(std::string_view* in, size_t count,
                                uint32_t base, uint32_t* out) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint8_t* end = p + in->size();
  uint32_t acc = base;
  for (size_t i = 0; i < count; ++i) {
    FM_RETURN_IF_ERROR(DecodeOneDelta(&p, end, &acc, out + i));
  }
  in->remove_prefix(static_cast<size_t>(
      p - reinterpret_cast<const uint8_t*>(in->data())));
  return Status::OK();
}

Status DecodeDeltaVarints(SimdLevel level, std::string_view* in,
                          size_t count, uint32_t base, uint32_t* out) {
#ifdef FM_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return DecodeDeltaVarintsAvx2(in, count, base, out);
    case SimdLevel::kSse4:
      return DecodeDeltaVarintsSse4(in, count, base, out);
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return DecodeDeltaVarintsScalar(in, count, base, out);
}

}  // namespace fuzzymatch
