#include "kernel/int8dot.h"

#include "kernel/kernel.h"
#include "util/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adamine::kernel {
namespace {

/// Auto-vec-friendly scalar loop: int32 widening in the loop body, no
/// branches, contiguous loads — gcc/clang turn this into pmaddwd-ish code on
/// their own when the target allows, and it is the portable fallback
/// everywhere else.
int32_t Int8DotScalar(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

#if defined(__x86_64__)

/// AVX2 kernel, compiled for this function only (the TU itself is built for
/// the baseline target, so the binary still runs on non-AVX2 machines and
/// dispatch happens at runtime). 32 codes per iteration: each 16-byte half
/// is sign-extended to i16, multiplied pairwise and horizontally added to
/// i32 by vpmaddwd, then accumulated. Products are <= 127 * 127 and madd
/// sums two of them, far inside i16-pair -> i32 range, so the arithmetic is
/// exact and bit-equal to the scalar loop by construction.
__attribute__((target("avx2"))) int32_t Int8DotAvx2(const int8_t* a,
                                                    const int8_t* b,
                                                    int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i a_lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i a_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16));
    const __m128i b_lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i b_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 16));
    const __m256i prod_lo = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a_lo),
                                              _mm256_cvtepi8_epi16(b_lo));
    const __m256i prod_hi = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a_hi),
                                              _mm256_cvtepi8_epi16(b_hi));
    acc = _mm256_add_epi32(acc, _mm256_add_epi32(prod_lo, prod_hi));
  }
  // Horizontal sum of the 8 i32 lanes.
  const __m128i half = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
  const __m128i pair = _mm_add_epi32(half, _mm_srli_si128(half, 8));
  const __m128i one = _mm_add_epi32(pair, _mm_srli_si128(pair, 4));
  int32_t total = _mm_cvtsi128_si32(one);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

#endif  // __x86_64__

const bool kUseAvx2 = CpuHasAvx2();

}  // namespace

int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

int32_t Int8Dot(const int8_t* a, const int8_t* b, int64_t n) {
#if defined(__x86_64__)
  if (kUseAvx2) return Int8DotAvx2(a, b, n);
#endif
  return Int8DotScalar(a, b, n);
}

const char* Int8DotIsa() { return kUseAvx2 ? "avx2" : "scalar"; }

void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* query, int32_t* out) {
  ADAMINE_CHECK(dim >= 0 && dim <= kInt8DotMaxElems);
  ParallelFor(rows, kRowGrain, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      out[r] = Int8Dot(codes + r * dim, query, dim);
    }
  });
}

}  // namespace adamine::kernel
