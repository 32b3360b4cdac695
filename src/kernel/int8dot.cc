#include "kernel/int8dot.h"

#include <vector>

#include "kernel/kernel.h"
#include "util/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adamine::kernel {
namespace {

/// Rows per parallel chunk: 32 KB of codes at D = 128, so the per-chunk
/// dispatch cost stays negligible.
constexpr int64_t kScanGrain = 256;

/// Scans rows [begin, end) against `Q` queries, writing the dot of row r and
/// query q to out[q * ldo + r]. `wide` holds the queries widened to int16
/// for the AVX2 tiles; the portable loop ignores it.
using ScanFn = void (*)(const int8_t* codes, int64_t begin, int64_t end,
                        int64_t dim, const int8_t* queries,
                        const int16_t* wide, int32_t* out, int64_t ldo);

/// The portable loop: each code is loaded once for all Q queries, one int32
/// accumulator per query, and the j loop vectorises on its own where the
/// target allows.
template <int Q>
void ScanPortable(const int8_t* codes, int64_t begin, int64_t end,
                  int64_t dim, const int8_t* queries,
                  const int16_t* /*wide*/, int32_t* out, int64_t ldo) {
  for (int64_t r = begin; r < end; ++r) {
    const int8_t* row = codes + r * dim;
    int32_t acc[Q] = {};
    for (int64_t j = 0; j < dim; ++j) {
      const int32_t c = row[j];
      for (int q = 0; q < Q; ++q) {
        acc[q] += c * static_cast<int32_t>(queries[q * dim + j]);
      }
    }
    for (int q = 0; q < Q; ++q) out[q * ldo + r] = acc[q];
  }
}

#if defined(__x86_64__)

/// One register tile: R rows x Q queries, R * Q <= 8. Each 16-code chunk of
/// a row is sign-extended to int16 once and multiplied against every query
/// by vpmaddwd, which sums product pairs into int32 lanes: products are <=
/// 127 * 127, so the arithmetic is exact. One hadd tree then reduces the
/// eight accumulators (unused ones stay zero) to eight dots, and the codes
/// past the last full chunk are added on the scalar side. Compiled for
/// AVX2 in this function only: the TU targets baseline x86-64 and dispatch
/// happens at run time.
template <int R, int Q>
__attribute__((target("avx2"))) void TileAvx2(const int8_t* rows,
                                              int64_t dim,
                                              const int8_t* queries,
                                              const int16_t* wide,
                                              int32_t* out, int64_t ldo) {
  static_assert(R * Q <= 8);
  __m256i acc[8];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) acc[i] = _mm256_setzero_si256();
  const int64_t vec_end = dim & ~int64_t{15};
  for (int64_t j = 0; j < vec_end; j += 16) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256i a = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rows + r * dim + j)));
#pragma GCC unroll 4
      for (int q = 0; q < Q; ++q) {
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wide + q * dim + j));
        acc[q * R + r] =
            _mm256_add_epi32(acc[q * R + r], _mm256_madd_epi16(a, b));
      }
    }
  }
  // hadd pairs lanes within each 128-bit half: g0 holds the half-sums of
  // accumulators 0-3 per half, g1 those of 4-7, and adding the halves
  // leaves dot i in lane i.
  const __m256i g0 =
      _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                        _mm256_hadd_epi32(acc[2], acc[3]));
  const __m256i g1 =
      _mm256_hadd_epi32(_mm256_hadd_epi32(acc[4], acc[5]),
                        _mm256_hadd_epi32(acc[6], acc[7]));
  alignas(32) int32_t dots[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(dots),
                     _mm256_add_epi32(_mm256_permute2x128_si256(g0, g1, 0x20),
                                      _mm256_permute2x128_si256(g0, g1, 0x31)));
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      int32_t dot = dots[q * R + r];
      for (int64_t j = vec_end; j < dim; ++j) {
        dot += static_cast<int32_t>(rows[r * dim + j]) *
               static_cast<int32_t>(queries[q * dim + j]);
      }
      out[q * ldo + r] = dot;
    }
  }
}

/// Full tiles of 8 / Q rows, then one row at a time for the remainder.
template <int Q>
__attribute__((target("avx2"))) void ScanAvx2(
    const int8_t* codes, int64_t begin, int64_t end, int64_t dim,
    const int8_t* queries, const int16_t* wide, int32_t* out, int64_t ldo) {
  constexpr int R = 8 / Q;
  int64_t r = begin;
  for (; r + R <= end; r += R) {
    TileAvx2<R, Q>(codes + r * dim, dim, queries, wide, out + r, ldo);
  }
  for (; r < end; ++r) {
    TileAvx2<1, Q>(codes + r * dim, dim, queries, wide, out + r, ldo);
  }
}

#endif  // __x86_64__

/// One scan per query count, indexed by num_queries - 1.
using ScanTable = ScanFn[kInt8ScanMaxQueries];

constexpr ScanTable kPortableScans = {&ScanPortable<1>, &ScanPortable<2>,
                                      &ScanPortable<3>, &ScanPortable<4>};

#if defined(__x86_64__)
constexpr ScanTable kAvx2Scans = {&ScanAvx2<1>, &ScanAvx2<2>, &ScanAvx2<3>,
                                  &ScanAvx2<4>};
#endif

const bool kUseAvx2 = CpuHasAvx2();

void ScanWith(const ScanTable& scans, bool widen, const int8_t* codes,
              int64_t rows, int64_t dim, const int8_t* queries,
              int num_queries, int32_t* out) {
  ADAMINE_CHECK(dim >= 0 && dim <= kInt8DotMaxElems);
  ADAMINE_CHECK(num_queries >= 1 && num_queries <= kInt8ScanMaxQueries);
  // Widened once per call: a caller that scans in steps pays it per step.
  std::vector<int16_t> wide;
  if (widen) wide.assign(queries, queries + num_queries * dim);
  const ScanFn scan = scans[num_queries - 1];
  ParallelFor(rows, kScanGrain, [&](int64_t begin, int64_t end) {
    scan(codes, begin, end, dim, queries, wide.data(), out, rows);
  });
}

}  // namespace

int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* queries, int num_queries, int32_t* out) {
#if defined(__x86_64__)
  if (kUseAvx2) {
    ScanWith(kAvx2Scans, /*widen=*/true, codes, rows, dim, queries,
             num_queries, out);
    return;
  }
#endif
  ScanWith(kPortableScans, /*widen=*/false, codes, rows, dim, queries,
           num_queries, out);
}

void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* query, int32_t* out) {
  Int8ScanRows(codes, rows, dim, query, 1, out);
}

const char* Int8DotIsa() { return kUseAvx2 ? "avx2" : "scalar"; }

namespace internal {

void Int8ScanRowsPortable(const int8_t* codes, int64_t rows, int64_t dim,
                          const int8_t* queries, int num_queries,
                          int32_t* out) {
  ScanWith(kPortableScans, /*widen=*/false, codes, rows, dim, queries,
           num_queries, out);
}

}  // namespace internal

}  // namespace adamine::kernel
