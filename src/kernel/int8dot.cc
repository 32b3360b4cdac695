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

/// The queries of one call as each level's tiles read them.
struct Queries {
  const int8_t* codes;  // [num_queries, dim]
  /// kAvx2: the codes widened to int16, [num_queries, dim].
  const int16_t* wide;
  /// kAvx2Vnni: 128 times the sum of each query's codes in [0, dim & ~31),
  /// the prefix the vpdpbusd tile scores, mod 2^32.
  uint32_t offset[kInt8ScanMaxQueries];
};

/// Scans rows [begin, end) against `Q` queries, writing the dot of row r and
/// query q to out[q * ldo + r].
using ScanFn = void (*)(const int8_t* codes, int64_t begin, int64_t end,
                        int64_t dim, const Queries& queries, int32_t* out,
                        int64_t ldo);

/// The portable loop: each code is loaded once for all Q queries, one int32
/// accumulator per query, and the j loop vectorises on its own where the
/// target allows.
template <int Q>
void ScanPortable(const int8_t* codes, int64_t begin, int64_t end,
                  int64_t dim, const Queries& queries, int32_t* out,
                  int64_t ldo) {
  for (int64_t r = begin; r < end; ++r) {
    const int8_t* row = codes + r * dim;
    int32_t acc[Q] = {};
    for (int64_t j = 0; j < dim; ++j) {
      const int32_t c = row[j];
      for (int q = 0; q < Q; ++q) {
        acc[q] += c * static_cast<int32_t>(queries.codes[q * dim + j]);
      }
    }
    for (int q = 0; q < Q; ++q) out[q * ldo + r] = acc[q];
  }
}

#if defined(__x86_64__)

/// Reduces a tile's eight accumulators (unused ones zero) to eight sums,
/// wrapping mod 2^32: hadd pairs lanes within each 128-bit half, g0 holds
/// the half-sums of accumulators 0-3 per half, g1 those of 4-7, and adding
/// the halves leaves sum i in lane i.
[[gnu::always_inline]] __attribute__((target("avx2"))) inline void
ReduceTile(const __m256i* acc, int32_t* sums) {
  const __m256i g0 =
      _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                        _mm256_hadd_epi32(acc[2], acc[3]));
  const __m256i g1 =
      _mm256_hadd_epi32(_mm256_hadd_epi32(acc[4], acc[5]),
                        _mm256_hadd_epi32(acc[6], acc[7]));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(sums),
      _mm256_add_epi32(_mm256_permute2x128_si256(g0, g1, 0x20),
                       _mm256_permute2x128_si256(g0, g1, 0x31)));
}

/// Adds the codes in [from, dim) of each row and query to its dot, on the
/// scalar side, and stores the tile.
template <int R, int Q>
[[gnu::always_inline]] inline void FinishTile(const int8_t* rows,
                                              int64_t from, int64_t dim,
                                              const int8_t* queries,
                                              const int32_t* dots,
                                              int32_t* out, int64_t ldo) {
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      int32_t dot = dots[q * R + r];
      for (int64_t j = from; j < dim; ++j) {
        dot += static_cast<int32_t>(rows[r * dim + j]) *
               static_cast<int32_t>(queries[q * dim + j]);
      }
      out[q * ldo + r] = dot;
    }
  }
}

/// One register tile: R rows x Q queries, R * Q <= 8. Each 16-code chunk of
/// a row is sign-extended to int16 once and multiplied against every query
/// by vpmaddwd, which sums product pairs into int32 lanes: products are <=
/// 127 * 127, so the arithmetic is exact. Compiled for AVX2 in this
/// function only: the TU targets baseline x86-64 and dispatch happens at
/// run time.
template <int R, int Q>
__attribute__((target("avx2"))) void TileAvx2(const int8_t* rows,
                                              int64_t dim,
                                              const Queries& queries,
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
            reinterpret_cast<const __m256i*>(queries.wide + q * dim + j));
        acc[q * R + r] =
            _mm256_add_epi32(acc[q * R + r], _mm256_madd_epi16(a, b));
      }
    }
  }
  int32_t dots[8];
  ReduceTile(acc, dots);
  FinishTile<R, Q>(rows, vec_end, dim, queries.codes, dots, out, ldo);
}

/// acc + vpdpbusd(a, b): each int32 lane of acc gains the four products of
/// its unsigned bytes of a and signed bytes of b, wrapping. Spelled in asm
/// because GCC 12 allocates _mm256_dpbusd_avx_epi32's tied accumulator
/// badly: the 2x4 tile copied every accumulator through a second register
/// and stored two to the stack on each step.
[[gnu::always_inline]] __attribute__((target("avx2,avxvnni"))) inline __m256i
DotBytesVnni(__m256i acc, __m256i a, __m256i b) {
  asm("%{vex%} vpdpbusd %2, %1, %0" : "+x"(acc) : "x"(a), "x"(b));
  return acc;
}

/// The same tile on AVX-VNNI. vpdpbusd multiplies unsigned by signed bytes
/// and adds each group of four products to an int32 lane, so each 32-code
/// chunk of a row is made unsigned once, c + 128 by flipping the sign bit,
/// and scored against every query's raw codes: the lanes then sum
/// (c + 128) * q, which is the dot plus 128 * sum(q) over the chunks. Lane
/// 0 of each accumulator starts at minus that offset instead of 0. The
/// lanes wrap rather than saturate, and so does the reduction, so the sum
/// is the dot mod 2^32; the true dot fits in int32 (|dot| <= 127 * 127 *
/// kInt8DotMaxElems < 2^31), so the wrapped result is exact. The codes past
/// the last full chunk are added on the scalar side, which is why the
/// offset sums only the first dim & ~31 codes.
template <int R, int Q>
__attribute__((target("avx2,avxvnni"))) void TileVnni(const int8_t* rows,
                                                      int64_t dim,
                                                      const Queries& queries,
                                                      int32_t* out,
                                                      int64_t ldo) {
  static_assert(R * Q <= 8);
  __m256i acc[8];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) acc[i] = _mm256_setzero_si256();
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) {
    const __m256i start = _mm256_zextsi128_si256(
        _mm_cvtsi32_si128(static_cast<int32_t>(0u - queries.offset[q])));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[q * R + r] = start;
  }
  const __m256i sign = _mm256_set1_epi8(static_cast<char>(0x80));
  const int64_t vec_end = dim & ~int64_t{31};
  for (int64_t j = 0; j < vec_end; j += 32) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256i a = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(rows + r * dim + j)),
          sign);
#pragma GCC unroll 4
      for (int q = 0; q < Q; ++q) {
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(queries.codes + q * dim + j));
        acc[q * R + r] = DotBytesVnni(acc[q * R + r], a, b);
      }
    }
  }
  int32_t dots[8];
  ReduceTile(acc, dots);
  FinishTile<R, Q>(rows, vec_end, dim, queries.codes, dots, out, ldo);
}

/// Full tiles of 8 / Q rows, then one row at a time for the remainder.
template <int Q>
__attribute__((target("avx2"))) void ScanAvx2(
    const int8_t* codes, int64_t begin, int64_t end, int64_t dim,
    const Queries& queries, int32_t* out, int64_t ldo) {
  constexpr int R = 8 / Q;
  int64_t r = begin;
  for (; r + R <= end; r += R) {
    TileAvx2<R, Q>(codes + r * dim, dim, queries, out + r, ldo);
  }
  for (; r < end; ++r) {
    TileAvx2<1, Q>(codes + r * dim, dim, queries, out + r, ldo);
  }
}

/// ScanAvx2 with the AVX-VNNI tile.
template <int Q>
__attribute__((target("avx2,avxvnni"))) void ScanVnni(
    const int8_t* codes, int64_t begin, int64_t end, int64_t dim,
    const Queries& queries, int32_t* out, int64_t ldo) {
  constexpr int R = 8 / Q;
  int64_t r = begin;
  for (; r + R <= end; r += R) {
    TileVnni<R, Q>(codes + r * dim, dim, queries, out + r, ldo);
  }
  for (; r < end; ++r) {
    TileVnni<1, Q>(codes + r * dim, dim, queries, out + r, ldo);
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
constexpr ScanTable kVnniScans = {&ScanVnni<1>, &ScanVnni<2>, &ScanVnni<3>,
                                  &ScanVnni<4>};
#endif

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
  ADAMINE_CHECK(dim >= 0 && dim <= kInt8DotMaxElems);
  ADAMINE_CHECK(num_queries >= 1 && num_queries <= kInt8ScanMaxQueries);
  Queries prepared{queries, nullptr, {}};
  const ScanFn* scans = kPortableScans;
  // Widened once per call: a caller that scans in steps pays it per step.
  std::vector<int16_t> wide;
#if defined(__x86_64__)
  switch (ActiveIsa()) {
    case Isa::kAvx512:  // The int8 tile stays 256 bits wide there.
    case Isa::kAvx2Vnni: {
      const int64_t vec_end = dim & ~int64_t{31};
      for (int q = 0; q < num_queries; ++q) {
        uint32_t sum = 0;
        for (int64_t j = 0; j < vec_end; ++j) {
          sum += static_cast<uint32_t>(queries[q * dim + j]);
        }
        prepared.offset[q] = sum << 7;
      }
      scans = kVnniScans;
      break;
    }
    case Isa::kAvx2:
      wide.assign(queries, queries + num_queries * dim);
      prepared.wide = wide.data();
      scans = kAvx2Scans;
      break;
    case Isa::kPortable:
      break;
  }
#endif
  const ScanFn scan = scans[num_queries - 1];
  ParallelFor(rows, kScanGrain, [&](int64_t begin, int64_t end) {
    scan(codes, begin, end, dim, prepared, out, rows);
  });
}

void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* query, int32_t* out) {
  Int8ScanRows(codes, rows, dim, query, 1, out);
}

const char* Int8DotIsa() {
  switch (ActiveIsa()) {
    case Isa::kAvx512:
    case Isa::kAvx2Vnni:
      return "avx2+vnni";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kPortable:
      break;
  }
  return "scalar";
}

}  // namespace adamine::kernel
