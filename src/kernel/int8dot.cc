#include "kernel/int8dot.h"

#include <algorithm>
#include <vector>

#include "kernel/kernel.h"
#include "util/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adamine::kernel {
namespace {

/// Rows per parallel chunk: 32 KB of codes at D = 128, so the per-chunk
/// dispatch cost stays negligible. A multiple of the AMX tile's 16 rows, so
/// only a call's last chunk can end in a partial tile.
constexpr int64_t kScanGrain = 256;
static_assert(kScanGrain % 16 == 0);

/// Queries per register tile below Isa::kAmx: a call's queries are scanned
/// in groups of up to four.
constexpr int kGroupQueries = 4;

/// The queries of one call as each level's tiles read them.
struct Queries {
  const int8_t* codes;  // [count, dim]
  int count;
  /// kAvx2: the codes widened to int16, [count, dim].
  const int16_t* wide;
  /// kAvx2Vnni and up: 128 times the sum of each query's codes in
  /// [0, dim & ~31), the prefix the vpdpbusd tile scores, mod 2^32.
  const uint32_t* offset;
  /// kAmx: the codes packed into B tiles (PackTiles).
  const int8_t* tiles;
};

/// Queries [first, first + count) of `queries`, for the tiles below kAmx.
Queries Slice(const Queries& queries, int first, int count, int64_t dim) {
  Queries slice = queries;
  slice.codes += first * dim;
  if (slice.wide != nullptr) slice.wide += first * dim;
  if (slice.offset != nullptr) slice.offset += first;
  slice.count = count;
  return slice;
}

/// Scans rows [begin, end) against `queries`, writing the dot of row r and
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

/// One scan per group size, indexed by the group's query count - 1.
using ScanTable = ScanFn[kGroupQueries];

/// Runs a level's tiles over rows [begin, end) one group of up to four
/// queries at a time, so the chunk's codes stay in cache across groups.
template <const ScanTable& kScans>
void ScanGroups(const int8_t* codes, int64_t begin, int64_t end, int64_t dim,
                const Queries& queries, int32_t* out, int64_t ldo) {
  for (int first = 0; first < queries.count; first += kGroupQueries) {
    const int count = std::min(kGroupQueries, queries.count - first);
    kScans[count - 1](codes, begin, end, dim,
                      Slice(queries, first, count, dim), out + first * ldo,
                      ldo);
  }
}

constexpr ScanTable kPortableScans = {&ScanPortable<1>, &ScanPortable<2>,
                                      &ScanPortable<3>, &ScanPortable<4>};

#if defined(__x86_64__)
constexpr ScanTable kAvx2Scans = {&ScanAvx2<1>, &ScanAvx2<2>, &ScanAvx2<3>,
                                  &ScanAvx2<4>};
constexpr ScanTable kVnniScans = {&ScanVnni<1>, &ScanVnni<2>, &ScanVnni<3>,
                                  &ScanVnni<4>};

/// Each query's VNNI offset (Queries::offset) into offset[0, count).
void VnniOffsets(const int8_t* queries, int count, int64_t dim,
                 uint32_t* offset) {
  const int64_t vec_end = dim & ~int64_t{31};
  for (int q = 0; q < count; ++q) {
    uint32_t sum = 0;
    for (int64_t j = 0; j < vec_end; ++j) {
      sum += static_cast<uint32_t>(queries[q * dim + j]);
    }
    offset[q] = sum << 7;
  }
}

// --- AMX-INT8 ---------------------------------------------------------------
//
// TDPBSSD multiplies a tile of 16 rows x 64 signed bytes (A: 16 code rows,
// one 64-code chunk, loaded straight from the row-major codes with stride
// dim) by a tile of 16 rows x 4 * Q signed bytes (B: the chunk of Q <= 16
// queries in VNNI order, four codes of each query per row) and adds each
// group of four products to the int32 lanes of a 16 x Q tile C. Signed
// times signed needs no offset, and the lanes wrap like the VNNI tile's:
// every dot fits in int32 (int8dot.h), so C holds it exactly.

/// Bytes of one packed B tile: 16 rows of 64.
constexpr int64_t kTileBytes = 1024;

/// ldtilecfg's operand, palette 1: tile t is rows[t] x colsb[t] bytes, and
/// a tile left at 0 x 0 is unusable.
struct alignas(64) TileConfig {
  uint8_t palette = 1;
  uint8_t start_row = 0;
  uint8_t reserved[14] = {};
  uint16_t colsb[16] = {};
  uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64);

// The tile instructions in asm of their own: GCC 12's _tile_loadd and
// _tile_stored macros declare no memory access, so the compiler could sink
// a store of the packed queries past a tile load, or hoist a load of C
// above the tile store that fills it. The "memory" clobber orders both.
template <int T>
[[gnu::always_inline]] inline void TileLoad(const void* base,
                                            int64_t stride) {
  asm volatile("tileloadd (%0,%1,1), %%tmm%c2"
               :
               : "r"(base), "r"(stride), "i"(T)
               : "memory");
}

template <int T>
[[gnu::always_inline]] inline void TileStore(void* base, int64_t stride) {
  asm volatile("tilestored %%tmm%c2, (%0,%1,1)"
               :
               : "r"(base), "r"(stride), "i"(T)
               : "memory");
}

template <int T>
[[gnu::always_inline]] inline void TileZero() {
  asm volatile("tilezero %%tmm%c0" : : "i"(T));
}

/// tmm C += tmm A times tmm B, signed bytes into int32 lanes.
template <int C, int A, int B>
[[gnu::always_inline]] inline void TileDotBytes() {
  asm volatile("tdpbssd %%tmm%c2, %%tmm%c1, %%tmm%c0"
               :
               : "i"(C), "i"(A), "i"(B));
}

/// Transposes a 16 x 16 block of int32 lanes in place: lane j of v[i]
/// becomes lane i of v[j]. Two unpack rounds transpose each 128-bit lane's
/// 4 x 4 blocks, and two rounds of 128-bit shuffles move the blocks. The
/// zero-masked forms with every lane selected are the plain instructions;
/// GCC 12's plain intrinsics pass an undefined vector through, which it
/// then warns may be used uninitialized.
[[gnu::always_inline]] __attribute__((target("avx512f"))) inline void
Transpose16x16(__m512i* v) {
  constexpr __mmask16 kAll = 0xFFFF;
  __m512i t[16];
#pragma GCC unroll 8
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_maskz_unpacklo_epi32(kAll, v[i], v[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_epi32(kAll, v[i], v[i + 1]);
  }
#pragma GCC unroll 4
  for (int i = 0; i < 16; i += 4) {
    v[i] = _mm512_maskz_unpacklo_epi64(0xFF, t[i], t[i + 2]);
    v[i + 1] = _mm512_maskz_unpackhi_epi64(0xFF, t[i], t[i + 2]);
    v[i + 2] = _mm512_maskz_unpacklo_epi64(0xFF, t[i + 1], t[i + 3]);
    v[i + 3] = _mm512_maskz_unpackhi_epi64(0xFF, t[i + 1], t[i + 3]);
  }
  // Each 128-bit lane b of v[i + j] now holds column 4b + j of rows i to
  // i + 3.
#pragma GCC unroll 2
  for (int i = 0; i < 16; i += 8) {
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const __m512i a = v[i + j];
      const __m512i b = v[i + 4 + j];
      t[i + j] = _mm512_maskz_shuffle_i32x4(kAll, a, b, 0x88);
      t[i + 4 + j] = _mm512_maskz_shuffle_i32x4(kAll, a, b, 0xDD);
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    v[j] = _mm512_maskz_shuffle_i32x4(kAll, t[j], t[8 + j], 0x88);
    v[8 + j] = _mm512_maskz_shuffle_i32x4(kAll, t[j], t[8 + j], 0xDD);
    v[4 + j] = _mm512_maskz_shuffle_i32x4(kAll, t[4 + j], t[12 + j], 0x88);
    v[12 + j] = _mm512_maskz_shuffle_i32x4(kAll, t[4 + j], t[12 + j], 0xDD);
  }
}

/// Packs `count` queries into B tiles, one per 64-code chunk plus one for
/// the tail's last multiple of four codes: row i of tile k holds codes
/// [64k + 4i, 64k + 4i + 4) of query 0, then of query 1, and so on, which
/// is the transpose of the queries' chunks taken as 16 x 16 int32 lanes.
/// The tail's loads are masked, so no byte past a query's end is read.
__attribute__((target("avx512f,avx512bw"))) void PackTiles(
    const int8_t* queries, int count, int64_t dim, int8_t* tiles) {
  for (int64_t j = 0; j < (dim & ~int64_t{3}); j += 64) {
    const int64_t bytes = std::min<int64_t>(64, dim - j) & ~int64_t{3};
    const __mmask64 mask =
        bytes == 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
    __m512i v[16];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      v[q] = q < count ? _mm512_maskz_loadu_epi8(mask, queries + q * dim + j)
                       : _mm512_setzero_si512();
    }
    Transpose16x16(v);
    int8_t* tile = tiles + j / 64 * kTileBytes;
    for (int64_t i = 0; i < bytes / 4; ++i) {
      _mm512_storeu_si512(tile + i * 64, v[i]);
    }
  }
}

/// Stores C tile T, the dots of 16 rows by `count` queries, to out[q * ldo
/// + r] through `spill` (16 x 16 int32, zero past column count), whose
/// rows are transposed in registers.
template <int T>
[[gnu::always_inline]] __attribute__((target("avx512f"))) inline void
StoreDots(int count, int32_t* spill, int32_t* out, int64_t ldo) {
  TileStore<T>(spill, 64);
  __m512i v[16];
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) v[r] = _mm512_load_si512(spill + 16 * r);
  Transpose16x16(v);
  for (int q = 0; q < count; ++q) _mm512_storeu_si512(out + q * ldo, v[q]);
}

/// G 16-row groups from `rows` (stride dim) into C tiles 0 to G - 1, every
/// 64-code chunk and then the tail tile, and their dots to `out`. Tiles:
/// C in tmm0-1, a chunk's B in tmm2 (reloaded from the L1-resident packing
/// per chunk), the tail's B in tmm3 (loaded once per scan), a chunk's A in
/// tmm4-5 and the tail's in tmm6-7. `spill` holds G blocks of 16 x 16.
template <int G>
[[gnu::always_inline]] __attribute__((target("avx512f"))) inline void
AmxPass(const int8_t* rows, int64_t dim, const Queries& queries,
        int64_t chunks, bool tail, int32_t* spill, int32_t* out,
        int64_t ldo) {
  static_assert(G == 1 || G == 2);
  TileZero<0>();
  if constexpr (G == 2) TileZero<1>();
  for (int64_t k = 0; k < chunks; ++k) {
    TileLoad<2>(queries.tiles + k * kTileBytes, 64);
    TileLoad<4>(rows + 64 * k, dim);
    if constexpr (G == 2) TileLoad<5>(rows + 16 * dim + 64 * k, dim);
    TileDotBytes<0, 4, 2>();
    if constexpr (G == 2) TileDotBytes<1, 5, 2>();
  }
  if (tail) {
    TileLoad<6>(rows + 64 * chunks, dim);
    if constexpr (G == 2) TileLoad<7>(rows + 16 * dim + 64 * chunks, dim);
    TileDotBytes<0, 6, 3>();
    if constexpr (G == 2) TileDotBytes<1, 7, 3>();
  }
  StoreDots<0>(queries.count, spill, out, ldo);
  if constexpr (G == 2) {
    StoreDots<1>(queries.count, spill + 256, out + 16, ldo);
  }
}

/// The AMX scan of rows [begin, end): 32 rows per pass, then 16, then the
/// last rows (fewer than 16) on the AVX-VNNI tile, so no tile reads a row
/// or code past the end. The codes past the tail tile's last multiple of
/// four are added on the scalar side. The tiles are configured on entry
/// and released before the VNNI rows, so no thread carries tile state
/// into a context switch.
__attribute__((target("avx512f,avx512bw"))) void ScanAmx(
    const int8_t* codes, int64_t begin, int64_t end, int64_t dim,
    const Queries& queries, int32_t* out, int64_t ldo) {
  const int64_t chunks = dim / 64;
  const int64_t tail = dim % 64 & ~int64_t{3};
  const uint16_t dot_bytes = static_cast<uint16_t>(4 * queries.count);
  TileConfig config;
  for (int t : {0, 1, 2}) {
    config.rows[t] = 16;
    config.colsb[t] = dot_bytes;
  }
  for (int t : {4, 5}) {
    config.rows[t] = 16;
    config.colsb[t] = 64;
  }
  if (tail > 0) {
    config.rows[3] = static_cast<uint8_t>(tail / 4);
    config.colsb[3] = dot_bytes;
    for (int t : {6, 7}) {
      config.rows[t] = 16;
      config.colsb[t] = static_cast<uint16_t>(tail);
    }
  }
  asm volatile("ldtilecfg %0" : : "m"(config));
  if (tail > 0) TileLoad<3>(queries.tiles + chunks * kTileBytes, 64);
  alignas(64) int32_t spill[2 * 256] = {};
  int64_t r = begin;
  for (; r + 32 <= end; r += 32) {
    AmxPass<2>(codes + r * dim, dim, queries, chunks, tail > 0, spill,
               out + r, ldo);
  }
  if (r + 16 <= end) {
    AmxPass<1>(codes + r * dim, dim, queries, chunks, tail > 0, spill,
               out + r, ldo);
    r += 16;
  }
  asm volatile("tilerelease" ::: "memory");
  const int64_t vec_end = 64 * chunks + tail;
  for (int q = 0; q < queries.count && vec_end < dim; ++q) {
    const int8_t* query = queries.codes + q * dim;
    for (int64_t i = begin; i < r; ++i) {
      int32_t dot = out[q * ldo + i];
      for (int64_t j = vec_end; j < dim; ++j) {
        dot += static_cast<int32_t>(codes[i * dim + j]) *
               static_cast<int32_t>(query[j]);
      }
      out[q * ldo + i] = dot;
    }
  }
  if (r < end) {
    ScanGroups<kVnniScans>(codes, r, end, dim, queries, out, ldo);
  }
}
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
  uint32_t offsets[kInt8ScanMaxQueries] = {};
  Queries prepared{queries, num_queries, nullptr, offsets, nullptr};
  ScanFn scan = &ScanGroups<kPortableScans>;
  // Widened or packed once per call: a caller that scans in steps pays it
  // per step.
  std::vector<int16_t> wide;
  std::vector<int8_t> tiles;
#if defined(__x86_64__)
  Isa isa = ActiveIsa();
  // The AMX tile does the work of 16 queries whatever their number, which
  // at one query is slower than the VNNI tile (DESIGN.md, "Quantized
  // scoring").
  if (isa == Isa::kAmx && num_queries == 1) isa = Isa::kAvx2Vnni;
  switch (isa) {
    case Isa::kAmx:
      tiles.resize(static_cast<size_t>((dim + 63) / 64 * kTileBytes));
      PackTiles(queries, num_queries, dim, tiles.data());
      prepared.tiles = tiles.data();
      // Only the last chunk can end in rows the VNNI tile takes.
      if (rows % 16 != 0) VnniOffsets(queries, num_queries, dim, offsets);
      scan = &ScanAmx;
      break;
    case Isa::kAvx512:  // The int8 tile stays 256 bits wide there.
    case Isa::kAvx2Vnni:
      VnniOffsets(queries, num_queries, dim, offsets);
      scan = &ScanGroups<kVnniScans>;
      break;
    case Isa::kAvx2:
      wide.assign(queries, queries + num_queries * dim);
      prepared.wide = wide.data();
      scan = &ScanGroups<kAvx2Scans>;
      break;
    case Isa::kPortable:
      break;
  }
#endif
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
    case Isa::kAmx:
      return "amx-int8";
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
