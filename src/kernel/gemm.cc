// Cache-tiled, panel-packed GEMM with a register-tile micro-kernel chosen
// per call from kernel::ActiveIsa(): 512-bit intrinsics at Isa::kAvx512,
// AVX2 ones at kAvx2 and kAvx2Vnni, portable loops below. All keep the
// naive loop's bits (see gemm.h); this TU is built with -O3
// -ffp-contract=off (src/CMakeLists.txt) so the portable loops vectorise,
// and no level's separate multiply and add is fused.

#include "kernel/gemm.h"

#include <algorithm>
#include <vector>

#include "kernel/kernel.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adamine::kernel {

namespace {

// Packed panel width: kNr floats span one AVX-512, two AVX2 or four SSE
// vectors. A register tile covers up to kMaxMr output rows by one or two
// adjacent panels; each level's table (MicroKernelTable) fixes its shape.
constexpr int64_t kNr = 16;
constexpr int64_t kMaxMr = 8;
constexpr int64_t kMaxPanels = 2;

// Row chunk for the parallel loop over the output rows; a multiple of every
// table's tile height, so chunk boundaries never split a register tile.
constexpr int64_t kRowChunk = 32;

/// Packs columns [jb, jb + w) of op(src), a [kdim, *] matrix (w <= kNr),
/// into `dst`, one kNr-wide row per k, zero-padded on the right.
void PackPanel(const float* src, int64_t ld, bool trans, int64_t kdim,
               int64_t jb, int64_t w, float* dst) {
  for (int64_t kk = 0; kk < kdim; ++kk) {
    if (trans) {
      for (int64_t j = 0; j < w; ++j) dst[j] = src[(jb + j) * ld + kk];
    } else {
      const float* row = src + kk * ld + jb;
      for (int64_t j = 0; j < w; ++j) dst[j] = row[j];
    }
    for (int64_t j = w; j < kNr; ++j) dst[j] = 0.0f;
    dst += kNr;
  }
}

/// Where a micro-kernel writes its [mr, w] result tile: element (r, j) goes
/// to c[r * ldc + j], or to c[j * ldc + r] when `transposed`.
struct TileOut {
  float* c;
  int64_t ldc;
  bool transposed;
};

/// Copies an accumulator tile (row stride `stride`) into its place in C.
void StoreTile(const float* acc, int64_t stride, int64_t mr, int64_t w,
               const TileOut& out) {
  if (!out.transposed) {
    for (int64_t r = 0; r < mr; ++r) {
      std::copy(acc + r * stride, acc + r * stride + w, out.c + r * out.ldc);
    }
    return;
  }
  for (int64_t j = 0; j < w; ++j) {
    for (int64_t r = 0; r < mr; ++r) {
      out.c[j * out.ldc + r] = acc[r * stride + j];
    }
  }
}

/// Tile [MR, w] = sum over k of rows[r][k] * panel row k, for one panel
/// (w <= kNr). The k loop is outermost and ascending with one accumulation
/// chain per output element — the exact order of the naive kernels — while
/// the j loop vectorises.
template <int MR>
void MicroKernelPortable(const float* const* rows, const float* panel,
                         int64_t kdim, int64_t w, const TileOut& out) {
  float acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  for (int64_t kk = 0; kk < kdim; ++kk) {
    const float* brow = panel + kk * kNr;
    for (int r = 0; r < MR; ++r) {
      const float av = rows[r][kk];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  StoreTile(&acc[0][0], kNr, MR, w, out);
}

#if defined(__x86_64__)

/// MicroKernelPortable's tile and chain order in two 8-lane vectors per
/// row. Each step is one broadcast, one _mm256_mul_ps and one
/// _mm256_add_ps per vector: separate roundings, as in the scalar
/// reference, which is why the target is "avx2" and not "fma".
template <int MR>
__attribute__((target("avx2"))) void MicroKernelAvx2(
    const float* const* rows, const float* panel, int64_t kdim, int64_t w,
    const TileOut& out) {
  __m256 acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kdim; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(panel + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(panel + kk * kNr + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(rows[r] + kk);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  // Full tiles store straight from the registers, partial ones through a
  // spill buffer. The stores are unrolled by pragma: left as loops, they
  // would keep `acc` in memory, and the k loop above would store it on
  // every step.
  if (w == kNr && !out.transposed) {
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      _mm256_storeu_ps(out.c + r * out.ldc, acc[r][0]);
      _mm256_storeu_ps(out.c + r * out.ldc + 8, acc[r][1]);
    }
    return;
  }
  if constexpr (MR == 4) {
    if (w == kNr) {
      // Transposed: a 4x4 transpose in each 128-bit lane turns the four
      // row vectors of each half into eight 4-float columns.
#pragma GCC unroll 2
      for (int v = 0; v < 2; ++v) {
        const __m256 t0 = _mm256_unpacklo_ps(acc[0][v], acc[1][v]);
        const __m256 t1 = _mm256_unpackhi_ps(acc[0][v], acc[1][v]);
        const __m256 t2 = _mm256_unpacklo_ps(acc[2][v], acc[3][v]);
        const __m256 t3 = _mm256_unpackhi_ps(acc[2][v], acc[3][v]);
        const __m256 cols[4] = {_mm256_shuffle_ps(t0, t2, 0x44),
                                _mm256_shuffle_ps(t0, t2, 0xEE),
                                _mm256_shuffle_ps(t1, t3, 0x44),
                                _mm256_shuffle_ps(t1, t3, 0xEE)};
        float* c = out.c + 8 * v * out.ldc;
        for (int q = 0; q < 4; ++q) {
          _mm_storeu_ps(c + q * out.ldc, _mm256_castps256_ps128(cols[q]));
          _mm_storeu_ps(c + (q + 4) * out.ldc,
                        _mm256_extractf128_ps(cols[q], 1));
        }
      }
      return;
    }
  }
  alignas(32) float spill[MR * kNr];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    _mm256_store_ps(spill + r * kNr, acc[r][0]);
    _mm256_store_ps(spill + r * kNr + 8, acc[r][1]);
  }
  StoreTile(spill, kNr, MR, w, out);
}

/// Stores eight 16-lane row vectors transposed: lane j of every row goes to
/// the eight floats at c + j * ldc, in row order. Two rounds of shuffles
/// transpose each 128-bit lane's 4x4 block, for rows 0-3 and 4-7 apart;
/// then one two-source permute per column joins its two 4-row halves in
/// the low eight lanes, which a masked store writes.
__attribute__((target("avx512f"))) inline void StoreTransposed8x16(
    const __m512 (&rows)[8], float* c, int64_t ldc) {
  __m512 quads[2][4];
#pragma GCC unroll 2
  for (int h = 0; h < 2; ++h) {
    const __m512* v = rows + 4 * h;
    const __m512 s0 = _mm512_shuffle_ps(v[0], v[1], 0x44);
    const __m512 s1 = _mm512_shuffle_ps(v[0], v[1], 0xEE);
    const __m512 s2 = _mm512_shuffle_ps(v[2], v[3], 0x44);
    const __m512 s3 = _mm512_shuffle_ps(v[2], v[3], 0xEE);
    // Lane l of quads[h][q] holds column 4l + q of rows 4h to 4h + 3.
    quads[h][0] = _mm512_shuffle_ps(s0, s2, 0x88);
    quads[h][1] = _mm512_shuffle_ps(s0, s2, 0xDD);
    quads[h][2] = _mm512_shuffle_ps(s1, s3, 0x88);
    quads[h][3] = _mm512_shuffle_ps(s1, s3, 0xDD);
  }
  // join[l] puts lane l of the first source, then lane l of the second, in
  // the low eight lanes.
  const __m512i join[4] = {
      _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 0, 0, 0, 0, 0, 0, 0, 0),
      _mm512_setr_epi32(4, 5, 6, 7, 20, 21, 22, 23, 0, 0, 0, 0, 0, 0, 0, 0),
      _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 0, 0, 0, 0, 0, 0, 0,
                        0),
      _mm512_setr_epi32(12, 13, 14, 15, 28, 29, 30, 31, 0, 0, 0, 0, 0, 0, 0,
                        0)};
#pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
#pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      const __m512 col =
          _mm512_permutex2var_ps(quads[0][q], join[l], quads[1][q]);
      _mm512_mask_storeu_ps(c + (4 * l + q) * ldc, 0x00FF, col);
    }
  }
}

/// MicroKernelPortable's chain order over NP adjacent panels (w <= NP *
/// kNr), one 16-lane vector per row and panel: 8 rows by 2 panels keeps 16
/// of the 32 zmm registers accumulating. Each step is one broadcast, one
/// _mm512_mul_ps and one _mm512_add_ps per vector. AVX512F encodes FMA
/// too, so the separate roundings rest on this TU's -ffp-contract=off, and
/// scripts/check.sh fails if a fused instruction reaches the library.
template <int MR, int NP>
__attribute__((target("avx512f"))) void MicroKernelAvx512(
    const float* const* rows, const float* panels, int64_t kdim, int64_t w,
    const TileOut& out) {
  __m512 acc[NP][MR];
#pragma GCC unroll 2
  for (int p = 0; p < NP; ++p) {
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) acc[p][r] = _mm512_setzero_ps();
  }
  const int64_t panel_size = kdim * kNr;
  for (int64_t kk = 0; kk < kdim; ++kk) {
    __m512 b[NP];
#pragma GCC unroll 2
    for (int p = 0; p < NP; ++p) {
      b[p] = _mm512_loadu_ps(panels + p * panel_size + kk * kNr);
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(rows[r][kk]);
#pragma GCC unroll 2
      for (int p = 0; p < NP; ++p) {
        acc[p][r] = _mm512_add_ps(acc[p][r], _mm512_mul_ps(av, b[p]));
      }
    }
  }
  // Full tiles store from the registers, partial ones through a spill
  // buffer; every store loop is unrolled, or `acc` would live in memory.
  if (w == NP * kNr) {
    if (!out.transposed) {
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
        for (int p = 0; p < NP; ++p) {
          _mm512_storeu_ps(out.c + r * out.ldc + p * kNr, acc[p][r]);
        }
      }
      return;
    }
    if constexpr (MR == 8) {
#pragma GCC unroll 2
      for (int p = 0; p < NP; ++p) {
        StoreTransposed8x16(acc[p], out.c + p * kNr * out.ldc, out.ldc);
      }
      return;
    }
  }
  alignas(64) float spill[MR * NP * kNr];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int p = 0; p < NP; ++p) {
      _mm512_store_ps(spill + (r * NP + p) * kNr, acc[p][r]);
    }
  }
  StoreTile(spill, NP * kNr, MR, w, out);
}

#endif  // __x86_64__

/// Computes the [mr, w] tile of `rows` against the packed panels starting
/// at `panels` (w <= panels per tile * kNr).
using MicroKernel = void (*)(const float* const* rows, const float* panels,
                             int64_t kdim, int64_t w, const TileOut& out);

/// A level's micro-kernels and the tile shape they share: `mr` rows by
/// `panels` adjacent packed panels. kernels[p - 1][h - 1] computes an
/// h-row tile over p panels, so the row tail (h < mr) and the panel tail
/// (p < panels) have a kernel of their own.
struct MicroKernelTable {
  int64_t mr;
  int64_t panels;
  MicroKernel kernels[kMaxPanels][kMaxMr];
};

constexpr MicroKernelTable kPortableKernels = {
    4, 1,
    {{&MicroKernelPortable<1>, &MicroKernelPortable<2>,
      &MicroKernelPortable<3>, &MicroKernelPortable<4>}}};

#if defined(__x86_64__)
constexpr MicroKernelTable kAvx2Kernels = {
    4, 1,
    {{&MicroKernelAvx2<1>, &MicroKernelAvx2<2>, &MicroKernelAvx2<3>,
      &MicroKernelAvx2<4>}}};

constexpr MicroKernelTable kAvx512Kernels = {
    8, 2,
    {{&MicroKernelAvx512<1, 1>, &MicroKernelAvx512<2, 1>,
      &MicroKernelAvx512<3, 1>, &MicroKernelAvx512<4, 1>,
      &MicroKernelAvx512<5, 1>, &MicroKernelAvx512<6, 1>,
      &MicroKernelAvx512<7, 1>, &MicroKernelAvx512<8, 1>},
     {&MicroKernelAvx512<1, 2>, &MicroKernelAvx512<2, 2>,
      &MicroKernelAvx512<3, 2>, &MicroKernelAvx512<4, 2>,
      &MicroKernelAvx512<5, 2>, &MicroKernelAvx512<6, 2>,
      &MicroKernelAvx512<7, 2>, &MicroKernelAvx512<8, 2>}}};
#endif

/// D = op(lhs) * op(rhs), with op(lhs) [rows, kdim] and op(rhs)
/// [kdim, cols]; D's element (i, j) is written to c[i * ldc + j], or to
/// c[j * ldc + i] when `transposed`. op(rhs) is the packed operand, and
/// op(lhs)'s rows stream through the register tiles.
void Sweep(const MicroKernelTable& table, const float* lhs, int64_t lhs_ld,
           bool lhs_trans, const float* rhs, int64_t rhs_ld, bool rhs_trans,
           int64_t rows, int64_t cols, int64_t kdim, float* c, int64_t ldc,
           bool transposed) {
  // Stage 1: pack op(rhs) into zero-padded column panels (disjoint writes
  // per panel, so the parallel packing is trivially deterministic).
  const int64_t num_panels = (cols + kNr - 1) / kNr;
  std::vector<float> packed(static_cast<size_t>(num_panels * kdim * kNr));
  float* panels = packed.data();
  ParallelFor(num_panels, /*grain=*/4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t jb = p * kNr;
      PackPanel(rhs, rhs_ld, rhs_trans, kdim, jb, std::min(kNr, cols - jb),
                panels + p * kdim * kNr);
    }
  });

  // Stage 2: register-tiled sweep over D, parallel over fixed row chunks.
  ParallelFor(rows, kRowChunk, [&](int64_t i_begin, int64_t i_end) {
    // When op(lhs) is a transpose, its rows are strided; pack the current
    // tile's rows into a contiguous scratch so the micro-kernel always
    // streams. The scratch is chunk-local, so chunks stay independent.
    std::vector<float> packed_rows;
    if (lhs_trans) packed_rows.resize(static_cast<size_t>(table.mr * kdim));
    for (int64_t i0 = i_begin; i0 < i_end; i0 += table.mr) {
      const int64_t mr = std::min(table.mr, i_end - i0);
      const float* tile_rows[kMaxMr];
      if (!lhs_trans) {
        for (int64_t r = 0; r < mr; ++r) tile_rows[r] = lhs + (i0 + r) * lhs_ld;
      } else {
        for (int64_t r = 0; r < mr; ++r) {
          float* dst = packed_rows.data() + r * kdim;
          for (int64_t kk = 0; kk < kdim; ++kk) {
            dst[kk] = lhs[kk * lhs_ld + i0 + r];
          }
          tile_rows[r] = dst;
        }
      }
      for (int64_t p = 0; p < num_panels; p += table.panels) {
        const int64_t np = std::min(table.panels, num_panels - p);
        const int64_t jb = p * kNr;
        const int64_t w = std::min(np * kNr, cols - jb);
        const TileOut out{transposed ? c + jb * ldc + i0 : c + i0 * ldc + jb,
                          ldc, transposed};
        table.kernels[np - 1][mr - 1](tile_rows, panels + p * kdim * kNr,
                                      kdim, w, out);
      }
    }
  });
}

void GemmWith(const MicroKernelTable& table, const float* a, int64_t lda,
              bool trans_a, const float* b, int64_t ldb, bool trans_b,
              int64_t m, int64_t n, int64_t k, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
    return;
  }
  if (trans_b && !trans_a) {
    // Queries x corpus^T, every serving call: compute C^T = B * A^T instead,
    // so the small A is the packed operand and B's rows stream straight
    // from memory. Each element is the same ascending-k chain with the
    // factors of every product swapped, and IEEE multiplication commutes,
    // so not one bit changes.
    Sweep(table, b, ldb, /*lhs_trans=*/false, a, lda, /*rhs_trans=*/true, n,
          m, k, c, n, /*transposed=*/true);
    return;
  }
  Sweep(table, a, lda, trans_a, b, ldb, trans_b, m, n, k, c, n,
        /*transposed=*/false);
}

}  // namespace

void Gemm(const float* a, int64_t lda, bool trans_a, const float* b,
          int64_t ldb, bool trans_b, int64_t m, int64_t n, int64_t k,
          float* c) {
  const MicroKernelTable* table = &kPortableKernels;
#if defined(__x86_64__)
  const Isa isa = ActiveIsa();
  if (isa >= Isa::kAvx512) {
    table = &kAvx512Kernels;
  } else if (isa >= Isa::kAvx2) {
    table = &kAvx2Kernels;
  }
#endif
  GemmWith(*table, a, lda, trans_a, b, ldb, trans_b, m, n, k, c);
}

}  // namespace adamine::kernel
