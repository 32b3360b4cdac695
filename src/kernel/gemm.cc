// Cache-tiled, panel-packed GEMM with a register-tile micro-kernel chosen
// per call from kernel::ActiveIsa(): AVX2 intrinsics from Isa::kAvx2 up,
// portable loops below. Both keep the naive loop's bits (see gemm.h); this
// TU is built with -O3 -ffp-contract=off (src/CMakeLists.txt) so the
// portable loops vectorise without fusing multiply and add.

#include "kernel/gemm.h"

#include <algorithm>
#include <vector>

#include "kernel/kernel.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adamine::kernel {

namespace {

// Register tile: kMr output rows by kNr output columns. kNr floats span two
// AVX2 (or four SSE) vectors; kMr x kNr single-precision accumulators fit
// the architectural register file with room for the broadcasts.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;

// Row chunk for the parallel loop over the output rows; a multiple of kMr so
// chunk boundaries never split a register tile.
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

/// Copies an accumulator tile (row stride kNr) into its place in C.
void StoreTile(const float* acc, int64_t mr, int64_t w, const TileOut& out) {
  if (!out.transposed) {
    for (int64_t r = 0; r < mr; ++r) {
      std::copy(acc + r * kNr, acc + r * kNr + w, out.c + r * out.ldc);
    }
    return;
  }
  for (int64_t j = 0; j < w; ++j) {
    for (int64_t r = 0; r < mr; ++r) out.c[j * out.ldc + r] = acc[r * kNr + j];
  }
}

/// Tile [MR, w] = sum over k of rows[r][k] * panel row k. The k loop is
/// outermost and ascending with one accumulation chain per output element —
/// the exact order of the naive kernels — while the j loop vectorises.
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
  StoreTile(&acc[0][0], MR, w, out);
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
  StoreTile(spill, MR, w, out);
}

#endif  // __x86_64__

using MicroKernel = void (*)(const float* const* rows, const float* panel,
                             int64_t kdim, int64_t w, const TileOut& out);

/// One micro-kernel per tile height, indexed by mr - 1.
using MicroKernelTable = MicroKernel[kMr];

constexpr MicroKernelTable kPortableKernels = {
    &MicroKernelPortable<1>, &MicroKernelPortable<2>, &MicroKernelPortable<3>,
    &MicroKernelPortable<4>};

#if defined(__x86_64__)
constexpr MicroKernelTable kAvx2Kernels = {
    &MicroKernelAvx2<1>, &MicroKernelAvx2<2>, &MicroKernelAvx2<3>,
    &MicroKernelAvx2<4>};
#endif

/// D = op(lhs) * op(rhs), with op(lhs) [rows, kdim] and op(rhs)
/// [kdim, cols]; D's element (i, j) is written to c[i * ldc + j], or to
/// c[j * ldc + i] when `transposed`. op(rhs) is the packed operand, and
/// op(lhs)'s rows stream through the register tiles.
void Sweep(const MicroKernelTable& kernels, const float* lhs, int64_t lhs_ld,
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
    // kMr-row block into a contiguous scratch so the micro-kernel always
    // streams. The scratch is chunk-local, so chunks stay independent.
    std::vector<float> packed_rows;
    if (lhs_trans) packed_rows.resize(static_cast<size_t>(kMr * kdim));
    for (int64_t i0 = i_begin; i0 < i_end; i0 += kMr) {
      const int64_t mr = std::min(kMr, i_end - i0);
      const float* tile_rows[kMr];
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
      for (int64_t p = 0; p < num_panels; ++p) {
        const int64_t jb = p * kNr;
        const int64_t w = std::min(kNr, cols - jb);
        const TileOut out{transposed ? c + jb * ldc + i0 : c + i0 * ldc + jb,
                          ldc, transposed};
        kernels[mr - 1](tile_rows, panels + p * kdim * kNr, kdim, w, out);
      }
    }
  });
}

void GemmWith(const MicroKernelTable& kernels, const float* a, int64_t lda,
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
    Sweep(kernels, b, ldb, /*lhs_trans=*/false, a, lda, /*rhs_trans=*/true, n,
          m, k, c, n, /*transposed=*/true);
    return;
  }
  Sweep(kernels, a, lda, trans_a, b, ldb, trans_b, m, n, k, c, n,
        /*transposed=*/false);
}

}  // namespace

void Gemm(const float* a, int64_t lda, bool trans_a, const float* b,
          int64_t ldb, bool trans_b, int64_t m, int64_t n, int64_t k,
          float* c) {
#if defined(__x86_64__)
  if (ActiveIsa() >= Isa::kAvx2) {
    GemmWith(kAvx2Kernels, a, lda, trans_a, b, ldb, trans_b, m, n, k, c);
    return;
  }
#endif
  GemmWith(kPortableKernels, a, lda, trans_a, b, ldb, trans_b, m, n, k, c);
}

}  // namespace adamine::kernel
