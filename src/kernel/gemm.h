#ifndef ADAMINE_KERNEL_GEMM_H_
#define ADAMINE_KERNEL_GEMM_H_

#include <cstdint>

namespace adamine::kernel {

/// C = op(A) * op(B) for row-major float matrices, where op is an optional
/// transpose: op(A) is [m, k], op(B) is [k, n], C is [m, n] with leading
/// dimension n. C is written entirely (no accumulate into prior contents).
///
/// Implementation: one operand is packed into zero-padded column panels of
/// 16 columns, the other streams through register tiles of a few rows by
/// one or two panels with the k loop innermost and ascending. Normally
/// op(B) is packed. For trans_b && !trans_a (queries x corpus^T, every
/// serving call) the kernel computes C^T = B * A^T instead: it packs the
/// rows of A, streams B's rows in place and stores the tiles transposed.
/// Each output element is produced by a single accumulation chain in
/// ascending k order, with the multiply and the add rounded separately —
/// exactly the naive triple loop's order — so neither the tiling nor the
/// orientation changes bits (IEEE multiplication commutes). The
/// micro-kernel is 512-bit at Isa::kAvx512, AVX2 at kAvx2 and kAvx2Vnni
/// and portable code below, dispatched on ActiveIsa() at each call. Both
/// the packing and the row loop are ParallelFor'ed over fixed chunks, and
/// every chunk writes a disjoint region, so results are also bit-identical
/// for every thread count.
void Gemm(const float* a, int64_t lda, bool trans_a, const float* b,
          int64_t ldb, bool trans_b, int64_t m, int64_t n, int64_t k,
          float* c);

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_GEMM_H_
