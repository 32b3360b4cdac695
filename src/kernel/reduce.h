#ifndef ADAMINE_KERNEL_REDUCE_H_
#define ADAMINE_KERNEL_REDUCE_H_

#include <cstdint>

namespace adamine::kernel {

/// Pairwise (block-recursive) summation of p[0..n) in double precision.
/// Error grows O(log n) instead of the O(n) of a left fold, and the
/// reduction tree is a pure function of n — evaluation order never depends
/// on the thread count, so the result is order-stable under partitioned
/// execution.
double PairwiseSum(const float* p, int64_t n);

/// Pairwise summation of p[i]^2 (the RowNorms / L2 normalisation inner
/// reduction).
double PairwiseSumSquares(const float* p, int64_t n);

/// Pairwise summation of a[i] * b[i].
double PairwiseDot(const float* a, const float* b, int64_t n);

/// Inner product as a single float accumulation chain in ascending j, the
/// multiply and the add rounded separately — the per-element order of
/// kernel::Gemm. This is *the* reference similarity: the scalar backend,
/// every exact rerank, IVF's scalar search and core::RetrievalIndex call
/// it, and every exact backend must produce scores with these bits. It is
/// defined in reduce.cc, which is compiled with -ffp-contract=off, so
/// callers get the un-fused chain whatever their own compile flags.
float DotAscending(const float* a, const float* b, int64_t n);

/// Rows one DotAscendingRows call scores.
inline constexpr int kDotRows = 8;

/// out[i] = DotAscending(rows + ids[i] * n, b, n) for i in [0, count),
/// 1 <= count <= kDotRows: one pass over j runs the rows' chains side by
/// side, eight independent float chains where DotAscending runs one, so the
/// adds overlap instead of waiting on each other. Each chain is still the
/// ascending mul-then-add of DotAscending, so every output has its bits.
/// Ids may repeat and come in any order.
void DotAscendingRows(const float* rows, const int64_t* ids, int count,
                      const float* b, int64_t n, float* out);

/// Chunk width used when a whole-tensor reduction is split across the pool;
/// each chunk is itself reduced pairwise, and the per-chunk partials are
/// folded in ascending chunk order.
inline constexpr int64_t kReduceGrain = 1 << 15;

/// Pairwise sum over a whole tensor, parallelised over fixed kReduceGrain
/// chunks with an ordered fold of the partials.
double ParallelPairwiseSum(const float* p, int64_t n);

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_REDUCE_H_
