#ifndef ADAMINE_TENSOR_OPS_H_
#define ADAMINE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace adamine {

// ---------------------------------------------------------------------------
// Elementwise operations (all allocate a fresh result tensor).
// ---------------------------------------------------------------------------

/// Elementwise a + b (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise a * b.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise a / b.
Tensor Div(const Tensor& a, const Tensor& b);
/// a * s.
Tensor Scale(const Tensor& a, float s);
/// a + s.
Tensor AddScalar(const Tensor& a, float s);
/// log(a), tanh(a), logistic sigmoid, max(a, 0).
Tensor Log(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

// ---------------------------------------------------------------------------
// In-place operations (mutate the first argument).
// ---------------------------------------------------------------------------

/// y += x.
void AddInPlace(Tensor& y, const Tensor& x);
/// y += alpha * x.
void AxpyInPlace(Tensor& y, float alpha, const Tensor& x);
/// y *= s.
void ScaleInPlace(Tensor& y, float s);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// General matrix multiply: op(A) * op(B), where op is optional transpose.
/// A and B must be 2-D; inner dimensions of op(A), op(B) must agree.
Tensor Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b);

/// A * B (no transposes).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transposed copy of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Adds a length-C row vector `bias` to every row of the [N, C] tensor `a`.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

// ---------------------------------------------------------------------------
// Structural operations on 2-D tensors.
// ---------------------------------------------------------------------------

/// Horizontal concatenation [N, Ca] ++ [N, Cb] -> [N, Ca+Cb].
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation [Na, C] ++ [Nb, C] -> [Na+Nb, C].
Tensor ConcatRows(const Tensor& a, const Tensor& b);
/// Columns [c0, c1) of `a`.
Tensor SliceCols(const Tensor& a, int64_t c0, int64_t c1);
/// Rows [r0, r1) of `a`.
Tensor SliceRows(const Tensor& a, int64_t r0, int64_t r1);
/// Rows `indices[i]` of `a`, stacked; indices may repeat.
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);
/// dst.row(indices[i]) += src.row(i) for all i. Duplicate indices accumulate.
void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                    const Tensor& src);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum / mean over all elements.
float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
/// Row-wise sum of a [N, C] tensor -> [N].
Tensor RowSum(const Tensor& a);
/// Column-wise sum of a [N, C] tensor -> [C].
Tensor ColSum(const Tensor& a);
/// Column-wise mean of a [N, C] tensor -> [C].
Tensor ColMean(const Tensor& a);
/// Largest |element|.
float MaxAbs(const Tensor& a);

// ---------------------------------------------------------------------------
// Rows as vectors.
// ---------------------------------------------------------------------------

/// L2 norm of each row of a [N, C] tensor -> [N].
Tensor RowNorms(const Tensor& a);
/// Each row scaled to unit L2 norm (rows with norm < eps are left as zeros).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);
/// Row-wise softmax of a [N, C] tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Cosine similarity of every row of `a` against every row of `b`:
/// [Na, D] x [Nb, D] -> [Na, Nb]. Rows need not be pre-normalised.
Tensor CosineSimilarityMatrix(const Tensor& a, const Tensor& b);

/// Cosine distance (1 - cosine similarity) between two equal-length vectors
/// given as 1-D tensors or single rows.
float CosineDistance(const Tensor& a, const Tensor& b);

}  // namespace adamine

#endif  // ADAMINE_TENSOR_OPS_H_
