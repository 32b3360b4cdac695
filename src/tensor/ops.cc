// Dense tensor kernels. Every loop here dispatches through the kernel
// execution layer (src/kernel/): elementwise ops and row sweeps run under
// ParallelFor with fixed chunking, GEMM goes to the tiled panel-packed
// kernel, and whole-tensor reductions use ordered pairwise summation — all
// bit-deterministic in the configured thread count.

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"

namespace adamine {

namespace {

template <typename F>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, F f) {
  ADAMINE_CHECK(a.defined());
  ADAMINE_CHECK(b.defined());
  ADAMINE_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  kernel::ParallelFor(a.numel(), kernel::kElementwiseGrain,
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          po[i] = f(pa[i], pb[i]);
                        }
                      });
  return out;
}

template <typename F>
Tensor ElementwiseUnary(const Tensor& a, F f) {
  ADAMINE_CHECK(a.defined());
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(a.numel(), kernel::kElementwiseGrain,
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i]);
                      });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor Scale(const Tensor& a, float s) {
  return ElementwiseUnary(a, [s](float x) { return x * s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return ElementwiseUnary(a, [s](float x) { return x + s; });
}

Tensor Log(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::log(x); });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(a,
                          [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

void AddInPlace(Tensor& y, const Tensor& x) {
  ADAMINE_CHECK(y.defined());
  ADAMINE_CHECK(x.defined());
  ADAMINE_CHECK(SameShape(y, x));
  float* py = y.data();
  const float* px = x.data();
  kernel::ParallelFor(y.numel(), kernel::kElementwiseGrain,
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) py[i] += px[i];
                      });
}

void AxpyInPlace(Tensor& y, float alpha, const Tensor& x) {
  ADAMINE_CHECK(y.defined());
  ADAMINE_CHECK(x.defined());
  ADAMINE_CHECK(SameShape(y, x));
  float* py = y.data();
  const float* px = x.data();
  kernel::ParallelFor(y.numel(), kernel::kElementwiseGrain,
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          py[i] += alpha * px[i];
                        }
                      });
}

void ScaleInPlace(Tensor& y, float s) {
  ADAMINE_CHECK(y.defined());
  float* py = y.data();
  kernel::ParallelFor(y.numel(), kernel::kElementwiseGrain,
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) py[i] *= s;
                      });
}

Tensor Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_EQ(b.ndim(), 2);
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t kb = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  ADAMINE_CHECK_EQ(k, kb);

  Tensor out({m, n});
  kernel::Gemm(a.data(), a.cols(), trans_a, b.data(), b.cols(), trans_b, m, n,
               k, out.data());
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Gemm(a, false, b, false);
}

Tensor Transpose2D(const Tensor& a) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  const int64_t r = a.rows();
  const int64_t c = a.cols();
  Tensor out({c, r});
  const float* pa = a.data();
  float* po = out.data();
  // Parallel over output rows (input columns); disjoint writes.
  kernel::ParallelFor(c, kernel::kRowGrain, [&](int64_t j0, int64_t j1) {
    for (int64_t j = j0; j < j1; ++j) {
      for (int64_t i = 0; i < r; ++i) po[j * r + i] = pa[i * c + j];
    }
  });
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_EQ(bias.numel(), a.cols());
  Tensor out = a.Clone();
  const int64_t c = a.cols();
  float* po = out.data();
  const float* pb = bias.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          float* row = po + i * c;
                          for (int64_t j = 0; j < c; ++j) row[j] += pb[j];
                        }
                      });
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_EQ(b.ndim(), 2);
  ADAMINE_CHECK_EQ(a.rows(), b.rows());
  const int64_t ca = a.cols();
  const int64_t cb = b.cols();
  Tensor out({a.rows(), ca + cb});
  float* po = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          float* row = po + i * (ca + cb);
                          std::copy(pa + i * ca, pa + (i + 1) * ca, row);
                          std::copy(pb + i * cb, pb + (i + 1) * cb, row + ca);
                        }
                      });
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_EQ(b.ndim(), 2);
  ADAMINE_CHECK_EQ(a.cols(), b.cols());
  const int64_t c = a.cols();
  Tensor out({a.rows() + b.rows(), c});
  std::copy(a.data(), a.data() + a.numel(), out.data());
  std::copy(b.data(), b.data() + b.numel(), out.data() + a.numel());
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t c0, int64_t c1) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_GE(c0, 0);
  ADAMINE_CHECK_LT(c0, c1);
  ADAMINE_CHECK_LE(c1, a.cols());
  const int64_t c = a.cols();
  const int64_t w = c1 - c0;
  Tensor out({a.rows(), w});
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          const float* src = pa + i * c + c0;
                          std::copy(src, src + w, po + i * w);
                        }
                      });
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t r0, int64_t r1) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_GE(r0, 0);
  ADAMINE_CHECK_LT(r0, r1);
  ADAMINE_CHECK_LE(r1, a.rows());
  const int64_t c = a.cols();
  Tensor out({r1 - r0, c});
  std::copy(a.data() + r0 * c, a.data() + r1 * c, out.data());
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  // Validate up front so failures abort on the calling thread, then copy in
  // parallel.
  for (int64_t r : indices) {
    ADAMINE_CHECK_GE(r, 0);
    ADAMINE_CHECK_LT(r, a.rows());
  }
  const int64_t c = a.cols();
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out({n, c});
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(n, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* src = pa + indices[static_cast<size_t>(i)] * c;
      std::copy(src, src + c, po + i * c);
    }
  });
  return out;
}

void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  ADAMINE_CHECK_EQ(dst.ndim(), 2);
  ADAMINE_CHECK_EQ(src.ndim(), 2);
  ADAMINE_CHECK_EQ(dst.cols(), src.cols());
  ADAMINE_CHECK_EQ(static_cast<int64_t>(indices.size()), src.rows());
  for (int64_t r : indices) {
    ADAMINE_CHECK_GE(r, 0);
    ADAMINE_CHECK_LT(r, dst.rows());
  }
  kernel::ScatterAddRows(dst.data(), dst.cols(), indices.data(),
                         static_cast<int64_t>(indices.size()), src.data(),
                         src.cols(), src.cols());
}

float SumAll(const Tensor& a) {
  ADAMINE_CHECK(a.defined());
  return static_cast<float>(kernel::ParallelPairwiseSum(a.data(), a.numel()));
}

float MeanAll(const Tensor& a) {
  ADAMINE_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

Tensor RowSum(const Tensor& a) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  const int64_t c = a.cols();
  Tensor out({a.rows()});
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          po[i] = static_cast<float>(
                              kernel::PairwiseSum(pa + i * c, c));
                        }
                      });
  return out;
}

Tensor ColSum(const Tensor& a) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.rows();
  const int64_t c = a.cols();
  Tensor out({c});
  const float* pa = a.data();
  float* po = out.data();
  // Column-sliced: every chunk folds all rows in order for its own columns,
  // so the per-element accumulation order is thread-count independent.
  kernel::ParallelFor(c, /*grain=*/512, [&](int64_t j0, int64_t j1) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = pa + i * c;
      for (int64_t j = j0; j < j1; ++j) po[j] += row[j];
    }
  });
  return out;
}

Tensor ColMean(const Tensor& a) {
  Tensor out = ColSum(a);
  ScaleInPlace(out, 1.0f / static_cast<float>(a.rows()));
  return out;
}

float MaxAbs(const Tensor& a) {
  ADAMINE_CHECK(a.defined());
  const float* p = a.data();
  return kernel::ParallelReduceOrdered<float>(
      a.numel(), kernel::kReduceGrain, 0.0f,
      [p](int64_t begin, int64_t end) {
        float best = 0.0f;
        for (int64_t i = begin; i < end; ++i) {
          best = std::max(best, std::fabs(p[i]));
        }
        return best;
      },
      [](float acc, float partial) { return std::max(acc, partial); });
}

Tensor RowNorms(const Tensor& a) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  const int64_t c = a.cols();
  Tensor out({a.rows()});
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          po[i] = static_cast<float>(std::sqrt(
                              kernel::PairwiseSumSquares(pa + i * c, c)));
                        }
                      });
  return out;
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  Tensor out = a.Clone();
  const int64_t c = a.cols();
  float* po = out.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          float* row = po + i * c;
                          const double norm =
                              std::sqrt(kernel::PairwiseSumSquares(row, c));
                          if (norm < eps) continue;
                          const float inv = static_cast<float>(1.0 / norm);
                          for (int64_t j = 0; j < c; ++j) row[j] *= inv;
                        }
                      });
  return out;
}

Tensor SoftmaxRows(const Tensor& a) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  Tensor out(a.shape());
  const int64_t c = a.cols();
  const float* pa = a.data();
  float* po = out.data();
  kernel::ParallelFor(a.rows(), kernel::kRowGrain,
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t i = r0; i < r1; ++i) {
                          const float* in = pa + i * c;
                          float* o = po + i * c;
                          float mx = in[0];
                          for (int64_t j = 1; j < c; ++j) {
                            mx = std::max(mx, in[j]);
                          }
                          double denom = 0.0;
                          for (int64_t j = 0; j < c; ++j) {
                            o[j] = std::exp(in[j] - mx);
                            denom += o[j];
                          }
                          const float inv = static_cast<float>(1.0 / denom);
                          for (int64_t j = 0; j < c; ++j) o[j] *= inv;
                        }
                      });
  return out;
}

Tensor CosineSimilarityMatrix(const Tensor& a, const Tensor& b) {
  ADAMINE_CHECK_EQ(a.ndim(), 2);
  ADAMINE_CHECK_EQ(b.ndim(), 2);
  ADAMINE_CHECK_EQ(a.cols(), b.cols());
  const Tensor an = L2NormalizeRows(a);
  const Tensor bn = L2NormalizeRows(b);
  return Gemm(an, false, bn, true);
}

float CosineDistance(const Tensor& a, const Tensor& b) {
  ADAMINE_CHECK_EQ(a.numel(), b.numel());
  const int64_t n = a.numel();
  const double dot = kernel::PairwiseDot(a.data(), b.data(), n);
  const double na = kernel::PairwiseSumSquares(a.data(), n);
  const double nb = kernel::PairwiseSumSquares(b.data(), n);
  const double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom < 1e-12) return 1.0f;
  return static_cast<float>(1.0 - dot / denom);
}

}  // namespace adamine
