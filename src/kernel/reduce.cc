// Pairwise reductions and the reference dot. Compiled with -O3 and
// -ffp-contract=off (see src/CMakeLists.txt): the pairwise base cases
// accumulate in double, so there is no float-rounding sensitivity to
// vectorisation width, and DotAscending's float chain can be neither
// reassociated nor fused into FMAs.

#include "kernel/reduce.h"

#include "kernel/kernel.h"

namespace adamine::kernel {

namespace {

// Below this length a straight fold is both fast and accurate enough; the
// recursion above it is what bounds the error logarithmically.
constexpr int64_t kPairwiseBase = 128;

}  // namespace

double PairwiseSum(const float* p, int64_t n) {
  if (n <= kPairwiseBase) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += p[i];
    return acc;
  }
  const int64_t half = n / 2;
  return PairwiseSum(p, half) + PairwiseSum(p + half, n - half);
}

double PairwiseSumSquares(const float* p, int64_t n) {
  if (n <= kPairwiseBase) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += double(p[i]) * p[i];
    return acc;
  }
  const int64_t half = n / 2;
  return PairwiseSumSquares(p, half) + PairwiseSumSquares(p + half, n - half);
}

double PairwiseDot(const float* a, const float* b, int64_t n) {
  if (n <= kPairwiseBase) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += double(a[i]) * b[i];
    return acc;
  }
  const int64_t half = n / 2;
  return PairwiseDot(a, b, half) + PairwiseDot(a + half, b + half, n - half);
}

float DotAscending(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

void DotAscendingRows(const float* rows, const int64_t* ids, int count,
                      const float* b, int64_t n, float* out) {
  // Lanes past count rescore the first row, so the pass is always eight
  // wide; their sums are dropped.
  const float* row[kDotRows];
  for (int i = 0; i < kDotRows; ++i) {
    row[i] = rows + ids[i < count ? i : 0] * n;
  }
  float acc[kDotRows] = {};
  for (int64_t j = 0; j < n; ++j) {
    const float bj = b[j];
    for (int i = 0; i < kDotRows; ++i) acc[i] += row[i][j] * bj;
  }
  for (int i = 0; i < count; ++i) out[i] = acc[i];
}

double ParallelPairwiseSum(const float* p, int64_t n) {
  return ParallelReduceOrdered<double>(
      n, kReduceGrain, 0.0,
      [p](int64_t begin, int64_t end) {
        return PairwiseSum(p + begin, end - begin);
      },
      [](double acc, double partial) { return acc + partial; });
}

}  // namespace adamine::kernel
