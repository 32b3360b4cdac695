#include "quant/int8_corpus.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernel/int8dot.h"
#include "kernel/kernel.h"

namespace adamine::quant {

namespace {

/// Next float >= x: the stored per-row bounds must never round down, or the
/// score interval they feed would no longer contain the true score.
float RoundUp(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// What QuantizeSpan measures besides the codes.
struct SpanStats {
  int32_t sum_abs_codes = 0;  // sum_j |code[j]|
  double max_err = 0.0;       // max_j |x[j] - (scale * code[j] + bias)|
};

/// A row's range and largest magnitude, or the first column that is not
/// finite.
struct RowRange {
  double lo = 0.0;
  double hi = 0.0;
  double max_abs = 0.0;
  int64_t bad_col = -1;
};

/// The reference pass. std::min and std::max keep the first of two equal
/// values, and a zero's sign reaches scale and bias only in a row of zeros,
/// where lo and hi are then both x[0].
RowRange RangeOf(const float* x, int64_t d) {
  RowRange range;
  range.lo = x[0];
  range.hi = x[0];
  for (int64_t j = 0; j < d; ++j) {
    const double v = x[j];
    if (!std::isfinite(v)) {
      range.bad_col = j;
      return range;
    }
    range.lo = std::min(range.lo, v);
    range.hi = std::max(range.hi, v);
    range.max_abs = std::max(range.max_abs, std::fabs(v));
  }
  return range;
}

SpanStats QuantizeSpanPortable(const float* x, int64_t d,
                                         double scale, double bias,
                                         int8_t* codes) {
  SpanStats stats;
  for (int64_t j = 0; j < d; ++j) {
    int32_t c = 0;
    if (scale > 0.0) {
      const double q = std::nearbyint((static_cast<double>(x[j]) - bias) /
                                      scale);
      c = static_cast<int32_t>(std::max(-127.0, std::min(127.0, q)));
    }
    // A zero (or underflowed-to-zero) scale degrades to codes of all
    // zeros; the measured reconstruction error below still covers it, so
    // the two-stage search stays exact — it just reranks more rows.
    codes[j] = static_cast<int8_t>(c);
    stats.sum_abs_codes += c < 0 ? -c : c;
    const double recon = scale * c + bias;
    stats.max_err = std::max(stats.max_err,
                             std::fabs(static_cast<double>(x[j]) - recon));
  }
  return stats;
}

#if defined(__x86_64__)

/// RangeOf with eight lanes of float min, max and max-abs (float to double
/// is exact and keeps the order), the last vector overlapping the one
/// before when d is not a multiple of eight. A non-finite value sends the
/// row to RangeOf for its column. Lanes keep the first of equal values as
/// RangeOf does, lane 0 starts at x[0] and the lane reduction keeps the
/// first of equal lanes, so a row of zeros gets x[0] for lo and hi too.
__attribute__((target("avx2"))) RowRange RangeOfAvx2(const float* x,
                                                     int64_t d) {
  if (d < 8) return RangeOf(x, d);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 finite_max = _mm256_set1_ps(FLT_MAX);
  __m256 lo = _mm256_loadu_ps(x);
  __m256 hi = lo;
  __m256 mag = _mm256_setzero_ps();
  __m256 finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (int64_t j = 0; j < d; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + std::min(j, d - 8));
    const __m256 a = _mm256_andnot_ps(sign, v);
    lo = _mm256_min_ps(v, lo);
    hi = _mm256_max_ps(v, hi);
    mag = _mm256_max_ps(a, mag);
    // Ordered: false for NaN as for an infinity.
    finite = _mm256_and_ps(finite, _mm256_cmp_ps(a, finite_max, _CMP_LE_OQ));
  }
  if (_mm256_movemask_ps(finite) != 0xFF) return RangeOf(x, d);
  alignas(32) float lanes[3][8];
  _mm256_store_ps(lanes[0], lo);
  _mm256_store_ps(lanes[1], hi);
  _mm256_store_ps(lanes[2], mag);
  RowRange range;
  range.lo = *std::min_element(lanes[0], lanes[0] + 8);
  range.hi = *std::max_element(lanes[1], lanes[1] + 8);
  range.max_abs = *std::max_element(lanes[2], lanes[2] + 8);
  return range;
}

/// Four codes of one span: the quotient rounded in the current mode, as
/// nearbyint does, and clamped with the operands in the order of the
/// portable loop's std::min and std::max, which minpd and maxpd then match
/// even for a NaN quotient; then the reconstruction error.
[[gnu::always_inline]] __attribute__((target("avx2"))) inline __m128i Codes4(
    __m256d x, __m256d scale, __m256d bias, __m256d* max_err) {
  __m256d q = _mm256_div_pd(_mm256_sub_pd(x, bias), scale);
  q = _mm256_round_pd(q, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  q = _mm256_max_pd(_mm256_min_pd(q, _mm256_set1_pd(127.0)),
                    _mm256_set1_pd(-127.0));
  const __m128i c = _mm256_cvtpd_epi32(q);
  const __m256d recon =
      _mm256_add_pd(_mm256_mul_pd(scale, _mm256_cvtepi32_pd(c)), bias);
  const __m256d err =
      _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(x, recon));
  *max_err = _mm256_max_pd(err, *max_err);
  return c;
}

/// QuantizeSpanPortable eight values at a time; the last d mod 8 take the
/// portable loop.
__attribute__((target("avx2"))) SpanStats QuantizeSpanAvx2(
    const float* x, int64_t d, double scale, double bias, int8_t* codes) {
  if (!(scale > 0.0)) return QuantizeSpanPortable(x, d, scale, bias, codes);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vbias = _mm256_set1_pd(bias);
  __m256d max_err = _mm256_setzero_pd();
  __m128i sum_abs = _mm_setzero_si128();
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    const __m128i c0 = Codes4(_mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                              vscale, vbias, &max_err);
    const __m128i c1 = Codes4(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)),
                              vscale, vbias, &max_err);
    sum_abs = _mm_add_epi32(sum_abs, _mm_add_epi32(_mm_abs_epi32(c0),
                                                   _mm_abs_epi32(c1)));
    const __m128i c16 = _mm_packs_epi32(c0, c1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + j),
                     _mm_packs_epi16(c16, c16));
  }
  SpanStats stats =
      QuantizeSpanPortable(x + j, d - j, scale, bias, codes + j);
  alignas(32) int32_t sums[4];
  alignas(32) double errs[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(sums), sum_abs);
  _mm256_store_pd(errs, max_err);
  for (int i = 0; i < 4; ++i) {
    stats.sum_abs_codes += sums[i];
    stats.max_err = std::max(stats.max_err, errs[i]);
  }
  return stats;
}

#endif  // defined(__x86_64__)

/// RangeOf at kernel::ActiveIsa().
RowRange Range(const float* x, int64_t d) {
#if defined(__x86_64__)
  if (kernel::ActiveIsa() >= kernel::Isa::kAvx2) return RangeOfAvx2(x, d);
#endif
  return RangeOf(x, d);
}

/// The one quantizing loop, for corpus rows and queries alike:
/// codes[j] = nearbyint((x[j] - bias) / scale) clamped to [-127, 127], in
/// double and the current rounding mode, or 0 for every j when scale is
/// not positive. The portable loop at Isa::kPortable, AVX2 from kAvx2 up;
/// each step is an exactly rounded IEEE operation, an integer sum or a
/// max, so every level writes the same codes and statistics.
SpanStats QuantizeSpan(const float* x, int64_t d, double scale, double bias,
                       int8_t* codes) {
#if defined(__x86_64__)
  if (kernel::ActiveIsa() >= kernel::Isa::kAvx2) {
    return QuantizeSpanAvx2(x, d, scale, bias, codes);
  }
#endif
  return QuantizeSpanPortable(x, d, scale, bias, codes);
}

}  // namespace

namespace internal {

QueryStats QuantizeQuery(const float* q, int64_t d, int8_t* codes) {
  QueryStats s;
  double qmax = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double v = q[j];
    s.sum_q += v;
    s.sum_abs_q += std::fabs(v);
    qmax = std::max(qmax, std::fabs(v));
  }
  s.scale = qmax / 127.0;
  // (x - 0) / scale is x / scale, and scale * c + 0 is scale * c, since a
  // positive scale times an integer c is never -0.
  s.max_err = QuantizeSpan(q, d, s.scale, 0.0, codes).max_err;
  return s;
}

}  // namespace internal

StatusOr<QuantizedCorpus> QuantizeRows(const Tensor& items) {
  if (!items.defined() || items.ndim() != 2) {
    return Status::InvalidArgument("quantizer needs a 2-D [N, D] tensor");
  }
  const int64_t rows = items.rows();
  const int64_t dim = items.cols();
  if (dim <= 0 || dim > kernel::kInt8DotMaxElems) {
    return Status::InvalidArgument(
        "quantizer needs 0 < dim <= " +
        std::to_string(kernel::kInt8DotMaxElems) +
        " (int32 scan-accumulator bound), got " + std::to_string(dim));
  }

  QuantizedCorpus out;
  out.rows = rows;
  out.dim = dim;
  out.codes.resize(static_cast<size_t>(rows * dim));
  out.scales.resize(static_cast<size_t>(rows));
  out.biases.resize(static_cast<size_t>(rows));
  out.sum_abs_codes.resize(static_cast<size_t>(rows));
  out.recon_errors.resize(static_cast<size_t>(rows));
  out.max_abs.resize(static_cast<size_t>(rows));

  for (int64_t r = 0; r < rows; ++r) {
    const float* x = items.data() + r * dim;
    const RowRange range = Range(x, dim);
    if (range.bad_col >= 0) {
      return Status::InvalidArgument(
          "quantizer requires finite values; row " + std::to_string(r) +
          " col " + std::to_string(range.bad_col) + " is not");
    }
    // Range arithmetic in double: even +-FLT_MAX rows cannot overflow here.
    const float scale = static_cast<float>((range.hi - range.lo) / 254.0);
    const float bias = static_cast<float>((range.hi + range.lo) / 2.0);
    const SpanStats span = QuantizeSpan(
        x, dim, scale, bias, out.codes.data() + r * dim);
    out.scales[static_cast<size_t>(r)] = scale;
    out.biases[static_cast<size_t>(r)] = bias;
    out.sum_abs_codes[static_cast<size_t>(r)] = span.sum_abs_codes;
    out.recon_errors[static_cast<size_t>(r)] = RoundUp(span.max_err);
    out.max_abs[static_cast<size_t>(r)] = RoundUp(range.max_abs);
  }
  return out;
}

int64_t QuantizedBytes(const QuantizedCorpus& corpus) {
  return static_cast<int64_t>(corpus.codes.size() * sizeof(int8_t) +
                              corpus.scales.size() * sizeof(float) +
                              corpus.biases.size() * sizeof(float) +
                              corpus.sum_abs_codes.size() * sizeof(int32_t) +
                              corpus.recon_errors.size() * sizeof(float) +
                              corpus.max_abs.size() * sizeof(float));
}

}  // namespace adamine::quant
