#include "quant/int8_corpus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "kernel/int8dot.h"

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

}  // namespace

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
    double lo = x[0];
    double hi = x[0];
    double row_max_abs = 0.0;
    for (int64_t j = 0; j < dim; ++j) {
      const double v = x[j];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "quantizer requires finite values; row " + std::to_string(r) +
            " col " + std::to_string(j) + " is not");
      }
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      row_max_abs = std::max(row_max_abs, std::fabs(v));
    }
    // Range arithmetic in double: even +-FLT_MAX rows cannot overflow here.
    const float scale = static_cast<float>((hi - lo) / 254.0);
    const float bias = static_cast<float>((hi + lo) / 2.0);
    int8_t* codes = out.codes.data() + r * dim;
    int32_t sum_abs = 0;
    double recon_err = 0.0;
    for (int64_t j = 0; j < dim; ++j) {
      int32_t c = 0;
      if (scale > 0.0f) {
        const double q = std::nearbyint(
            (static_cast<double>(x[j]) - static_cast<double>(bias)) /
            static_cast<double>(scale));
        c = static_cast<int32_t>(std::max(-127.0, std::min(127.0, q)));
      }
      // A zero (or underflowed-to-zero) scale degrades to codes of all
      // zeros; the measured reconstruction error below still covers it, so
      // the two-stage search stays exact — it just reranks more rows.
      codes[j] = static_cast<int8_t>(c);
      sum_abs += c < 0 ? -c : c;
      const double recon = static_cast<double>(scale) * c +
                           static_cast<double>(bias);
      recon_err = std::max(recon_err,
                           std::fabs(static_cast<double>(x[j]) - recon));
    }
    out.scales[static_cast<size_t>(r)] = scale;
    out.biases[static_cast<size_t>(r)] = bias;
    out.sum_abs_codes[static_cast<size_t>(r)] = sum_abs;
    out.recon_errors[static_cast<size_t>(r)] = RoundUp(recon_err);
    out.max_abs[static_cast<size_t>(r)] = RoundUp(row_max_abs);
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
