#ifndef ADAMINE_QUANT_INT8_CORPUS_H_
#define ADAMINE_QUANT_INT8_CORPUS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::quant {

/// Per-row int8 affine quantization of a float corpus (the ggml
/// ggml_quantize_chunk shape, specialised to row granularity):
///
///   x[j] ~= scale * code[j] + bias,   code[j] in [-127, 127]
///
/// with scale = (max - min) / 254 and bias = (max + min) / 2 per row, so the
/// full row range maps onto the symmetric code range. Alongside the codes
/// the quantizer stores, per row, everything the two-stage search needs to
/// make its candidate selection *provably* safe:
///
///   - sum_abs_codes: sum_j |code[j]|, the weight of the query-side
///     quantization error in the score bound;
///   - recon_error:   the measured max_j |x[j] - (scale * code[j] + bias)|
///     (rounded up), the weight of the corpus-side error — measured, not
///     the analytic scale/2, so clamping and degenerate rows (all-equal,
///     denormal range) stay covered;
///   - max_abs:       max_j |x[j]| (rounded up), which bounds the float
///     accumulation-chain rounding of the exact reference dot itself.
///
/// See src/quant/quantized_backend.cc for how these combine into a per-row
/// score interval that makes the exact rerank bit-identical to the
/// exhaustive path.
struct QuantizedCorpus {
  int64_t rows = 0;
  int64_t dim = 0;
  std::vector<int8_t> codes;          // [rows * dim], row-major.
  std::vector<float> scales;          // [rows]
  std::vector<float> biases;          // [rows]
  std::vector<int32_t> sum_abs_codes;  // [rows]
  std::vector<float> recon_errors;    // [rows]
  std::vector<float> max_abs;         // [rows]
};

/// Quantizes a [N, D] float tensor row by row. Rows need not be unit-norm
/// (the backend-level contract), but every value must be finite; D is
/// bounded by kernel::kInt8DotMaxElems so the int32 scan accumulator cannot
/// overflow. All per-row statistics are computed in double and rounded
/// conservatively. From Isa::kAvx2 up the range pass and the quantizing
/// loop run AVX2 code with the portable loops' bits.
StatusOr<QuantizedCorpus> QuantizeRows(const Tensor& items);

/// Bytes the approximate scan touches per corpus: codes + per-row metadata.
/// (The float rows kept for the exact rerank are cold — the scan never
/// reads them; only the `rerank_factor * k`-ish gathered candidates do.)
int64_t QuantizedBytes(const QuantizedCorpus& corpus);

namespace internal {

/// One query's symmetric int8 quantization, q[j] ~= scale * code[j], with
/// the statistics the quantized backend's score intervals need.
struct QueryStats {
  double sum_q = 0.0;
  double sum_abs_q = 0.0;
  double scale = 0.0;
  double max_err = 0.0;  // max_j |q[j] - scale * code[j]|
};

/// Quantizes q[0, d) into codes[0, d): the two sums and the largest
/// magnitude in double over ascending j, then the row quantizer's one loop
/// with bias 0 (AVX2 from Isa::kAvx2 up, with the portable loop's bits).
QueryStats QuantizeQuery(const float* q, int64_t d, int8_t* codes);

}  // namespace internal

}  // namespace adamine::quant

#endif  // ADAMINE_QUANT_INT8_CORPUS_H_
