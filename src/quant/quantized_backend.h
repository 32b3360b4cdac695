#ifndef ADAMINE_QUANT_QUANTIZED_BACKEND_H_
#define ADAMINE_QUANT_QUANTIZED_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/int8_corpus.h"
#include "serve/backend.h"

namespace adamine::quant {

/// Factory for the "quantized" scoring backend: an int8 approximate scan
/// over the quantized corpus (kernel::Int8ScanRows) selects a candidate set
/// via per-row score intervals, then an exact float rerank over the
/// gathered rows (kernel::DotAscendingRows) produces the final top-k. The
/// candidate set provably contains the true top-k (see the bound derivation
/// in quantized_backend.cc), so the result is bit-identical to the scalar
/// reference and the backend reports exact() == true.
///
/// BackendConfig::rerank_factor (>= 1) floors the candidate set at
/// min(N, rerank_factor * k) rows, giving the knob the usual two-stage
/// semantics; the verified interval selection can widen past the floor when
/// quantization error demands it — exactness is never traded away.
///
/// Registered under the name "quantized" by the serve registry (no probe
/// dial, no filter support); this header exists for direct construction in
/// tests and benches.
StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateQuantizedBackend(
    const serve::BackendConfig& config);

namespace internal {

/// One query's verified candidate set.
struct Candidates {
  /// min(take-th best lower bound, m-th best upper bound) over every row's
  /// score interval: at least `take` rows score at or above it.
  double cutoff = 0.0;
  /// Every row whose upper bound reaches the cutoff, ascending.
  std::vector<int64_t> rows;
};

/// The backend's first stage for 1-4 queries, row-major [nq, corpus.dim]:
/// the int8 scan, each row's score interval and the streaming selection,
/// at kernel::ActiveIsa(). Requires 1 <= take <= m <= corpus.rows. The
/// backend calls it once per query block; it is declared here so tests can
/// diff it against a full pass over every row's interval.
std::vector<Candidates> SelectCandidates(const QuantizedCorpus& corpus,
                                         const float* queries, int nq,
                                         int64_t take, int64_t m);

}  // namespace internal

}  // namespace adamine::quant

#endif  // ADAMINE_QUANT_QUANTIZED_BACKEND_H_
