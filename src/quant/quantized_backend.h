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
/// Registered under the name "quantized" by backends/builtins.cc (no probe
/// dial); this header exists for that list and for direct construction in
/// benches.
StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateQuantizedBackend(
    const serve::BackendConfig& config);

namespace internal {

/// The k-th largest value of a stream, branch-free: the selector behind
/// both of the selection's running bounds. Values must be finite and never
/// -0 (every score bound is both), so two equal values have equal bits and
/// Value() is exactly std::nth_element's k-th largest, whichever storage
/// holds it. The constructor picks the storage for the lane width of
/// kernel::ActiveIsa() (eight doubles from Isa::kAvx512 up, four from
/// kAvx2, two below, one off x86-64):
///
///   - k <= kMaxLaneVectors lane vectors: a descending array of k slots
///     (padded to a multiple of 8), prefilled with -inf. Push(v) rewrites
///     every slot j as max(A[j], min(A[j-1], v)) with A[-1] = +inf, which
///     inserts v in place and drops the smallest: a shift, a min and a max
///     per lane vector, none of them waiting on a compare. Value() is
///     A[k-1].
///   - otherwise a min-heap of k slots laid out as a complete binary tree
///     whose slots past k hold +inf. Push sifts max(v, root) down the
///     tree's full depth with selects only. Value() is the root.
///
/// Value() is -inf until k values were pushed.
class KthLargest {
 public:
  /// The most lane vectors the array takes (64, 128 or 256 slots): its
  /// push costs one step per vector and the tree's one per level, and
  /// BM_SelectCandidates puts their crossover near 32 vectors at every
  /// width (DESIGN.md, "Quantized scoring").
  static constexpr int64_t kMaxLaneVectors = 32;

  explicit KthLargest(int64_t k);

  /// Pushes v with the lane width of kernel::ActiveIsa().
  void Push(double v);

  /// The k-th largest value pushed, -inf until k were.
  double Value() const { return slots_[lanes_ ? k_ - 1 : 0]; }

  /// Push with the lanes held in vectors of type W (a GCC vector of
  /// doubles, or double itself). Defined in quantized_backend.cc, whose
  /// selection pass calls it inside its code for each level.
  template <typename W>
  void PushAt(double v);

 private:
  void PushTree(double v);

  int64_t k_;
  bool lanes_;                  // The array, not the tree, holds k.
  int depth_ = 0;               // The tree's depth, floor(log2 k).
  std::vector<double> slots_;   // The array or the tree.
};

/// One query's verified candidate set.
struct Candidates {
  /// min(take-th best lower bound, m-th best upper bound) over every row's
  /// score interval: at least `take` rows score at or above it.
  double cutoff = 0.0;
  /// Every row whose upper bound reaches the cutoff, ascending.
  std::vector<int64_t> rows;
};

/// The backend's first stage for 1-16 queries, row-major [nq, corpus.dim]:
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
