#ifndef ADAMINE_KERNEL_TOPK_H_
#define ADAMINE_KERNEL_TOPK_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace adamine::kernel {

/// One ranked row: its id and its score. serve::ScoredHit is this type.
struct ScoredHit {
  int64_t index = 0;  // Row id.
  float score = 0.0f;

  bool operator==(const ScoredHit& other) const {
    return index == other.index && score == other.score;
  }
};

class TopK;

namespace internal {

/// A TopK whose cutoff test is the portable loop whatever the CPU, so tests
/// can diff it on an SSE2 host. Not for production callers.
TopK PortableTopK(int64_t k);

}  // namespace internal

/// Exact bounded top-k selection in the ranking order of every retrieval
/// path, the higher score first and the lower id breaking a tie: after any
/// sequence of pushes, Take() returns exactly what std::partial_sort of
/// every pushed (score, id) pair would put first. Rows are kept in a
/// binary heap whose root is the worst kept row, and the root's score is
/// the cutoff. A block push tests each group of 16 scores against the
/// cutoff at once (four SSE2 compares and movemasks, baseline x86-64; a
/// portable loop elsewhere), and only the lanes >= the cutoff go on to the
/// heap, where the full order decides: a row tying the cutoff enters when
/// its id is lower. A score that compares false against every float (NaN)
/// never enters.
///
/// Memory grows with the rows admitted, never with k, so a huge k over a
/// small corpus costs the corpus, not k. Not thread-safe; use one selector
/// per thread.
class TopK {
 public:
  /// Requires k >= 1 (checked).
  explicit TopK(int64_t k);

  /// Offers one row.
  void Push(float score, int64_t id) {
    if (score >= cutoff_) Admit(ScoredHit{id, score});
  }

  /// Offers scores[i] under id base_id + i, for i in [0, n).
  void Push(const float* scores, int64_t n, int64_t base_id);

  /// Offers scores[i] under ids[i], for i in [0, n).
  void Push(const float* scores, const int64_t* ids, int64_t n);

  /// Offers scores[i] under ids[i] except where skip(ids[i]) is true. skip
  /// runs only for rows that reach the cutoff.
  template <typename Skip>
  void Push(const float* scores, const int64_t* ids, int64_t n,
            const Skip& skip) {
    PushSkipping(
        scores, ids, n,
        [](const void* fn, int64_t id) {
          return (*static_cast<const Skip*>(fn))(id);
        },
        &skip);
  }

  /// The min(k, rows offered) best rows, best first. Leaves the selector
  /// empty, ready for the next query with the same k.
  std::vector<ScoredHit> Take();

 private:
  friend TopK internal::PortableTopK(int64_t k);

  using SkipFn = bool (*)(const void* fn, int64_t id);

  TopK(int64_t k, bool portable);

  void PushSkipping(const float* scores, const int64_t* ids, int64_t n,
                    SkipFn skip, const void* fn);

  /// Keeps `hit` if it ranks before the worst kept row, or the heap is not
  /// yet full.
  void Admit(const ScoredHit& hit);

  int64_t k_;
  bool portable_;
  /// The worst kept row's score once k rows are kept; -inf before.
  float cutoff_ = -std::numeric_limits<float>::infinity();
  std::vector<ScoredHit> heap_;  // Root: the worst kept row.
};

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_TOPK_H_
