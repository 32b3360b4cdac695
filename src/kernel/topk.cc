#include "kernel/topk.h"

#include <algorithm>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernel/kernel.h"
#include "util/check.h"

namespace adamine::kernel {

namespace {

/// Scores per cutoff test.
constexpr int64_t kGroup = 16;

/// The ranking order: the higher score first, the lower id breaking a tie.
bool RanksBefore(const ScoredHit& a, const ScoredHit& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// Bit j set iff scores[j] >= cutoff, for j in [0, 16).
uint32_t GroupMaskPortable(const float* scores, float cutoff) {
  uint32_t mask = 0;
  for (int j = 0; j < kGroup; ++j) {
    mask |= static_cast<uint32_t>(scores[j] >= cutoff) << j;
  }
  return mask;
}

#if defined(__SSE2__)
/// GroupMaskPortable in four compares. The OR of the compares answers the
/// common case, a group wholly below the cutoff, with one movemask.
uint32_t GroupMaskSse2(const float* scores, float cutoff) {
  const __m128 cut = _mm_set1_ps(cutoff);
  const __m128 c0 = _mm_cmpge_ps(_mm_loadu_ps(scores), cut);
  const __m128 c1 = _mm_cmpge_ps(_mm_loadu_ps(scores + 4), cut);
  const __m128 c2 = _mm_cmpge_ps(_mm_loadu_ps(scores + 8), cut);
  const __m128 c3 = _mm_cmpge_ps(_mm_loadu_ps(scores + 12), cut);
  if (_mm_movemask_ps(_mm_or_ps(_mm_or_ps(c0, c1), _mm_or_ps(c2, c3))) ==
      0) {
    return 0;
  }
  return static_cast<uint32_t>(_mm_movemask_ps(c0)) |
         static_cast<uint32_t>(_mm_movemask_ps(c1)) << 4 |
         static_cast<uint32_t>(_mm_movemask_ps(c2)) << 8 |
         static_cast<uint32_t>(_mm_movemask_ps(c3)) << 12;
}
#else
constexpr auto GroupMaskSse2 = GroupMaskPortable;
#endif

template <uint32_t (*GroupMask)(const float*, float), typename Offer>
void ScanGroups(const float* scores, int64_t n, const float& cutoff,
                const Offer& offer) {
  int64_t i = 0;
  for (; i + kGroup <= n; i += kGroup) {
    for (uint32_t mask = GroupMask(scores + i, cutoff); mask != 0;
         mask &= mask - 1) {
      offer(i + std::countr_zero(mask));
    }
  }
  for (; i < n; ++i) {
    if (scores[i] >= cutoff) offer(i);
  }
}

/// The scan behind every block push: runs offer(i) for each i in [0, n)
/// whose score reaches `cutoff`, re-read for each group since an admission
/// raises it.
template <typename Offer>
void Scan(bool portable, const float* scores, int64_t n, const float& cutoff,
          const Offer& offer) {
  if (portable) {
    ScanGroups<GroupMaskPortable>(scores, n, cutoff, offer);
  } else {
    ScanGroups<GroupMaskSse2>(scores, n, cutoff, offer);
  }
}

}  // namespace

TopK::TopK(int64_t k) : k_(k), portable_(ActiveIsa() == Isa::kPortable) {
  ADAMINE_CHECK_GE(k, 1);
}

void TopK::Push(const float* scores, int64_t n, int64_t base_id) {
  Scan(portable_, scores, n, cutoff_, [&](int64_t i) {
    Admit(ScoredHit{base_id + i, scores[i]});
  });
}

void TopK::Push(const float* scores, const int64_t* ids, int64_t n) {
  Scan(portable_, scores, n, cutoff_,
       [&](int64_t i) { Admit(ScoredHit{ids[i], scores[i]}); });
}

void TopK::PushSkipping(const float* scores, const int64_t* ids, int64_t n,
                        SkipFn skip, const void* fn) {
  Scan(portable_, scores, n, cutoff_, [&](int64_t i) {
    if (!skip(fn, ids[i])) Admit(ScoredHit{ids[i], scores[i]});
  });
}

void TopK::Admit(const ScoredHit& hit) {
  const size_t size = heap_.size();
  if (static_cast<int64_t>(size) < k_) {
    heap_.push_back(hit);
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
    if (static_cast<int64_t>(size) + 1 == k_) cutoff_ = heap_.front().score;
    return;
  }
  if (!RanksBefore(hit, heap_.front())) return;
  // Replace the root and sift the hit down past every child it ranks
  // before, following the worse child each step.
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && RanksBefore(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!RanksBefore(hit, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = hit;
  cutoff_ = heap_.front().score;
}

std::vector<ScoredHit> TopK::Take() {
  std::sort_heap(heap_.begin(), heap_.end(), RanksBefore);
  // A copy of exact size, so the heap keeps its capacity for the next query.
  std::vector<ScoredHit> out(heap_.begin(), heap_.end());
  heap_.clear();
  cutoff_ = -std::numeric_limits<float>::infinity();
  return out;
}

}  // namespace adamine::kernel
