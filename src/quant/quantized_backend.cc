// The two-stage quantized scoring backend.
//
// Stage 1 scans the int8 codes (kernel::Int8ScanRows, one call per block of
// up to sixteen queries) and turns each integer dot into a *score interval*
// [approx - E, approx + E] that provably contains the reference float-chain
// score. Stage 2 gathers every row whose interval upper bound reaches the
// k-th best lower bound (floored at rerank_factor * k rows) and reranks just
// those with the exact reference dot (kernel::DotAscendingRows, eight
// DotAscending chains at once, compiled under -ffp-contract=off). Because
// no excluded row can beat the k-th best lower bound, the final top-k is
// bit-identical to the exhaustive path — this backend reports exact() ==
// true and passes the golden-diff matrix.
//
// The interval derivation, with per-row stats from QuantizeRows:
//   x[j] = scale*c[j] + bias + e[j],        |e[j]| <= recon_error   (measured)
//   q[j] = qs*qc[j] + f[j],                 |f[j]| <= fq_err        (measured)
//   S    = sum_j q[j]*x[j]
//        = qs*scale*dot + bias*sum_q  +  scale*sum_j f[j]*c[j] + sum_j q[j]*e[j]
//          \------ approx (double) -/     \------------- error -------------/
//   |S - approx| <= scale*fq_err*sum_abs_codes + sum_abs_q*recon_error
// and the reference score F is the *float* accumulation chain of S, off by
// at most the standard chain bound gamma_d * sum|q[j]*x[j]| <=
// gamma_d * max_abs * sum_abs_q (plus a subnormal absolute term). Every
// ingredient is computed in double and the total is inflated by a relative
// margin dwarfing double rounding, so the interval is conservative, never
// optimistic.
//
// Selection streams: rows arrive in 256-row steps, and one pass per step
// computes each row's interval for every query of the block, a group of
// eight rows per AVX-512 vector from Isa::kAvx512, four per AVX2 vector
// from kAvx2, two per SSE2 vector below. One vector compare tests a group
// against the query's running cutoff min(kth_lower, mth_upper), and only a
// row whose upper bound reaches it enters the two bounded selectors
// (internal::KthLargest: k-th best lower bound, m-th best upper bound).
// The cutoff only rises and lower <= upper, so a row below it could not
// have changed either selector: the selectors, the final cutoff and the
// candidate set are exactly those of a full pass over every row's bounds.

#include "quant/quantized_backend.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace adamine::quant {

namespace {

using internal::QueryStats;
using serve::BackendConfig;
using serve::QueryBatch;
using serve::QueryOptions;
using serve::ScoringBackend;
using serve::TopKResult;

/// Relative inflation applied to the assembled error bound: ~1e7 times the
/// double rounding it needs to cover, and still invisible next to the int8
/// quantization error it rides on.
constexpr double kBoundMargin = 1e-9;

/// Widest query block: the most queries one kernel call scores.
constexpr int64_t kQueryBlock = kernel::kInt8ScanMaxQueries;

/// Rows per streaming step: the block's dots (16 KB for sixteen queries)
/// stay in L1 between the scan and the selection.
constexpr int64_t kRowBlock = 256;

// Lane vectors: one double (a step's last rows past its full groups, and
// the lanes off x86-64), two doubles (SSE2), four (AVX2) or eight
// (AVX-512), as GCC vector types, so the interval expression and the
// selector's lane update are written once for every width. Helpers hand
// vectors through references and pointers: a 32- or 64-byte vector passed
// or returned by value changes the ABI outside code built for its width.
typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));
typedef double Lanes8 __attribute__((vector_size(64)));

template <typename V>
constexpr int kLanes = sizeof(V) / sizeof(double);

/// *out = x in every lane.
[[gnu::always_inline]] inline void Broadcast(double x, double* out) {
  *out = x;
}

#if defined(__x86_64__)
typedef int64_t Mask2 __attribute__((vector_size(16)));
typedef int64_t Mask4 __attribute__((vector_size(32)));
typedef int64_t Mask8 __attribute__((vector_size(64)));

/// The __builtin_shuffle mask of ShiftIn: the last lane of the first
/// vector, then every lane of the second but its last.
template <typename V>
struct ShiftMask;
template <>
struct ShiftMask<Lanes2> {
  static constexpr Mask2 kValue = {1, 2};
};
template <>
struct ShiftMask<Lanes4> {
  static constexpr Mask4 kValue = {3, 4, 5, 6};
};
template <>
struct ShiftMask<Lanes8> {
  static constexpr Mask8 kValue = {7, 8, 9, 10, 11, 12, 13, 14};
};

[[gnu::always_inline]] inline void Broadcast(double x, Lanes2* out) {
  *out = Lanes2{x, x};
}

// The four- and eight-lane helpers use GCC builtins, not <immintrin.h>
// intrinsics: an intrinsic carries its target ("avx2", "avx512f") and
// cannot be inlined into the shared body, while a builtin is checked only
// where it is expanded, inside SelectStepAvx2 or SelectStepAvx512. For the
// same reason GCC's warning that a wide vector return changes the ABI
// outside AVX2 or AVX-512 code does not apply: a builtin is never called.
// The broadcasts are builtins for speed too: GCC 12 builds a 512-bit
// vector of equal lanes, written as an initializer, with one masked
// broadcast per lane.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
[[gnu::always_inline]] inline void Broadcast(double x, Lanes4* out) {
  *out = __builtin_ia32_vbroadcastsd_pd256(Lanes2{x, x});
}

[[gnu::always_inline]] inline void Broadcast(double x, Lanes8* out) {
  *out = __builtin_ia32_broadcastsd512(Lanes2{x, x}, Lanes8{}, 0xFF);
}
#pragma GCC diagnostic pop
#endif

/// *out = the slots one place before `slots`: lane 0 takes the last lane
/// of `before` (the previous vector), as valignq or vshufpd does it.
template <typename V>
[[gnu::always_inline]] inline void ShiftIn(const V& before, const V& slots,
                                           V* out) {
  if constexpr (std::is_same_v<V, double>) {
    *out = before;
  } else {
#if defined(__x86_64__)
    *out = __builtin_shuffle(before, slots, ShiftMask<V>::kValue);
#endif
  }
}

/// Doubles per selector lane vector at kernel::ActiveIsa(), as
/// KthLargest::Push dispatches them.
int64_t ActiveLaneWidth() {
#if defined(__x86_64__)
  const kernel::Isa isa = kernel::ActiveIsa();
  return isa >= kernel::Isa::kAvx512 ? 8 : isa >= kernel::Isa::kAvx2 ? 4 : 2;
#else
  return 1;
#endif
}

}  // namespace

namespace internal {

KthLargest::KthLargest(int64_t k)
    : k_(k), lanes_(k <= kMaxLaneVectors * ActiveLaneWidth()) {
  ADAMINE_CHECK(k >= 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (lanes_) {
    slots_.assign(static_cast<size_t>((k + 7) / 8 * 8), -kInf);
    return;
  }
  while ((int64_t{2} << depth_) <= k) ++depth_;  // depth_ = floor(log2 k)
  slots_.assign((size_t{2} << depth_) - 1, kInf);
  std::fill_n(slots_.begin(), k, -kInf);
}

// Inlined into each level's code: an out-of-line call from the AVX2 or
// AVX-512 selection pass tripled the tree's cost there.
[[gnu::always_inline]] inline void KthLargest::PushTree(double v) {
  double* heap = slots_.data();
  const double w = std::max(heap[0], v);
  // Each level moves the smaller child up while it is below w. Once it is
  // not, the hole stays put: its children are unchanged, so every later
  // level rewrites w into it and moves nothing. No slot below the tree's
  // depth exists, and a +inf slot never moves up, since w is finite.
  size_t hole = 0;
  for (int level = 0; level < depth_; ++level) {
    const size_t left = 2 * hole + 1;
    const double a = heap[left];
    const double b = heap[left + 1];
    const size_t child = left + (b < a);
    const double up = std::min(a, b);
    heap[hole] = std::min(up, w);
    // A product, not a ?: select, which GCC turns back into a branch.
    hole += (child - hole) * static_cast<size_t>(up < w);
  }
  heap[hole] = w;
}

// Every slot's new value reads only the old array and v: slot j keeps A[j]
// while A[j] >= v, takes v where A[j-1] >= v > A[j], and A[j-1] past that.
// The loads' addresses are fixed, so consecutive pushes overlap but for the
// store of one feeding the loads of the next.
template <typename W>
[[gnu::always_inline]] inline void KthLargest::PushAt(double v) {
  if (!lanes_) {
    PushTree(v);
    return;
  }
  double* array = slots_.data();
  W before, value;
  Broadcast(std::numeric_limits<double>::infinity(), &before);  // A[-1]
  Broadcast(v, &value);
  for (int64_t j = 0; j < k_; j += kLanes<W>) {
    W slots, above;
    std::memcpy(&slots, array + j, sizeof(W));
    ShiftIn(before, slots, &above);
    // vminpd and vmaxpd. No operand is NaN or -0, so their order changes
    // no bits.
    const W in = above < value ? above : value;
    const W next = slots > in ? slots : in;
    std::memcpy(array + j, &next, sizeof(W));
    before = slots;
  }
}

}  // namespace internal

namespace {

using internal::KthLargest;

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void PushAvx512(KthLargest* selector,
                                                   double v) {
  selector->PushAt<Lanes8>(v);
}

__attribute__((target("avx2"))) void PushAvx2(KthLargest* selector,
                                              double v) {
  selector->PushAt<Lanes4>(v);
}
#endif

}  // namespace

namespace internal {

void KthLargest::Push(double v) {
#if defined(__x86_64__)
  const kernel::Isa isa = kernel::ActiveIsa();
  if (isa >= kernel::Isa::kAvx512) {
    PushAvx512(this, v);
  } else if (isa >= kernel::Isa::kAvx2) {
    PushAvx2(this, v);
  } else {
    PushAt<Lanes2>(v);
  }
#else
  PushAt<double>(v);
#endif
}

}  // namespace internal

namespace {

/// One query's streaming candidate selection over rows in ascending order.
/// The k-th best lower bound is the verified cutoff: at least `take` rows
/// score >= it, so a row whose upper bound misses it is strictly out of the
/// top-k. When m > take, the m-th best upper bound lowers the cutoff so
/// that at least m rows are reranked; rerank_factor 1 keeps no second heap.
class CandidateStream {
 public:
  CandidateStream(int64_t take, int64_t m, int64_t n) : kth_lower_(take) {
    if (m > take) mth_upper_.emplace(m);
    // Rows in random order admit about m * (1 + ln(n / m)): the first m,
    // then row i with probability m / i. log2 rounds that up (360 rows for
    // bulk-quantized's m = 40 of 10,000, which admits about 264).
    const int64_t log2_ratio =
        std::bit_width(static_cast<uint64_t>(n / m));
    kept_.reserve(static_cast<size_t>(std::min(n, m * (1 + log2_ratio))));
  }

  /// The running cutoff: a row whose upper bound misses it would change
  /// neither selector, since both hold values >= it > upper >= lower.
  double cutoff() const { return cutoff_; }

  /// Feeds one row's bounds, the selectors' lanes in vectors of type W.
  /// Rows come in ascending order.
  template <typename W>
  [[gnu::always_inline]] void Admit(int64_t row, double lower, double upper) {
    kth_lower_.PushAt<W>(lower);
    double cutoff = kth_lower_.Value();
    if (mth_upper_) {
      mth_upper_->PushAt<W>(upper);
      cutoff = std::min(cutoff, mth_upper_->Value());
    }
    cutoff_ = cutoff;
    kept_.push_back(Kept{row, upper});
  }

  /// The final cutoff and the admitted rows that still reach it.
  internal::Candidates Finish() const {
    internal::Candidates out;
    out.cutoff = cutoff_;
    for (const Kept& k : kept_) {
      if (k.upper >= cutoff_) out.rows.push_back(k.row);
    }
    return out;
  }

 private:
  /// A row that reached the cutoff when it streamed past, with its upper
  /// bound so the final cutoff can still drop it.
  struct Kept {
    int64_t row;
    double upper;
  };

  KthLargest kth_lower_;
  std::optional<KthLargest> mth_upper_;
  double cutoff_ = -std::numeric_limits<double>::infinity();
  std::vector<Kept> kept_;
};

/// One step of rows [r0, r0 + rows) as the selection reads it.
struct Step {
  const QuantizedCorpus* corpus;
  const int32_t* dots;  // Query q's dot of row r0 + i at q * rows + i.
  int64_t r0;
  int64_t rows;
  // The float-chain rounding envelope of the reference dot at this dim.
  double chain_gamma;
  double chain_abs;
};

/// *out = p[0, lanes) widened to double.
template <typename T>
[[gnu::always_inline]] inline void Widen(const T* p, double* out) {
  *out = static_cast<double>(*p);
}

/// *out = |x| lane by lane, the sign bit cleared as std::fabs clears it.
template <typename V>
[[gnu::always_inline]] inline void Abs(const V& x, V* out) {
  if constexpr (std::is_same_v<V, double>) {
    *out = std::fabs(x);
  } else {
    using Mask = decltype(x < x);
    *out = reinterpret_cast<V>(reinterpret_cast<Mask>(x) &
                               ~reinterpret_cast<Mask>(-V{}));
  }
}

/// Lane l of v.
template <typename V>
[[gnu::always_inline]] inline double Lane(const V& v, int l) {
  if constexpr (std::is_same_v<V, double>) {
    return v;
  } else {
    return v[l];
  }
}

/// Bit l set iff lane l of `upper` reaches `cutoff`.
[[gnu::always_inline]] inline int Reached(double upper, double cutoff) {
  return upper >= cutoff;
}

#if defined(__x86_64__)
[[gnu::always_inline]] inline void Widen(const float* p, Lanes2* out) {
  *out = _mm_cvtps_pd(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

[[gnu::always_inline]] inline void Widen(const int32_t* p, Lanes2* out) {
  *out = _mm_cvtepi32_pd(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

[[gnu::always_inline]] inline int Reached(const Lanes2& upper,
                                          double cutoff) {
  return _mm_movemask_pd(reinterpret_cast<__m128d>(upper >= cutoff));
}

// Builtins again, for the reason given at Broadcast.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
[[gnu::always_inline]] inline void Widen(const float* p, Lanes4* out) {
  *out = __builtin_ia32_cvtps2pd256(_mm_loadu_ps(p));
}

[[gnu::always_inline]] inline void Widen(const int32_t* p, Lanes4* out) {
  *out = __builtin_ia32_cvtdq2pd256(reinterpret_cast<__v4si>(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

[[gnu::always_inline]] inline int Reached(const Lanes4& upper,
                                          double cutoff) {
  return __builtin_ia32_movmskpd256(
      reinterpret_cast<__v4df>(upper >= cutoff));
}

[[gnu::always_inline]] inline void Widen(const float* p, Lanes8* out) {
  __v8sf x;
  std::memcpy(&x, p, sizeof(x));
  *out = __builtin_ia32_cvtps2pd512_mask(x, Lanes8{}, 0xFF,
                                         _MM_FROUND_CUR_DIRECTION);
}

[[gnu::always_inline]] inline void Widen(const int32_t* p, Lanes8* out) {
  __v8si x;
  std::memcpy(&x, p, sizeof(x));
  *out = __builtin_ia32_cvtdq2pd512_mask(x, Lanes8{}, 0xFF);
}

/// A compare into a mask register: no vector of lane masks is formed.
[[gnu::always_inline]] inline int Reached(const Lanes8& upper,
                                          double cutoff) {
  Lanes8 bound;
  Broadcast(cutoff, &bound);
  return __builtin_ia32_cmppd512_mask(upper, bound, _CMP_GE_OQ, 0xFF,
                                      _MM_FROUND_CUR_DIRECTION);
}
#pragma GCC diagnostic pop
#endif

/// Rows [i, i + lanes of V) of the step for every query: each row's five
/// stats are widened once, and each interval is the expression of a full
/// pass, in its order, with mul and add rounded separately
/// (-ffp-contract=off, and no "fma" target below), so the bounds keep
/// their bits at every width. Admitted rows enter the selectors with lanes
/// of type W. Every bound is finite: QuantizeRows rejects non-finite rows
/// and ScoringBackend::ScoreTopK non-finite queries, so no term exceeds
/// FLT_MAX^2 (~1.2e77) times a factor below 2^31 (a dot, sum_abs_codes or
/// d). That is about 1e87 in all, far inside double's range, and no
/// inf - inf or 0 * inf can make a NaN. No bound is -0 either: err is at
/// least chain_abs > 0, and approx + err or approx - err is zero only as
/// x + (-x), which rounds to +0.
template <typename V, typename W>
[[gnu::always_inline]] inline void SelectGroup(const Step& step, int64_t i,
                                               int nq,
                                               const QueryStats* stats,
                                               CandidateStream* streams) {
  const QuantizedCorpus& corpus = *step.corpus;
  const int64_t r = step.r0 + i;
  V scale, bias, sum_abs_codes, recon_error, max_abs;
  Widen(corpus.scales.data() + r, &scale);
  Widen(corpus.biases.data() + r, &bias);
  Widen(corpus.sum_abs_codes.data() + r, &sum_abs_codes);
  Widen(corpus.recon_errors.data() + r, &recon_error);
  Widen(corpus.max_abs.data() + r, &max_abs);
  // The chain term's first product has no query in it.
  const V chain_max_abs = step.chain_gamma * max_abs;
  for (int q = 0; q < nq; ++q) {
    const QueryStats& s = stats[q];
    V dot;
    Widen(step.dots + q * step.rows + i, &dot);
    const V approx = s.scale * scale * dot + bias * s.sum_q;
    V err = scale * s.max_err * sum_abs_codes + s.sum_abs_q * recon_error +
            chain_max_abs * s.sum_abs_q + step.chain_abs;
    V abs_approx;
    Abs(approx, &abs_approx);
    err = err * (1.0 + kBoundMargin) + kBoundMargin * abs_approx;
    const V upper = approx + err;
    CandidateStream& stream = streams[q];
    const int reached = Reached(upper, stream.cutoff());
    if (reached == 0) continue;
    const V lower = approx - err;
    for (int bits = reached; bits != 0; bits &= bits - 1) {
      const int l = __builtin_ctz(static_cast<unsigned>(bits));
      stream.Admit<W>(r + l, Lane(lower, l), Lane(upper, l));
    }
  }
}

/// Every row group of the step, then its last rows one at a time; the
/// selectors' lanes are vectors of type V throughout.
template <typename V>
[[gnu::always_inline]] inline void SelectStepBody(const Step& step, int nq,
                                                  const QueryStats* stats,
                                                  CandidateStream* streams) {
  int64_t i = 0;
  for (; i + kLanes<V> <= step.rows; i += kLanes<V>) {
    SelectGroup<V, V>(step, i, nq, stats, streams);
  }
  for (; i < step.rows; ++i) {
    SelectGroup<double, V>(step, i, nq, stats, streams);
  }
}

using SelectStepFn = void (*)(const Step& step, int nq,
                              const QueryStats* stats,
                              CandidateStream* streams);

#if defined(__x86_64__)
/// Two rows per SSE2 vector, baseline x86-64.
void SelectStep(const Step& step, int nq, const QueryStats* stats,
                CandidateStream* streams) {
  SelectStepBody<Lanes2>(step, nq, stats, streams);
}

/// Four rows per AVX2 vector, at Isa::kAvx2 and kAvx2Vnni.
__attribute__((target("avx2"))) void SelectStepAvx2(
    const Step& step, int nq, const QueryStats* stats,
    CandidateStream* streams) {
  SelectStepBody<Lanes4>(step, nq, stats, streams);
}

/// Eight rows per AVX-512 vector, from Isa::kAvx512 up.
__attribute__((target("avx512f"))) void SelectStepAvx512(
    const Step& step, int nq, const QueryStats* stats,
    CandidateStream* streams) {
  SelectStepBody<Lanes8>(step, nq, stats, streams);
}
#else
void SelectStep(const Step& step, int nq, const QueryStats* stats,
                CandidateStream* streams) {
  SelectStepBody<double>(step, nq, stats, streams);
}
#endif

class QuantizedBackend final : public ScoringBackend {
 public:
  QuantizedBackend(Tensor items, QuantizedCorpus corpus,
                   int64_t rerank_factor)
      : items_(std::move(items)),
        corpus_(std::move(corpus)),
        rerank_factor_(rerank_factor) {}

  const char* name() const override { return "quantized"; }
  int64_t size() const override { return corpus_.rows; }
  int64_t dim() const override { return corpus_.dim; }
  bool exact() const override { return true; }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t b = batch.queries.rows();
    const int64_t d = corpus_.dim;
    const int64_t n = corpus_.rows;
    const int64_t take = std::min(k, n);
    // rerank_factor floors the candidate set at m rows (by upper bound),
    // the conventional two-stage knob; it can only widen the verified set,
    // never narrow it. The guard keeps the product from overflowing for
    // absurd factors: anything past n means "rerank the whole corpus", as
    // does k >= n.
    const int64_t m = take >= n                 ? n
                      : rerank_factor_ > n / take ? n
                                                  : rerank_factor_ * take;
    const bool every_row = m >= n;
    TopKResult out;
    out.hits.resize(static_cast<size_t>(b));
    Stopwatch watch;

    // Query blocks are independent, so the batch spreads over the kernel
    // pool; each block writes only its own hits rows, and its scan calls
    // (one row block each, inside one scan chunk) run sequentially within
    // the block. Up to sixteen queries share a scan of the codes, but a
    // batch too small to hand every pool thread a full block uses narrower
    // ones, so that 2-4 queries still run on 2-4 threads. The width changes
    // no bits: the int8 dots are exact and each query's selection is its
    // own, so results are bit-identical at every thread count.
    const int64_t threads = kernel::NumThreads();
    const int64_t width =
        std::clamp((b + threads - 1) / threads, int64_t{1}, kQueryBlock);
    kernel::ParallelFor(b, width, [&](int64_t qb, int64_t qe) {
      const int nq = static_cast<int>(qe - qb);
      const float* block = batch.queries.data() + qb * d;
      std::vector<internal::Candidates> candidates;
      if (!every_row) {
        candidates = internal::SelectCandidates(corpus_, block, nq, take, m);
      }

      // Exact rerank: the reference float chain, eight rows per pass.
      kernel::TopK top(take);
      int64_t ids[kernel::kDotRows];
      float scores[kernel::kDotRows];
      for (int i = 0; i < nq; ++i) {
        const float* q = block + i * d;
        if (every_row) {
          for (int64_t r0 = 0; r0 < n; r0 += kernel::kDotRows) {
            const int count =
                static_cast<int>(std::min<int64_t>(kernel::kDotRows, n - r0));
            std::iota(ids, ids + count, r0);
            kernel::DotAscendingRows(items_.data(), ids, count, q, d, scores);
            top.Push(scores, count, r0);
          }
        } else {
          const std::vector<int64_t>& rows =
              candidates[static_cast<size_t>(i)].rows;
          const int64_t total = static_cast<int64_t>(rows.size());
          for (int64_t c = 0; c < total; c += kernel::kDotRows) {
            const int count = static_cast<int>(
                std::min<int64_t>(kernel::kDotRows, total - c));
            kernel::DotAscendingRows(items_.data(), rows.data() + c, count,
                                     q, d, scores);
            top.Push(scores, rows.data() + c, count);
          }
        }
        out.hits[static_cast<size_t>(qb + i)] = top.Take();
      }
    });
    out.score_ms = watch.ElapsedMillis();  // Scan, bounds and rerank fused.
    return out;
  }

 private:
  Tensor items_;             // [N, D] float rows, cold until the rerank.
  QuantizedCorpus corpus_;   // What the approximate scan reads.
  const int64_t rerank_factor_;
};

}  // namespace

namespace internal {

std::vector<Candidates> SelectCandidates(const QuantizedCorpus& corpus,
                                         const float* queries, int nq,
                                         int64_t take, int64_t m) {
  const int64_t d = corpus.dim;
  const int64_t n = corpus.rows;
  ADAMINE_CHECK(nq >= 1 && nq <= kQueryBlock);
  ADAMINE_CHECK(take >= 1 && take <= m && m <= n);
  Step step{};
  step.corpus = &corpus;
  // Float-chain rounding envelope for this dimension: gamma_{d+2} with unit
  // roundoff 2^-24, plus a subnormal absolute term (underflowed products
  // round absolutely, not relatively).
  const double u = std::ldexp(1.0, -24);
  const double du = static_cast<double>(d + 2) * u;
  step.chain_gamma = du / (1.0 - du);
  step.chain_abs = static_cast<double>(d) *
                   static_cast<double>(std::numeric_limits<float>::min());

  std::vector<int8_t> qcodes(static_cast<size_t>(nq * d));
  QueryStats stats[kQueryBlock];
  std::vector<CandidateStream> streams;
  streams.reserve(static_cast<size_t>(nq));
  for (int q = 0; q < nq; ++q) {
    stats[q] =
        internal::QuantizeQuery(queries + q * d, d, qcodes.data() + q * d);
    streams.emplace_back(take, m, n);
  }
  SelectStepFn select = &SelectStep;
#if defined(__x86_64__)
  if (kernel::ActiveIsa() >= kernel::Isa::kAvx512) {
    select = &SelectStepAvx512;
  } else if (kernel::ActiveIsa() >= kernel::Isa::kAvx2) {
    select = &SelectStepAvx2;
  }
#endif
  std::vector<int32_t> dots(static_cast<size_t>(nq * kRowBlock));
  step.dots = dots.data();
  for (int64_t r0 = 0; r0 < n; r0 += kRowBlock) {
    step.r0 = r0;
    step.rows = std::min(kRowBlock, n - r0);
    kernel::Int8ScanRows(corpus.codes.data() + r0 * d, step.rows, d,
                         qcodes.data(), nq, dots.data());
    select(step, nq, stats, streams.data());
  }
  std::vector<Candidates> out;
  out.reserve(static_cast<size_t>(nq));
  for (const CandidateStream& stream : streams) out.push_back(stream.Finish());
  return out;
}

}  // namespace internal

StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateQuantizedBackend(
    const serve::BackendConfig& config) {
  if (config.rerank_factor < 1) {
    return Status::InvalidArgument(
        "quantized backend needs rerank_factor >= 1, got " +
        std::to_string(config.rerank_factor));
  }
  auto corpus = QuantizeRows(config.items);
  if (!corpus.ok()) return corpus.status();
  // The Tensor copy aliases the caller's buffer: the float rows stay
  // resident for the exact rerank but are never touched by the scan.
  return std::unique_ptr<serve::ScoringBackend>(new QuantizedBackend(
      config.items, std::move(corpus).value(), config.rerank_factor));
}

}  // namespace adamine::quant
