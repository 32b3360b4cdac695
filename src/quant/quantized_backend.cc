// The two-stage quantized scoring backend.
//
// Stage 1 scans the int8 codes (kernel::Int8ScanRows, one pass per block of
// up to four queries) and turns each integer dot into a *score interval*
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
// four rows per AVX2 vector (two per SSE2 vector below Isa::kAvx2). One
// vector compare tests a group against the query's running cutoff
// min(kth_lower, mth_upper), and only a row whose upper bound reaches it
// enters the two bounded heaps (k-th best lower bound, m-th best upper
// bound). The cutoff only rises and lower <= upper, so a row below it could
// not have changed either heap: the heaps, the final cutoff and the
// candidate set are exactly those of a full pass over every row's bounds.

#include "quant/quantized_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

using serve::BackendConfig;
using serve::Filter;
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

/// Rows per streaming step: the block's dots (4 KB for four queries) stay
/// in L1 between the scan and the selection.
constexpr int64_t kRowBlock = 256;

/// k-th largest value of a stream, branch-free: a min-heap of k slots
/// prefilled with -inf, laid out as a complete binary tree whose slots past
/// k hold +inf. Push sifts max(v, root) down the tree's full depth with
/// selects only, so a value at or below the root leaves every slot as it
/// was and the root is the k-th largest once k values were pushed (-inf
/// before). The selected *value* is std::nth_element's, so candidate
/// selection, and the bit-exact result, is unchanged. The tree takes fewer
/// than 2k slots; callers keep k at most the corpus size.
class KthLargest {
 public:
  explicit KthLargest(int64_t k) {
    while ((int64_t{2} << depth_) <= k) ++depth_;  // depth_ = floor(log2 k)
    heap_.assign((size_t{2} << depth_) - 1,
                 std::numeric_limits<double>::infinity());
    std::fill_n(heap_.begin(), k, -std::numeric_limits<double>::infinity());
  }

  void Push(double v) {
    double* heap = heap_.data();
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

  /// The k-th largest value pushed, -inf until k were.
  double Value() const { return heap_[0]; }

 private:
  int depth_ = 0;
  std::vector<double> heap_;
};

/// One query's symmetric int8 quantization, q[j] ~= scale * code[j], with
/// the statistics its score intervals need.
struct QueryStats {
  double sum_q = 0.0;
  double sum_abs_q = 0.0;
  double scale = 0.0;
  double max_err = 0.0;  // max_j |q[j] - scale * code[j]|
};

/// Quantizes q[0, d) into codes[0, d). Double, ascending j: deterministic.
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
  for (int64_t j = 0; j < d; ++j) {
    int32_t c = 0;
    if (s.scale > 0.0) {
      const double rounded = std::nearbyint(q[j] / s.scale);
      c = static_cast<int32_t>(std::max(-127.0, std::min(127.0, rounded)));
    }
    codes[j] = static_cast<int8_t>(c);
    s.max_err = std::max(s.max_err, std::fabs(q[j] - s.scale * c));
  }
  return s;
}

/// One query's streaming candidate selection over rows in ascending order.
/// The k-th best lower bound is the verified cutoff: at least `take` rows
/// score >= it, so a row whose upper bound misses it is strictly out of the
/// top-k. When m > take, the m-th best upper bound lowers the cutoff so
/// that at least m rows are reranked; rerank_factor 1 keeps no second heap.
class CandidateStream {
 public:
  CandidateStream(int64_t take, int64_t m) : kth_lower_(take) {
    if (m > take) mth_upper_.emplace(m);
    kept_.reserve(static_cast<size_t>(kRowBlock));
  }

  /// The running cutoff: a row whose upper bound misses it would change
  /// neither heap, since both hold values >= it > upper >= lower.
  double cutoff() const { return cutoff_; }

  /// Feeds one row's bounds. Rows come in ascending order.
  void Admit(int64_t row, double lower, double upper) {
    kth_lower_.Push(lower);
    double cutoff = kth_lower_.Value();
    if (mth_upper_) {
      mth_upper_->Push(upper);
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

// A row group's lanes: one double (the rows past a step's last full group),
// two doubles (SSE2) or four (AVX2), as GCC vector types, so the interval
// expression is written once for every width. Helpers hand vectors through
// references and pointers: a 32-byte vector passed or returned by value
// changes the ABI outside AVX2 code.
typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));

template <typename V>
constexpr int kLanes = sizeof(V) / sizeof(double);

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

/// Bit l set iff lane l of the comparison `reached` is true.
[[gnu::always_inline]] inline int Bits(bool reached) { return reached; }

#if defined(__x86_64__)
typedef int64_t Mask2 __attribute__((vector_size(16)));
typedef int64_t Mask4 __attribute__((vector_size(32)));

[[gnu::always_inline]] inline void Widen(const float* p, Lanes2* out) {
  *out = _mm_cvtps_pd(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

[[gnu::always_inline]] inline void Widen(const int32_t* p, Lanes2* out) {
  *out = _mm_cvtepi32_pd(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

[[gnu::always_inline]] inline int Bits(const Mask2& reached) {
  return _mm_movemask_pd(reinterpret_cast<__m128d>(reached));
}

// The four-lane helpers use GCC builtins, not <immintrin.h> intrinsics: an
// intrinsic carries target("avx2") and cannot be inlined into the shared
// body, while a builtin is checked only where it is expanded, inside
// SelectStepAvx2. For the same reason GCC's warning that a 32-byte vector
// return changes the ABI outside AVX2 code does not apply: a builtin is
// never called.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
[[gnu::always_inline]] inline void Widen(const float* p, Lanes4* out) {
  *out = __builtin_ia32_cvtps2pd256(_mm_loadu_ps(p));
}

[[gnu::always_inline]] inline void Widen(const int32_t* p, Lanes4* out) {
  *out = __builtin_ia32_cvtdq2pd256(reinterpret_cast<__v4si>(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

[[gnu::always_inline]] inline int Bits(const Mask4& reached) {
  return __builtin_ia32_movmskpd256(reinterpret_cast<__v4df>(reached));
}
#pragma GCC diagnostic pop
#endif

/// Rows [i, i + lanes) of the step for every query: each row's five stats
/// are widened once, and each interval is the expression of a full pass,
/// in its order, with mul and add rounded separately (-ffp-contract=off,
/// and no "fma" target below), so the bounds keep their bits at every
/// width. Every bound is finite: QuantizeRows rejects non-finite rows and
/// ScoringBackend::ScoreTopK non-finite queries, so no term exceeds
/// FLT_MAX^2 (~1.2e77) times a factor below 2^31 (a dot, sum_abs_codes or
/// d). That is about 1e87 in all, far inside double's range, and no
/// inf - inf or 0 * inf can make a NaN.
template <typename V>
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
    const int reached = Bits(upper >= stream.cutoff());
    if (reached == 0) continue;
    const V lower = approx - err;
    for (int bits = reached; bits != 0; bits &= bits - 1) {
      const int l = __builtin_ctz(static_cast<unsigned>(bits));
      stream.Admit(r + l, Lane(lower, l), Lane(upper, l));
    }
  }
}

/// Every row group of the step, then its last rows one at a time.
template <typename V>
[[gnu::always_inline]] inline void SelectStepBody(const Step& step, int nq,
                                                  const QueryStats* stats,
                                                  CandidateStream* streams) {
  int64_t i = 0;
  for (; i + kLanes<V> <= step.rows; i += kLanes<V>) {
    SelectGroup<V>(step, i, nq, stats, streams);
  }
  for (; i < step.rows; ++i) SelectGroup<double>(step, i, nq, stats, streams);
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

/// Four rows per AVX2 vector, from Isa::kAvx2 up.
__attribute__((target("avx2"))) void SelectStepAvx2(
    const Step& step, int nq, const QueryStats* stats,
    CandidateStream* streams) {
  SelectStepBody<Lanes4>(step, nq, stats, streams);
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
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch,
                                     const Filter* /*filter*/, int64_t k,
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
    // the block. Up to four queries share a scan of the codes, but a batch
    // too small to hand every pool thread a full block uses narrower ones,
    // so that 2-4 queries still run on 2-4 threads. The width changes no
    // bits: the int8 dots are exact and each query's selection is its own,
    // so results are bit-identical at every thread count.
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
    stats[q] = QuantizeQuery(queries + q * d, d, qcodes.data() + q * d);
    streams.emplace_back(take, m);
  }
  SelectStepFn select = &SelectStep;
#if defined(__x86_64__)
  if (kernel::ActiveIsa() >= kernel::Isa::kAvx2) select = &SelectStepAvx2;
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
