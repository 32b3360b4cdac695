// The two-stage quantized scoring backend.
//
// Stage 1 scans the int8 codes (kernel::Int8ScanRows, one pass per block of
// up to four queries) and turns each integer dot into a *score interval*
// [approx - E, approx + E] that provably contains the reference float-chain
// score. Stage 2 gathers every row whose interval upper bound reaches the
// k-th best lower bound (floored at rerank_factor * k rows) and reranks just
// those with the exact reference dot (kernel::DotAscending, compiled under
// -ffp-contract=off). Because no excluded row can beat the k-th best lower
// bound, the final top-k is bit-identical to the exhaustive path — this
// backend reports exact() == true and passes the golden-diff matrix.
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
// Selection streams: rows arrive in blocks, and a row enters the two
// bounded heaps (k-th best lower bound, m-th best upper bound) only if its
// upper bound reaches the running cutoff min(kth_lower, mth_upper). The
// cutoff only rises and lower <= upper, so a row below it could not have
// changed either heap: the heaps, the final cutoff and the candidate set
// are exactly those of a full pass over every row's bounds.

#include "quant/quantized_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "quant/int8_corpus.h"
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

/// Rows per streaming step: the block's dots (4 KB for four queries) and
/// one query's bounds (4 KB) stay in L1 between the scan and the selection.
constexpr int64_t kRowBlock = 256;

/// k-th largest value of a stream via a size-k min-heap: the common case is
/// a single compare against the heap root per element, so a 40k-row corpus
/// costs ~n compares where std::nth_element's introselect costs a full
/// O(n) partition pass plus the copy into scratch (measured ~10x slower on
/// the serving bench shape). The selected *value* is identical to
/// nth_element's, so candidate selection — and the bit-exact result — is
/// unchanged.
class KthLargest {
 public:
  explicit KthLargest(int64_t k) : k_(static_cast<size_t>(k)) {
    heap_.reserve(k_);
  }

  void Push(double v) {
    if (heap_.size() < k_) {
      heap_.push_back(v);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    } else if (v > heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
      heap_.back() = v;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    }
  }

  /// True once k values were pushed; from then on Push(v) with v <= Value()
  /// leaves the heap unchanged.
  bool full() const { return heap_.size() == k_; }

  /// The k-th largest seen so far; requires full().
  double Value() const { return heap_.front(); }

 private:
  size_t k_;
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
/// that at least m rows are reranked.
class CandidateStream {
 public:
  CandidateStream(int64_t take, int64_t m) : kth_lower_(take) {
    if (m > take) mth_upper_.emplace(m);
  }

  /// Feeds rows [r0, r0 + rows) with their bounds. A row whose upper bound
  /// misses the running cutoff is skipped: both heaps are full and hold
  /// values >= the cutoff > upper >= lower, so pushing it would change
  /// neither.
  void Push(int64_t r0, const double* lower, const double* upper,
            int64_t rows) {
    for (int64_t i = 0;; ++i) {
      // The skip loop makes no call and no store, so it stays in registers.
      const double cutoff = cutoff_;
      while (i < rows && upper[i] < cutoff) ++i;
      if (i == rows) return;
      Admit(r0 + i, lower[i], upper[i]);
    }
  }

  /// Calls fn(row) for each candidate, ascending.
  template <typename Fn>
  void ForEachCandidate(const Fn& fn) const {
    for (const Kept& k : kept_) {
      if (!(k.upper < cutoff_)) fn(k.row);
    }
  }

 private:
  /// A row that reached the cutoff when it streamed past, with its upper
  /// bound so the final cutoff can still drop it.
  struct Kept {
    int64_t row;
    double upper;
  };

  void Admit(int64_t row, double lower, double upper) {
    kth_lower_.Push(lower);
    if (mth_upper_) mth_upper_->Push(upper);
    kept_.push_back(Kept{row, upper});
    if (!kth_lower_.full()) return;
    if (!mth_upper_) {
      cutoff_ = kth_lower_.Value();
    } else if (mth_upper_->full()) {
      cutoff_ = std::min(kth_lower_.Value(), mth_upper_->Value());
    }
  }

  KthLargest kth_lower_;
  std::optional<KthLargest> mth_upper_;
  double cutoff_ = -std::numeric_limits<double>::infinity();
  std::vector<Kept> kept_;
};

class QuantizedBackend final : public ScoringBackend {
 public:
  QuantizedBackend(Tensor items, QuantizedCorpus corpus,
                   int64_t rerank_factor)
      : items_(std::move(items)),
        corpus_(std::move(corpus)),
        rerank_factor_(rerank_factor) {
    // Float-chain rounding envelope for this dimension, hoisted out of the
    // per-row loop: gamma_{d+2} with unit roundoff 2^-24, plus a subnormal
    // absolute term (underflowed products round absolutely, not
    // relatively).
    const double u = std::ldexp(1.0, -24);
    const double du = static_cast<double>(corpus_.dim + 2) * u;
    chain_gamma_ = du / (1.0 - du);
    chain_abs_ = static_cast<double>(corpus_.dim) *
                 static_cast<double>(std::numeric_limits<float>::min());
  }

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
      std::vector<CandidateStream> streams;
      if (!every_row) {
        std::vector<int8_t> qcodes(static_cast<size_t>(nq * d));
        QueryStats stats[kQueryBlock];
        for (int i = 0; i < nq; ++i) {
          stats[i] = QuantizeQuery(batch.queries.data() + (qb + i) * d, d,
                                   qcodes.data() + i * d);
          streams.emplace_back(take, m);
        }
        std::vector<int32_t> dots(static_cast<size_t>(nq * kRowBlock));
        std::vector<double> lower(static_cast<size_t>(kRowBlock));
        std::vector<double> upper(static_cast<size_t>(kRowBlock));
        for (int64_t r0 = 0; r0 < n; r0 += kRowBlock) {
          const int64_t rows = std::min(kRowBlock, n - r0);
          kernel::Int8ScanRows(corpus_.codes.data() + r0 * d, rows, d,
                               qcodes.data(), nq, dots.data());
          for (int i = 0; i < nq; ++i) {
            Bounds(stats[i], r0, rows, dots.data() + i * rows, lower.data(),
                   upper.data());
            streams[static_cast<size_t>(i)].Push(r0, lower.data(),
                                                 upper.data(), rows);
          }
        }
      }

      // Exact rerank: ascending row order, reference float chain.
      kernel::TopK top(take);
      for (int i = 0; i < nq; ++i) {
        const float* q = batch.queries.data() + (qb + i) * d;
        const auto rescore = [&](int64_t r) {
          top.Push(kernel::DotAscending(items_.data() + r * d, q, d), r);
        };
        if (every_row) {
          for (int64_t r = 0; r < n; ++r) rescore(r);
        } else {
          streams[static_cast<size_t>(i)].ForEachCandidate(rescore);
        }
        out.hits[static_cast<size_t>(qb + i)] = top.Take();
      }
    });
    out.score_ms = watch.ElapsedMillis();  // Scan, bounds and rerank fused.
    return out;
  }

 private:
  /// Score intervals [lower[i], upper[i]] of rows [r0, r0 + rows) for one
  /// query, from its int8 dots. No early exit, so the loop vectorises; each
  /// lane evaluates the same expression in the same order, with mul and add
  /// rounded separately (-ffp-contract=off), so the bounds keep their bits.
  /// Every bound is finite: QuantizeRows rejects non-finite rows and
  /// ScoringBackend::ScoreTopK non-finite queries, so no term exceeds
  /// FLT_MAX^2 (~1.2e77) times a factor below 2^31 (a dot, sum_abs_codes
  /// or d). That is about 1e87 in all, far inside double's range, and no
  /// inf - inf or 0 * inf can make a NaN.
  void Bounds(const QueryStats& q, int64_t r0, int64_t rows,
              const int32_t* dots, double* lower, double* upper) const {
    const float* scales = corpus_.scales.data() + r0;
    const float* biases = corpus_.biases.data() + r0;
    const int32_t* sum_abs_codes = corpus_.sum_abs_codes.data() + r0;
    const float* recon_errors = corpus_.recon_errors.data() + r0;
    const float* max_abs = corpus_.max_abs.data() + r0;
    // Locals, not members: the stores below could alias a double member.
    const double q_scale = q.scale;
    const double sum_q = q.sum_q;
    const double sum_abs_q = q.sum_abs_q;
    const double max_err = q.max_err;
    const double chain_gamma = chain_gamma_;
    const double chain_abs = chain_abs_;
    for (int64_t i = 0; i < rows; ++i) {
      const double scale = scales[i];
      const double approx = q_scale * scale * dots[i] +
                            static_cast<double>(biases[i]) * sum_q;
      double err = scale * max_err * sum_abs_codes[i] +
                   sum_abs_q * recon_errors[i] +
                   chain_gamma * max_abs[i] * sum_abs_q + chain_abs;
      err = err * (1.0 + kBoundMargin) + kBoundMargin * std::fabs(approx);
      lower[i] = approx - err;
      upper[i] = approx + err;
    }
  }

  Tensor items_;             // [N, D] float rows, cold until the rerank.
  QuantizedCorpus corpus_;   // What the approximate scan reads.
  const int64_t rerank_factor_;
  double chain_gamma_ = 0.0;
  double chain_abs_ = 0.0;
};

}  // namespace

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
