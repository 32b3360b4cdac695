// The quantized-scoring suite (ctest label `quant`): ref-vs-fast diffing of
// the int8 scan at every ISA level (AVX-VNNI and AVX2 tiles, portable loop)
// in the ggml test-backend-ops style — every length around the vector
// widths, misaligned starts, adversarial code patterns, every query count —
// plus the row-quantizer's
// error-bound contract on hostile rows (denormal, max-magnitude, all-equal,
// wildly mixed), the ADMQ on-disk format's corruption behaviour, and
// end-to-end bit-identity of the quantized backend against the scalar
// reference across k x threads x rerank_factor on a quantization-hostile
// corpus and at the serving shape. The backend also auto-inherits the full
// golden matrix by registration (tests/backend_golden_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "isa_testlib.h"
#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "quant/int8_corpus.h"
#include "quant/quantized_backend.h"
#include "serve/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace adamine {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

// --- Int8 dot kernels: every ISA level diffed against the reference ------

std::vector<int8_t> RandomCodes(int64_t n, Rng* rng) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& c : v) c = static_cast<int8_t>(rng->UniformInt(255) - 127);
  return v;
}

/// The one-row, one-query scan at the fixture's level against the
/// reference.
void ExpectOneRowScanMatchesRef(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t got = -1;
  kernel::Int8ScanRows(a, 1, n, b, &got);
  EXPECT_EQ(got, kernel::Int8DotRef(a, b, n))
      << "n=" << n << " isa=" << kernel::Int8DotIsa();
}

/// The int8 scan once per ISA level (tests/isa_testlib.h): the portable
/// loop, the AVX2 tile (16-code steps) and the AVX-VNNI tile (32-code
/// steps, wrapping offset correction).
class Int8DotTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, Int8DotTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(Int8DotTest, MatchesReferenceAcrossLengths) {
  // Every length through a few steps of both vector tiles (16 and 32 codes
  // each), so 0..131 covers empty, sub-step, exact-step and every tail
  // length of either, plus wider power-of-two and off-by-one sizes.
  Rng rng(101);
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 131; ++n) lengths.push_back(n);
  for (int64_t n : {255, 256, 1000}) lengths.push_back(n);
  for (int64_t n : lengths) {
    const std::vector<int8_t> a = RandomCodes(n, &rng);
    const std::vector<int8_t> b = RandomCodes(n, &rng);
    ExpectOneRowScanMatchesRef(a.data(), b.data(), n);
  }
}

TEST_P(Int8DotTest, MatchesReferenceOnMisalignedStarts) {
  // The kernel takes raw pointers, so it must be correct (and bit-equal)
  // from any byte offset, not just 32-byte-aligned ones.
  Rng rng(103);
  const int64_t n = 200;
  const std::vector<int8_t> a = RandomCodes(n + 33, &rng);
  const std::vector<int8_t> b = RandomCodes(n + 33, &rng);
  for (int64_t off_a : {0, 1, 7, 31}) {
    for (int64_t off_b : {0, 3, 17}) {
      SCOPED_TRACE(::testing::Message()
                   << "offsets " << off_a << ", " << off_b);
      ExpectOneRowScanMatchesRef(a.data() + off_a, b.data() + off_b, n);
    }
  }
}

TEST_P(Int8DotTest, AdversarialCodePatternsAtMaxLength) {
  // Saturated codes at the maximum supported length drive the accumulator
  // to its extremes: +-127 * +-127 * 131072 stays inside int32 by the
  // kInt8DotMaxElems contract, the madd_epi16 pairing in the AVX2 tile
  // must not wrap intermediate i16 sums, and the AVX-VNNI tile's offset
  // must come out exact although its unsigned sums alone reach (127 + 128)
  // * 127 * 131072 ~= 4.2e9 for all-max rows.
  const int64_t n = kernel::kInt8DotMaxElems;
  std::vector<int8_t> all_max(static_cast<size_t>(n), int8_t{127});
  std::vector<int8_t> all_min(static_cast<size_t>(n), int8_t{-127});
  std::vector<int8_t> alternating(static_cast<size_t>(n));
  std::vector<int8_t> zeros(static_cast<size_t>(n), int8_t{0});
  for (int64_t i = 0; i < n; ++i) {
    alternating[static_cast<size_t>(i)] = (i % 2 == 0) ? 127 : -127;
  }
  const std::vector<int8_t>* patterns[] = {&all_max, &all_min, &alternating,
                                           &zeros};
  for (const auto* a : patterns) {
    for (const auto* b : patterns) {
      ExpectOneRowScanMatchesRef(a->data(), b->data(), n);
    }
  }
  // The same 16 pairs from one 4-row x 4-query scan: the full-width tile
  // at the maximum length.
  std::vector<int8_t> stacked;
  for (const auto* p : patterns) {
    stacked.insert(stacked.end(), p->begin(), p->end());
  }
  std::vector<int32_t> dots(16, -1);
  kernel::Int8ScanRows(stacked.data(), 4, n, stacked.data(), 4, dots.data());
  for (int q = 0; q < 4; ++q) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(dots[static_cast<size_t>(q * 4 + r)],
                kernel::Int8DotRef(patterns[r]->data(), patterns[q]->data(),
                                   n))
          << "row " << r << " query " << q;
    }
  }
  // The quantizer never emits -128, but the scan takes any int8. A query
  // of -128s makes 128 * sum(q) exactly -2^31, so each AVX-VNNI lane 0
  // starts at INT32_MIN and must wrap, not saturate, as the products
  // (c + 128) * -128 <= 0 arrive. Every dot still fits in int32:
  // |127 * 128 * n| < 2^31.
  const std::vector<int8_t> all_neg128(static_cast<size_t>(n), int8_t{-128});
  std::vector<int32_t> neg_dots(4, -1);
  kernel::Int8ScanRows(stacked.data(), 4, n, all_neg128.data(), 1,
                       neg_dots.data());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(neg_dots[static_cast<size_t>(r)],
              kernel::Int8DotRef(patterns[r]->data(), all_neg128.data(), n))
        << "row " << r << " against a query of -128s";
  }
  // Spot-check one closed form: 127 * 127 * n.
  EXPECT_EQ(kernel::Int8DotRef(all_max.data(), all_max.data(), n),
            static_cast<int32_t>(127 * 127 * n));
}

class Int8ScanRowsTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, Int8ScanRowsTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(Int8ScanRowsTest, MatchesPerRowReferenceAtEveryThreadCount) {
  // Row counts around the tile heights (8 / queries) and past one parallel
  // chunk; dims around the 16- and 32-code steps; every query count.
  Rng rng(107);
  for (int64_t rows : {1, 2, 3, 5, 97, 600}) {
    for (int64_t dim :
         {1, 15, 16, 17, 31, 32, 33, 60, 63, 64, 65, 96, 128, 131}) {
      const std::vector<int8_t> codes = RandomCodes(rows * dim, &rng);
      const std::vector<int8_t> queries =
          RandomCodes(kernel::kInt8ScanMaxQueries * dim, &rng);
      for (int nq = 1; nq <= kernel::kInt8ScanMaxQueries; ++nq) {
        std::vector<int32_t> expect(static_cast<size_t>(nq * rows));
        for (int q = 0; q < nq; ++q) {
          for (int64_t r = 0; r < rows; ++r) {
            expect[static_cast<size_t>(q * rows + r)] = kernel::Int8DotRef(
                codes.data() + r * dim, queries.data() + q * dim, dim);
          }
        }
        for (int threads : {1, 2, 4, 8}) {
          ThreadGuard guard(threads);
          std::vector<int32_t> got(expect.size(), -1);
          kernel::Int8ScanRows(codes.data(), rows, dim, queries.data(), nq,
                               got.data());
          EXPECT_EQ(got, expect)
              << "rows=" << rows << " dim=" << dim << " queries=" << nq
              << " threads=" << threads << " isa=" << kernel::Int8DotIsa();
        }
      }
    }
  }
}

// --- QuantizeRows: the per-row error-bound contract ----------------------

/// The quantizer's whole value is this invariant: for every element,
/// |x - (scale * code + bias)| <= recon_error, and |x| <= max_abs.
void CheckBoundsHold(const Tensor& items, const quant::QuantizedCorpus& q) {
  ASSERT_EQ(q.rows, items.rows());
  ASSERT_EQ(q.dim, items.cols());
  for (int64_t r = 0; r < q.rows; ++r) {
    const size_t s = static_cast<size_t>(r);
    int32_t sum_abs = 0;
    for (int64_t j = 0; j < q.dim; ++j) {
      const double x = items.At(r, j);
      const double code = q.codes[static_cast<size_t>(r * q.dim + j)];
      const double recon =
          static_cast<double>(q.scales[s]) * code + q.biases[s];
      EXPECT_LE(std::fabs(x - recon), q.recon_errors[s])
          << "row " << r << " col " << j;
      EXPECT_LE(std::fabs(x), q.max_abs[s]) << "row " << r << " col " << j;
      sum_abs += static_cast<int32_t>(std::abs(static_cast<int>(code)));
    }
    EXPECT_EQ(q.sum_abs_codes[s], sum_abs) << "row " << r;
  }
}

TEST(QuantizeRowsTest, BoundsHoldOnHostileRows) {
  // One tensor, five hostile rows: all-zero (scale 0), all-equal (zero
  // range at a nonzero bias), denormal range (scale underflows to 0),
  // max-magnitude floats, and wildly mixed magnitudes within one row (the
  // scale is set by the large values, crushing the small ones to code 0).
  const int64_t dim = 8;
  Tensor items({5, dim});
  for (int64_t j = 0; j < dim; ++j) {
    items.At(0, j) = 0.0f;
    items.At(1, j) = 3.25f;
    items.At(2, j) = std::numeric_limits<float>::denorm_min() *
                     static_cast<float>(j);
    items.At(3, j) = (j % 2 == 0) ? std::numeric_limits<float>::max()
                                  : std::numeric_limits<float>::lowest();
    items.At(4, j) = (j % 2 == 0) ? 1.0e6f : 1.0e-6f;
  }
  auto q = quant::QuantizeRows(items);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CheckBoundsHold(items, *q);
  // Degenerate rows still describe themselves honestly: the all-zero row
  // reconstructs exactly, the all-equal row via its bias.
  EXPECT_EQ(q->recon_errors[0], 0.0f);
  EXPECT_EQ(q->sum_abs_codes[0], 0);
  EXPECT_EQ(q->biases[1], 3.25f);
}

TEST(QuantizeRowsTest, BoundsHoldOnRandomRows) {
  Rng rng(109);
  Tensor items = Tensor::Randn({17, 24}, rng);
  auto q = quant::QuantizeRows(items);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CheckBoundsHold(items, *q);
  // Sanity on the advertised memory accounting: codes plus per-row stats.
  EXPECT_EQ(quant::QuantizedBytes(*q),
            17 * 24 + 17 * (4 + 4 + 4 + 4 + 4));
}

TEST(QuantizeRowsTest, RejectsNonFiniteAndOversizedInput) {
  Rng rng(113);
  Tensor nan_items = Tensor::Randn({3, 4}, rng);
  nan_items.At(1, 2) = std::numeric_limits<float>::quiet_NaN();
  auto q = quant::QuantizeRows(nan_items);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);

  Tensor inf_items = Tensor::Randn({3, 4}, rng);
  inf_items.At(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(quant::QuantizeRows(inf_items).ok());

  Tensor flat({4});  // 1-D: not a row corpus.
  EXPECT_FALSE(quant::QuantizeRows(flat).ok());
}

// --- ADMQ serialization --------------------------------------------------

quant::QuantizedCorpus RoundTripCorpus() {
  Rng rng(127);
  Tensor items = Tensor::Randn({9, 12}, rng);
  auto q = quant::QuantizeRows(items);
  ADAMINE_CHECK(q.ok());
  return std::move(q).value();
}

void ExpectSameCorpus(const quant::QuantizedCorpus& a,
                      const quant::QuantizedCorpus& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.scales, b.scales);
  EXPECT_EQ(a.biases, b.biases);
  EXPECT_EQ(a.sum_abs_codes, b.sum_abs_codes);
  EXPECT_EQ(a.recon_errors, b.recon_errors);
  EXPECT_EQ(a.max_abs, b.max_abs);
}

TEST(QuantizedCorpusIoTest, RoundTripsBitExact) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  auto back = quant::ReadQuantizedCorpus(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCorpus(corpus, *back);
}

TEST(QuantizedCorpusIoTest, FileRoundTripAndMissingFile) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  const std::string path = testing::TempDir() + "/corpus.admq";
  ASSERT_TRUE(quant::SaveQuantizedCorpus(path, corpus).ok());
  auto back = quant::LoadQuantizedCorpus(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCorpus(corpus, *back);
  std::remove(path.c_str());
  EXPECT_FALSE(quant::LoadQuantizedCorpus(path).ok());
}

TEST(QuantizedCorpusIoTest, EveryTruncationIsRejected) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  const std::string bytes = ss.str();
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto result = quant::ReadQuantizedCorpus(truncated);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(QuantizedCorpusIoTest, BitFlipsAreCaughtByTheCrc) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  const std::string bytes = ss.str();
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::stringstream in(corrupt);
    auto result = quant::ReadQuantizedCorpus(in);
    EXPECT_FALSE(result.ok()) << "flip at byte " << pos << " parsed";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << pos;
    }
  }
}

// --- End-to-end: quantized backend vs the scalar reference ---------------

/// Unit rows whose coordinates span seven orders of magnitude — the
/// geometry int8 quantization is worst at (the golden suite runs the same
/// shape through every backend; this sweep adds the rerank_factor axis).
Tensor MixedMagnitudeUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < dim; ++j) {
      const double mag = std::pow(10.0, -static_cast<double>((j + r) % 7));
      out.At(r, j) = static_cast<float>(rng.Normal(0.0, 1.0) * mag);
    }
    out.At(r, rng.UniformInt(dim)) += 1.0f;
  }
  return L2NormalizeRows(out);
}

/// Unit rows scattered around a few shared centres, like trained
/// embeddings: many near neighbours per query, so the bounded heaps cut the
/// candidate set, not only the rerank_factor floor. The centres depend on
/// dim alone, so items and queries drawn with different seeds share them.
Tensor ClusteredUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  constexpr int64_t kCentres = 12;
  Rng centre_rng(static_cast<uint64_t>(dim));
  const Tensor centres = Tensor::Randn({kCentres, dim}, centre_rng);
  Rng rng(seed);
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t c = rng.UniformInt(kCentres);
    for (int64_t j = 0; j < dim; ++j) {
      out.At(r, j) =
          centres.At(c, j) + static_cast<float>(0.4 * rng.Normal(0.0, 1.0));
    }
  }
  return L2NormalizeRows(out);
}

/// Twenty rows quantized coarsely (a 0.49 beside +-100), so their score
/// intervals are wide, and one exact constant row that scores 0.5 against
/// e_0 and wins. Ranked by upper bound alone the wide rows fill any small
/// rerank floor; only the verified cutoff, the k-th best lower bound, keeps
/// the winner among the candidates.
Tensor WideIntervalRows(int64_t dim) {
  Tensor out({21, dim});
  for (int64_t r = 0; r < 20; ++r) {
    out.At(r, 0) = 0.49f;
    out.At(r, 1) = 100.0f;
    out.At(r, 2) = -100.0f;
  }
  for (int64_t j = 0; j < dim; ++j) out.At(20, j) = 0.5f;
  return out;
}

// --- The selection stage against a full pass over every row --------------

/// Each row of `base` `copies` times, copy c of row i at row
/// c * base.rows() + i, so equal score intervals recur across the 256-row
/// steps and straddle any cutoff one of them sets.
Tensor DuplicatedRows(const Tensor& base, int64_t copies) {
  const int64_t rows = base.rows();
  const int64_t dim = base.cols();
  Tensor out({rows * copies, dim});
  for (int64_t c = 0; c < copies; ++c) {
    std::copy(base.data(), base.data() + rows * dim,
              out.data() + c * rows * dim);
  }
  return out;
}

/// The selection a full pass over every row makes, written independently of
/// the backend: the query's symmetric int8 quantization, every row's score
/// interval by the scalar expression, the take-th best lower and the m-th
/// best upper bound by std::nth_element, and every row whose upper bound
/// reaches the smaller of the two. This file is compiled with
/// -ffp-contract=off, like the backend, so the expression rounds each
/// product and sum on its own.
quant::internal::Candidates FullPassSelection(
    const quant::QuantizedCorpus& corpus, const float* query, int64_t take,
    int64_t m) {
  const int64_t d = corpus.dim;
  const int64_t n = corpus.rows;
  double sum_q = 0.0;
  double sum_abs_q = 0.0;
  double qmax = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    sum_q += query[j];
    sum_abs_q += std::fabs(static_cast<double>(query[j]));
    qmax = std::max(qmax, std::fabs(static_cast<double>(query[j])));
  }
  const double q_scale = qmax / 127.0;
  std::vector<int8_t> codes(static_cast<size_t>(d));
  double max_err = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double c =
        q_scale > 0.0
            ? std::clamp(std::nearbyint(query[j] / q_scale), -127.0, 127.0)
            : 0.0;
    codes[static_cast<size_t>(j)] = static_cast<int8_t>(c);
    max_err = std::max(max_err, std::fabs(query[j] - q_scale * c));
  }
  const double du = static_cast<double>(d + 2) * std::ldexp(1.0, -24);
  const double chain_gamma = du / (1.0 - du);
  const double chain_abs =
      static_cast<double>(d) *
      static_cast<double>(std::numeric_limits<float>::min());
  std::vector<double> lower(static_cast<size_t>(n));
  std::vector<double> upper(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const size_t i = static_cast<size_t>(r);
    const int32_t dot =
        kernel::Int8DotRef(corpus.codes.data() + r * d, codes.data(), d);
    const double scale = corpus.scales[i];
    const double approx = q_scale * scale * dot +
                          static_cast<double>(corpus.biases[i]) * sum_q;
    double err = scale * max_err * corpus.sum_abs_codes[i] +
                 sum_abs_q * corpus.recon_errors[i] +
                 chain_gamma * corpus.max_abs[i] * sum_abs_q + chain_abs;
    err = err * (1.0 + 1e-9) + 1e-9 * std::fabs(approx);
    lower[i] = approx - err;
    upper[i] = approx + err;
  }
  const auto kth_largest = [](std::vector<double> values, int64_t k) {
    std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                     std::greater<double>());
    return values[static_cast<size_t>(k - 1)];
  };
  quant::internal::Candidates out;
  out.cutoff = std::min(kth_largest(lower, take), kth_largest(upper, m));
  for (int64_t r = 0; r < n; ++r) {
    if (upper[static_cast<size_t>(r)] >= out.cutoff) out.rows.push_back(r);
  }
  return out;
}

/// Diffs quant::internal::SelectCandidates, the backend's own selection
/// stage, against FullPassSelection for blocks of 1-4 queries at every
/// k x rerank_factor pair: the cutoff's bits and the candidate rows.
void ExpectSelectionMatchesFullPass(const Tensor& items,
                                    const Tensor& queries) {
  ASSERT_GE(queries.rows(), 4);
  auto corpus = quant::QuantizeRows(items);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const int64_t n = corpus->rows;
  const int64_t d = corpus->dim;
  for (int64_t k : {1, 2, 3, 7, 8, 15, 16, 63, 64}) {
    for (int64_t rerank_factor : {1, 3, 4, 64}) {
      // The backend's take and m.
      const int64_t take = std::min(k, n);
      const int64_t m = std::min(n, rerank_factor * take);
      for (int nq = 1; nq <= 4; ++nq) {
        const std::vector<quant::internal::Candidates> got =
            quant::internal::SelectCandidates(*corpus, queries.data(), nq,
                                              take, m);
        ASSERT_EQ(got.size(), static_cast<size_t>(nq));
        for (int q = 0; q < nq; ++q) {
          const quant::internal::Candidates want =
              FullPassSelection(*corpus, queries.data() + q * d, take, m);
          const quant::internal::Candidates& have =
              got[static_cast<size_t>(q)];
          EXPECT_EQ(std::bit_cast<uint64_t>(have.cutoff),
                    std::bit_cast<uint64_t>(want.cutoff))
              << "k=" << k << " rerank=" << rerank_factor << " nq=" << nq
              << " query " << q << ": " << have.cutoff << " vs "
              << want.cutoff;
          EXPECT_EQ(have.rows, want.rows)
              << "k=" << k << " rerank=" << rerank_factor << " nq=" << nq
              << " query " << q;
        }
      }
    }
  }
}

/// The selection pass at every ISA level: four rows per AVX2 vector from
/// Isa::kAvx2 up, two per SSE2 vector below, one at a time past a step's
/// last full group.
class QuantizedSelectionIsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, QuantizedSelectionIsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(QuantizedSelectionIsaTest, CutoffBitsAndCandidatesMatchAFullPass) {
  // Row counts that are multiples of neither 4 nor 256: every tail length
  // of a row group, and a last 256-row step that is short.
  for (int64_t rows : {5, 255, 517}) {
    SCOPED_TRACE(::testing::Message()
                 << "mixed magnitude " << rows << " x 16");
    ExpectSelectionMatchesFullPass(MixedMagnitudeUnitRows(rows, 16, 131),
                                   MixedMagnitudeUnitRows(4, 16, 137));
  }
  {
    SCOPED_TRACE("wide intervals 21 x 16");
    Tensor queries = MixedMagnitudeUnitRows(4, 16, 139);
    for (int64_t j = 0; j < 16; ++j) {
      queries.At(0, j) = j == 0 ? 1.0f : 0.0f;
      queries.At(1, j) = j == 0 ? -1.0f : 0.0f;
    }
    ExpectSelectionMatchesFullPass(WideIntervalRows(16), queries);
  }
  for (int64_t dim : {128, 131}) {
    SCOPED_TRACE(::testing::Message() << "clustered 1029 x " << dim);
    ExpectSelectionMatchesFullPass(ClusteredUnitRows(1029, dim, 149),
                                   ClusteredUnitRows(4, dim, 151));
  }
  {
    SCOPED_TRACE("clustered 206 x 128, five copies of each row");
    ExpectSelectionMatchesFullPass(
        DuplicatedRows(ClusteredUnitRows(206, 128, 157), 5),
        ClusteredUnitRows(4, 128, 151));
  }
}

/// Diffs the quantized backend against the scalar reference, ids and score
/// bits, for every k x rerank_factor {1, 4, 64} x threads {1, 4}.
void ExpectQuantizedMatchesScalar(const Tensor& items, const Tensor& queries,
                                  const std::vector<int64_t>& ks) {
  serve::BackendConfig config;
  config.items = items;
  auto scalar = serve::CreateBackend("scalar", config);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  for (int64_t rerank_factor : {1, 4, 64}) {
    config.rerank_factor = rerank_factor;
    auto quantized = serve::CreateBackend("quantized", config);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    for (int64_t k : ks) {
      auto expect = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, nullptr,
                                         k, serve::QueryOptions());
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      for (int threads : {1, 4}) {
        ThreadGuard guard(threads);
        auto got = (*quantized)->ScoreTopK(serve::QueryBatch{queries},
                                           nullptr, k, serve::QueryOptions());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->hits.size(), expect->hits.size());
        for (size_t i = 0; i < got->hits.size(); ++i) {
          ASSERT_EQ(got->hits[i].size(), expect->hits[i].size())
              << "query " << i << " k=" << k << " rerank=" << rerank_factor
              << " threads=" << threads;
          for (size_t j = 0; j < got->hits[i].size(); ++j) {
            EXPECT_EQ(got->hits[i][j].index, expect->hits[i][j].index)
                << "query " << i << " rank " << j;
            // Bit-identical, not approximately equal.
            EXPECT_EQ(std::memcmp(&got->hits[i][j].score,
                                  &expect->hits[i][j].score, sizeof(float)),
                      0)
                << "query " << i << " rank " << j;
          }
        }
      }
    }
  }
}

/// The backend at every ISA level: its scan tile and its selection pass
/// (SSE2 below Isa::kAvx2, AVX2 from there) both change with the level.
class QuantizedBackendIsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, QuantizedBackendIsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(QuantizedBackendIsaTest, BitIdenticalToScalarOnHostileCorpus) {
  {
    SCOPED_TRACE("mixed magnitude 60 x 16");
    ExpectQuantizedMatchesScalar(MixedMagnitudeUnitRows(60, 16, 131),
                                 MixedMagnitudeUnitRows(6, 16, 137),
                                 {1, 7, 60});
  }
  {
    SCOPED_TRACE("wide intervals 21 x 16");
    Tensor queries({2, 16});
    queries.At(0, 0) = 1.0f;
    queries.At(1, 0) = -1.0f;
    ExpectQuantizedMatchesScalar(WideIntervalRows(16), queries, {1, 2, 22});
  }
  // The serving shape: several 16- and 32-code steps and a tail at dim 131,
  // several row blocks and an odd last row, k past the corpus size, and query
  // blocks of every width: the batch and the pool width set it, so batch 7
  // runs blocks of 4 and 3 on one thread and of 2 and 1 on four.
  const int64_t rows = 1501;
  for (int64_t dim : {128, 131}) {
    const Tensor items = ClusteredUnitRows(rows, dim, 149);
    const Tensor queries = ClusteredUnitRows(33, dim, 151);
    for (int64_t batch : {1, 5, 7, 33}) {
      SCOPED_TRACE(::testing::Message() << "clustered " << rows << " x "
                                        << dim << ", batch " << batch);
      ExpectQuantizedMatchesScalar(items, SliceRows(queries, 0, batch),
                                   {1, 10, rows + 1});
    }
  }
}

TEST(QuantizedBackendTest, RejectsBadRerankFactorAndReportsExact) {
  serve::BackendConfig config;
  config.items = MixedMagnitudeUnitRows(8, 8, 139);
  config.rerank_factor = 0;
  auto bad = serve::CreateBackend("quantized", config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  config.rerank_factor = 4;
  auto backend = serve::CreateBackend("quantized", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->exact());
  EXPECT_FALSE((*backend)->has_probes());
  EXPECT_STREQ((*backend)->name(), "quantized");
}

}  // namespace
}  // namespace adamine
