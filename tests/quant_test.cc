// The quantized-scoring suite (ctest label `quant`): ref-vs-fast diffing of
// the int8 scan at every ISA level (AMX-INT8, AVX-VNNI and AVX2 tiles,
// portable loop) in the ggml test-backend-ops style — every length around
// the vector and tile widths, misaligned starts, adversarial code patterns,
// every query count, codes that end at an unmapped page — and the AMX
// tile state's release, plus the row-quantizer's
// error-bound contract on hostile rows (denormal, max-magnitude, all-equal,
// wildly mixed), the row and query quantizers' bits at every ISA level
// against the portable loop, the selection's k-th-largest selector and its
// candidate sets against std::nth_element and a full pass, and end-to-end
// bit-identity of the quantized backend against the scalar
// reference across k x threads x rerank_factor on a quantization-hostile
// corpus and at the serving shape. The backend also auto-inherits the full
// golden matrix by registration (tests/backend_golden_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
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
#include "util/rng.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

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
  // The same 16 pairs from one 16-row x 4-query scan, each pattern four
  // times: the full-width tile of every level, AMX's 16 rows included, at
  // the maximum length.
  std::vector<int8_t> stacked;
  for (int copy = 0; copy < 4; ++copy) {
    for (const auto* p : patterns) {
      stacked.insert(stacked.end(), p->begin(), p->end());
    }
  }
  std::vector<int32_t> dots(64, -1);
  kernel::Int8ScanRows(stacked.data(), 16, n, stacked.data(), 4, dots.data());
  for (int q = 0; q < 4; ++q) {
    for (int r = 0; r < 16; ++r) {
      EXPECT_EQ(dots[static_cast<size_t>(q * 16 + r)],
                kernel::Int8DotRef(patterns[r % 4]->data(),
                                   patterns[q]->data(), n))
          << "row " << r << " query " << q;
    }
  }
  // The quantizer never emits -128, but the scan takes any int8. A query
  // of -128s makes 128 * sum(q) exactly -2^31, so each AVX-VNNI lane 0
  // starts at INT32_MIN and must wrap, not saturate, as the products
  // (c + 128) * -128 <= 0 arrive. Every dot still fits in int32:
  // |127 * 128 * n| < 2^31.
  const std::vector<int8_t> all_neg128(static_cast<size_t>(n), int8_t{-128});
  std::vector<int32_t> neg_dots(16, -1);
  kernel::Int8ScanRows(stacked.data(), 16, n, all_neg128.data(), 1,
                       neg_dots.data());
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(neg_dots[static_cast<size_t>(r)],
              kernel::Int8DotRef(patterns[r % 4]->data(), all_neg128.data(),
                                 n))
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
  // Row counts around the tile heights (8 / queries, AMX's 16 and 32) and
  // around one parallel chunk; dims around the 16- and 32-code steps, the
  // 64-code AMX chunk and its four-code tail tile; every query count.
  Rng rng(107);
  for (int64_t rows : {1, 2, 3, 5, 16, 17, 97, 255, 256, 257, 600}) {
    for (int64_t dim : {1, 4, 15, 16, 17, 31, 32, 33, 60, 63, 64, 65, 68, 96,
                        128, 131, 192, 260}) {
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

class Int8ScanGuardTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, Int8ScanGuardTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(Int8ScanGuardTest, ReadsNoBytePastTheCodesOrQueries) {
  // Codes and queries each end at an unmapped page: a tile, vector or
  // packing load past the last row, the last code of a row or the last
  // query faults instead of passing. Row counts below, at and past the AMX
  // tile's 16 rows; dims with every kind of tail: none, a four-code tail
  // tile, codes past it, and no full chunk at all.
  Rng rng(163);
  for (int64_t rows : {1, 15, 16, 17, 33}) {
    for (int64_t dim : {1, 4, 31, 60, 64, 68, 100, 128, 131}) {
      GuardedBytes codes(rows * dim);
      const std::vector<int8_t> random = RandomCodes(rows * dim, &rng);
      std::copy(random.begin(), random.end(), codes.data());
      for (int nq = 1; nq <= kernel::kInt8ScanMaxQueries; ++nq) {
        GuardedBytes queries(nq * dim);
        const std::vector<int8_t> q = RandomCodes(nq * dim, &rng);
        std::copy(q.begin(), q.end(), queries.data());
        std::vector<int32_t> got(static_cast<size_t>(nq * rows), -1);
        kernel::Int8ScanRows(codes.data(), rows, dim, queries.data(), nq,
                             got.data());
        for (int qi = 0; qi < nq; ++qi) {
          for (int64_t r = 0; r < rows; ++r) {
            ASSERT_EQ(got[static_cast<size_t>(qi * rows + r)],
                      kernel::Int8DotRef(codes.data() + r * dim,
                                         queries.data() + qi * dim, dim))
                << "rows=" << rows << " dim=" << dim << " queries=" << nq
                << " row " << r << " query " << qi;
          }
        }
      }
    }
  }
}

#if defined(__x86_64__)
/// XINUSE (xgetbv with ecx = 1), whose bit 18 is set while the AMX tile
/// data is live on this thread and clear once released.
__attribute__((target("xsave"))) uint64_t XinUse() { return _xgetbv(1); }

constexpr uint64_t kXtileData = uint64_t{1} << 18;

TEST(Int8ScanAmxTest, ReleasesTheTilesBeforeReturning) {
  if (kernel::CpuIsa() < kernel::Isa::kAmx) {
    GTEST_SKIP() << "this CPU lacks amx";
  }
  // The probe sees live tile data: one tile load sets the bit, and a
  // release clears it.
  struct alignas(64) {
    uint8_t palette = 1;
    uint8_t start_row = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {64};
    uint8_t rows[16] = {16};
  } config;
  alignas(64) int8_t block[16 * 64] = {1};
  asm volatile("ldtilecfg %0" : : "m"(config));
  asm volatile("tileloadd (%0,%1,1), %%tmm0"
               :
               : "r"(block), "r"(int64_t{64})
               : "memory");
  EXPECT_NE(XinUse() & kXtileData, 0u) << "a loaded tile reads as unused";
  asm volatile("tilerelease" ::: "memory");
  ASSERT_EQ(XinUse() & kXtileData, 0u);

  // A scan on this thread leaves no live tile data: a call that ends in
  // whole tiles and one whose last rows run on the AVX-VNNI tile, at a few
  // query counts (one query runs no tile at all).
  ThreadGuard guard(1);
  kernel::internal::ScopedIsa isa(kernel::Isa::kAmx);
  Rng rng(167);
  const int64_t dim = 128;
  const std::vector<int8_t> codes = RandomCodes(70 * dim, &rng);
  const std::vector<int8_t> queries =
      RandomCodes(kernel::kInt8ScanMaxQueries * dim, &rng);
  std::vector<int32_t> dots(
      static_cast<size_t>(kernel::kInt8ScanMaxQueries * 70));
  for (int64_t rows : {64, 70}) {
    for (int nq : {1, 2, kernel::kInt8ScanMaxQueries}) {
      kernel::Int8ScanRows(codes.data(), rows, dim, queries.data(), nq,
                           dots.data());
      EXPECT_EQ(XinUse() & kXtileData, 0u)
          << "tile data live after a " << rows << "-row, " << nq
          << "-query scan";
    }
  }
}
#endif

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

// --- The quantizer at every ISA level: bits of the portable loop ---------

/// Rows that stress each step the vector quantizer must match bit for bit:
/// constant rows, mixed-sign zeros (std::min and std::max keep the first
/// of two equal values, so a row of zeros takes the sign of its first zero
/// into its bias), denormal ranges, +-FLT_MAX, quotients landing exactly
/// on k + 0.5 (scale 1 and 2, bias 0), mixed magnitudes and plain random
/// rows.
Tensor QuantizerHostileRows(int64_t dim, Rng* rng) {
  constexpr float kMax = std::numeric_limits<float>::max();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const auto zero = [&] { return rng->UniformInt(2) == 0 ? 0.0f : -0.0f; };
  const auto uniform = [&] {
    return static_cast<float>(rng->UniformInt(1 << 20)) / (1 << 20);
  };
  std::vector<std::function<float(int64_t)>> patterns = {
      [](int64_t) { return 3.25f; },
      [&](int64_t) { return zero(); },
      [](int64_t j) { return j == 0 ? -0.0f : 0.0f; },
      [](int64_t j) { return j == 0 ? 0.0f : -0.0f; },
      // Non-negative with zeros: the minimum is a zero.
      [&](int64_t) { return rng->UniformInt(3) == 0 ? zero() : uniform(); },
      // Non-positive with zeros: the maximum is a zero.
      [&](int64_t) { return rng->UniformInt(3) == 0 ? zero() : -uniform(); },
      // Both signs with zeros, and a zero-only head before positives.
      [&](int64_t) {
        return rng->UniformInt(4) == 0 ? zero() : uniform() - 0.5f;
      },
      [&](int64_t j) { return j < 9 ? zero() : uniform(); },
      [&](int64_t j) { return j < 9 ? zero() : -uniform(); },
      [&](int64_t) {
        return denorm * static_cast<float>(rng->UniformInt(9) - 4);
      },
      [&](int64_t j) { return j % 2 == 0 ? kMax : -kMax; },
      [&](int64_t) {
        const int64_t pick = rng->UniformInt(3);
        return pick == 0 ? kMax : pick == 1 ? -kMax : zero();
      },
      // Range [-127, 127]: scale 1, bias 0, so k + 0.5 is the quotient.
      [&](int64_t j) {
        if (j == 0) return -127.0f;
        if (j == 1) return 127.0f;
        return static_cast<float>(rng->UniformInt(254) - 127) + 0.5f;
      },
      // Range [-254, 254]: scale 2, so every odd integer is a tie.
      [&](int64_t j) {
        if (j == 0) return -254.0f;
        if (j == 1) return 254.0f;
        return static_cast<float>(2 * (rng->UniformInt(254) - 127) + 1);
      },
      [&](int64_t j) { return j % 2 == 0 ? 1.0e6f : 1.0e-6f; },
      [&](int64_t) { return static_cast<float>(rng->Normal(0.0, 1.0)); },
  };
  Tensor rows({static_cast<int64_t>(patterns.size()), dim});
  for (size_t r = 0; r < patterns.size(); ++r) {
    for (int64_t j = 0; j < dim; ++j) {
      rows.At(static_cast<int64_t>(r), j) = patterns[r](j);
    }
  }
  return rows;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

/// QuantizeRows and QuantizeQuery at the fixture's level against the
/// portable loops.
class QuantizeIsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, QuantizeIsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(QuantizeIsaTest, EveryFieldMatchesThePortableLoop) {
  Rng rng(173);
  for (int64_t dim : {1, 3, 4, 5, 127, 128, 131}) {
    SCOPED_TRACE(::testing::Message() << "dim " << dim);
    const Tensor rows = QuantizerHostileRows(dim, &rng);
    std::optional<quant::QuantizedCorpus> expect;
    {
      kernel::internal::ScopedIsa portable(kernel::Isa::kPortable);
      auto q = quant::QuantizeRows(rows);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      expect = std::move(q).value();
    }
    auto got = quant::QuantizeRows(rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rows, expect->rows);
    EXPECT_EQ(got->dim, expect->dim);
    EXPECT_EQ(got->codes, expect->codes);
    EXPECT_TRUE(SameBits(got->scales, expect->scales));
    EXPECT_TRUE(SameBits(got->biases, expect->biases));
    EXPECT_EQ(got->sum_abs_codes, expect->sum_abs_codes);
    EXPECT_TRUE(SameBits(got->recon_errors, expect->recon_errors));
    EXPECT_TRUE(SameBits(got->max_abs, expect->max_abs));
    CheckBoundsHold(rows, *got);

    // Each row as a query: the same loop with bias 0 behind scalar sums.
    for (int64_t r = 0; r < rows.rows(); ++r) {
      const float* q = rows.data() + r * dim;
      std::vector<int8_t> want_codes(static_cast<size_t>(dim));
      std::vector<int8_t> got_codes(static_cast<size_t>(dim));
      quant::internal::QueryStats want;
      {
        kernel::internal::ScopedIsa portable(kernel::Isa::kPortable);
        want = quant::internal::QuantizeQuery(q, dim, want_codes.data());
      }
      const quant::internal::QueryStats stats =
          quant::internal::QuantizeQuery(q, dim, got_codes.data());
      EXPECT_EQ(got_codes, want_codes) << "query row " << r;
      EXPECT_TRUE(SameBits(stats.sum_q, want.sum_q)) << "query row " << r;
      EXPECT_TRUE(SameBits(stats.sum_abs_q, want.sum_abs_q));
      EXPECT_TRUE(SameBits(stats.scale, want.scale)) << "query row " << r;
      EXPECT_TRUE(SameBits(stats.max_err, want.max_err)) << "query row " << r;
    }
  }
}

TEST_P(QuantizeIsaTest, NonFiniteValueNamesTheSameRowAndColumn) {
  // A NaN or an infinity in the first vector, in a later one or in the
  // overlapping tail; a second one later in the row, which must not be
  // the one reported.
  Rng rng(179);
  for (int64_t dim : {1, 5, 128, 131}) {
    for (int64_t col : {int64_t{0}, dim / 2, dim - 1}) {
      for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
        Tensor rows = Tensor::Randn({4, dim}, rng);
        rows.At(2, col) = bad;
        rows.At(2, dim - 1) = std::numeric_limits<float>::infinity();
        rows.At(3, 0) = bad;
        const std::string want =
            "row 2 col " + std::to_string(col) + " is not";
        auto got = quant::QuantizeRows(rows);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(got.status().message().find(want), std::string::npos)
            << got.status().message() << " (want " << want << ")";
      }
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

/// The selector behind both running bounds, at every ISA level: the lanes
/// (eight doubles from Isa::kAvx512 up, four from kAvx2, two below) for k
/// up to 32 lane vectors (64, 128 or 256 slots) and the tree above, with k
/// on each side of every level's switch.
class KthLargestIsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, KthLargestIsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(KthLargestIsaTest, ValueAfterEveryPushIsTheKthLargest) {
  // Runs of equal, rising and falling values over a few dozen levels, so
  // ties straddle the k-th slot, a run can fill every slot, and some pushes
  // land on top of the array or below its last slot. No value is -0, as no
  // score bound is.
  Rng rng(167);
  std::vector<int64_t> ks(80);
  std::iota(ks.begin(), ks.end(), 1);
  ks.insert(ks.end(), {127, 128, 129, 255, 256, 257});
  for (int64_t k : ks) {
    quant::internal::KthLargest selector(k);
    std::vector<double> pushed;
    double v = 0.0;
    double step = 0.0;
    int64_t run = 0;
    for (int64_t p = 0; p < 3 * k + 60; ++p) {
      if (run == 0) {
        v = static_cast<double>(rng.UniformInt(41) - 20) * 0.25;
        step = static_cast<double>(rng.UniformInt(3) - 1) * 0.25;
        run = 1 + rng.UniformInt(24);
      }
      --run;
      v += step;
      selector.Push(v);
      pushed.push_back(v);
      double want = -std::numeric_limits<double>::infinity();
      if (static_cast<int64_t>(pushed.size()) >= k) {
        std::vector<double> sorted = pushed;
        std::nth_element(sorted.begin(), sorted.begin() + (k - 1),
                         sorted.end(), std::greater<double>());
        want = sorted[static_cast<size_t>(k - 1)];
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(selector.Value()),
                std::bit_cast<uint64_t>(want))
          << "k=" << k << " after push " << p << ": " << selector.Value()
          << " vs " << want;
    }
  }
}

/// Diffs quant::internal::SelectCandidates, the backend's own selection
/// stage, against FullPassSelection for blocks of 1-16 queries at every
/// k x rerank_factor pair: the cutoff's bits and the candidate rows.
void ExpectSelectionMatchesFullPass(const Tensor& items,
                                    const Tensor& queries) {
  ASSERT_GE(queries.rows(), kernel::kInt8ScanMaxQueries);
  auto corpus = quant::QuantizeRows(items);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const int64_t n = corpus->rows;
  const int64_t d = corpus->dim;
  // take and m each land on 63, 64 and 65, around the selector's switch
  // from lanes to a tree at two doubles per lane (m = 65 from k 65 or from
  // k 13 x 5); m = 192 and 195 lie past it at four, m = 260 at eight.
  for (int64_t k : {1, 2, 3, 7, 8, 13, 15, 16, 63, 64, 65}) {
    for (int64_t rerank_factor : {1, 3, 4, 5, 64}) {
      // The backend's take and m.
      const int64_t take = std::min(k, n);
      const int64_t m = std::min(n, rerank_factor * take);
      for (int nq = 1; nq <= kernel::kInt8ScanMaxQueries; ++nq) {
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

/// The selection pass at every ISA level: eight rows per AVX-512 vector
/// from Isa::kAvx512 up, four per AVX2 vector from kAvx2, two per SSE2
/// vector below, one at a time past a step's last full group.
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
                                   MixedMagnitudeUnitRows(16, 16, 137));
  }
  {
    SCOPED_TRACE("wide intervals 21 x 16");
    Tensor queries = MixedMagnitudeUnitRows(16, 16, 139);
    for (int64_t j = 0; j < 16; ++j) {
      queries.At(0, j) = j == 0 ? 1.0f : 0.0f;
      queries.At(1, j) = j == 0 ? -1.0f : 0.0f;
    }
    ExpectSelectionMatchesFullPass(WideIntervalRows(16), queries);
  }
  for (int64_t dim : {128, 131}) {
    SCOPED_TRACE(::testing::Message() << "clustered 1029 x " << dim);
    ExpectSelectionMatchesFullPass(ClusteredUnitRows(1029, dim, 149),
                                   ClusteredUnitRows(16, dim, 151));
  }
  {
    SCOPED_TRACE("clustered 206 x 128, five copies of each row");
    ExpectSelectionMatchesFullPass(
        DuplicatedRows(ClusteredUnitRows(206, 128, 157), 5),
        ClusteredUnitRows(16, 128, 151));
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
      auto expect = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, k,
                                         serve::QueryOptions());
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      for (int threads : {1, 4}) {
        ThreadGuard guard(threads);
        auto got = (*quantized)->ScoreTopK(serve::QueryBatch{queries}, k,
                                           serve::QueryOptions());
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
/// (SSE2 below Isa::kAvx2, AVX2 from there, AVX-512 from Isa::kAvx512)
/// both change with the level.
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
  // blocks of many widths: the batch and the pool width set it, so batch 33
  // runs blocks of 16, 16 and 1 on one thread and of 9, 9, 9 and 6 on four,
  // and batch 7 one block of 7 on one thread and of 2, 2, 2 and 1 on four.
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
