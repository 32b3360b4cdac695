// Determinism suite for the kernel execution layer: every kernel must
// produce bit-identical results for every thread-pool width, because the
// chunk decomposition depends only on the problem size and partials are
// combined in ascending chunk order (see DESIGN.md, "Kernel execution
// layer"). The tests sweep widths {1, 2, 4, 7} — powers of two plus an odd
// width that leaves ragged chunk-to-thread assignments — over the GEMM
// variants, the reductions, the batch losses on a realistic batch, the
// retrieval ranking, and one full training epoch.

#include "kernel/kernel.h"

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/losses.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "isa_testlib.h"
#include "kernel/gemm.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace adamine {
namespace {

const int kWidths[] = {1, 2, 4, 7};

// Pins the kernel pool width for one scope and restores the
// single-threaded default afterwards, so tests never leak a width into
// each other.
class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

bool SameBits(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

#if defined(__x86_64__)
TEST(CpuIsaTest, AmxExactlyWhenTheCpuHasItAndLinuxGrantsTheTiles) {
  __builtin_cpu_init();
  const bool avx512 = __builtin_cpu_supports("avx2") &&
                      __builtin_cpu_supports("avxvnni") &&
                      __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vl") &&
                      __builtin_cpu_supports("avx512vnni");
  const bool amx = avx512 && __builtin_cpu_supports("amx-tile") &&
                   __builtin_cpu_supports("amx-int8");
  const kernel::Isa isa = kernel::CpuIsa();  // Asks for the tiles once.
  // ARCH_GET_XCOMP_PERM: the xstate features this process may use, where
  // bit 18 is the tile data.
  uint64_t permitted = 0;
  ASSERT_EQ(syscall(SYS_arch_prctl, 0x1022, &permitted), 0);
  const bool granted = (permitted >> 18 & 1) != 0;
  EXPECT_EQ(isa == kernel::Isa::kAmx, amx && granted)
      << "cpu level " << kernel::IsaName(isa) << ", amx " << amx
      << ", tiles granted " << granted;
  EXPECT_EQ(isa >= kernel::Isa::kAvx512, avx512);
}

TEST(CpuIsaTest, Avx2AndEveryLevelAboveImplyPclmulqdq) {
  // Crc32Update folds with PCLMULQDQ from kAvx2 up and checks no feature
  // of its own: CPUID leaf 1, ECX bit 1.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  ASSERT_TRUE(__get_cpuid(1, &eax, &ebx, &ecx, &edx));
  const bool pclmulqdq = (ecx >> 1 & 1) != 0;
  EXPECT_TRUE(kernel::CpuIsa() < kernel::Isa::kAvx2 || pclmulqdq)
      << "cpu level " << kernel::IsaName(kernel::CpuIsa())
      << " without PCLMULQDQ";
}
#endif

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int width : kWidths) {
    ThreadGuard guard(width);
    std::vector<int> hits(1001, 0);
    kernel::ParallelFor(1001, 7, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelForTest, ChunkDecompositionIgnoresThreadCount) {
  // The chunk a given index lands in is a pure function of (n, grain).
  for (int width : kWidths) {
    ThreadGuard guard(width);
    std::vector<int64_t> chunk_of(100, -1);
    kernel::ParallelForChunks(100, 9, [&](int64_t c, int64_t begin,
                                          int64_t end) {
      for (int64_t i = begin; i < end; ++i) chunk_of[static_cast<size_t>(i)] = c;
    });
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_EQ(chunk_of[static_cast<size_t>(i)], i / 9);
    }
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard(4);
  std::vector<int> hits(64 * 64, 0);
  kernel::ParallelFor(64, 8, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      kernel::ParallelFor(64, 8, [&](int64_t b2, int64_t e2) {
        for (int64_t j = b2; j < e2; ++j) ++hits[static_cast<size_t>(i * 64 + j)];
      });
    }
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelForTest, ConcurrentDispatchesFromManyThreadsStayExact) {
  // The pool accepts concurrent jobs (the sharded serving layer dispatches
  // one GEMM per shard from its fan-out threads): every caller must see
  // every one of its own chunks run exactly once, with no cross-job
  // interference. Runs under `ctest -L tsan` with the rest of
  // ParallelForTest.
  ThreadGuard guard(4);
  constexpr int kCallers = 4;
  constexpr int kPasses = 8;
  constexpr int64_t kN = 1001;
  std::vector<std::vector<int>> hits(
      kCallers, std::vector<int>(static_cast<size_t>(kN), 0));
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&hits, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        kernel::ParallelFor(kN, 7, [&hits, t](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            ++hits[static_cast<size_t>(t)][static_cast<size_t>(i)];
          }
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& per_caller : hits) {
    for (int h : per_caller) ASSERT_EQ(h, kPasses);
  }
}

TEST(ParallelForTest, ConfigureZeroKeepsCurrentWidth) {
  ThreadGuard guard(3);
  kernel::Configure(kernel::KernelConfig{0});
  EXPECT_EQ(kernel::NumThreads(), 3);
  kernel::Configure(kernel::KernelConfig{2});
  EXPECT_EQ(kernel::NumThreads(), 2);
}

TEST(ParallelReduceTest, OrderedFoldIsWidthInvariant) {
  Rng rng(17);
  Tensor values = Tensor::Randn({99991}, rng);  // prime => ragged last chunk
  ThreadGuard baseline(1);
  const double expect =
      kernel::ParallelPairwiseSum(values.data(), values.numel());
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const double got =
        kernel::ParallelPairwiseSum(values.data(), values.numel());
    EXPECT_EQ(got, expect) << "width " << width;
  }
}

TEST(ParallelReduceTest, PairwiseSumTracksDoubleReference) {
  // Pairwise summation should land within a few ulps of the sequential
  // double sum even on ill-conditioned input (many small terms after a
  // large one).
  std::vector<float> values(100000, 1e-4f);
  values[0] = 1e6f;
  double reference = 0.0;
  for (float v : values) reference += static_cast<double>(v);
  const double got =
      kernel::PairwiseSum(values.data(), static_cast<int64_t>(values.size()));
  EXPECT_NEAR(got, reference, 1e-4);
}

TEST(ParallelReduceTest, PairwiseDotBaseCaseIsLeftFold) {
  // For n <= the pairwise base case, PairwiseDot must be the exact
  // sequential left fold — word2vec's SGD loop relies on this to reproduce
  // the pre-kernel-layer bits.
  Rng rng(23);
  Tensor a = Tensor::Randn({64}, rng);
  Tensor b = Tensor::Randn({64}, rng);
  double fold = 0.0;
  for (int64_t i = 0; i < 64; ++i) {
    fold += static_cast<double>(a.data()[i]) * static_cast<double>(b.data()[i]);
  }
  EXPECT_EQ(kernel::PairwiseDot(a.data(), b.data(), 64), fold);
}

TEST(DotAscendingRowsTest, EveryOutputHasDotAscendingBits) {
  // Coordinates spread over six orders of magnitude, so a chain summed in
  // any other order (two partial sums per row, say) rounds differently.
  Rng rng(29);
  constexpr int64_t kRows = 13;
  for (int64_t d : {0, 1, 7, 8, 128, 131}) {
    std::vector<float> rows(static_cast<size_t>(kRows * d));
    std::vector<float> query(static_cast<size_t>(d));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<float>(rng.Normal(0.0, 1.0) *
                                   std::pow(10.0, static_cast<int>(i % 6) - 3));
    }
    for (float& v : query) v = static_cast<float>(rng.Normal(0.0, 1.0));
    // Repeated and out-of-order ids, the first count of them per call.
    for (const std::vector<int64_t>& ids :
         {std::vector<int64_t>{5, 0, 12, 5, 3, 3, 11, 1},
          std::vector<int64_t>{12, 11, 10, 9, 8, 7, 6, 6}}) {
      for (int count = 1; count <= kernel::kDotRows; ++count) {
        float got[kernel::kDotRows];
        kernel::DotAscendingRows(rows.data(), ids.data(), count, query.data(),
                                 d, got);
        for (int i = 0; i < count; ++i) {
          const float want = kernel::DotAscending(
              rows.data() + ids[static_cast<size_t>(i)] * d, query.data(), d);
          EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
                    std::bit_cast<uint32_t>(want))
              << "d=" << d << " count=" << count << " lane=" << i;
        }
      }
    }
  }
}

// Naive triple-loop reference with float accumulation in ascending k order —
// the contract the tiled kernel promises to match bit-for-bit.
Tensor NaiveGemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
                 int64_t m, int64_t n, int64_t k) {
  Tensor c = Tensor::Zeros({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.At(p, i) : a.At(i, p);
        const float bv = trans_b ? b.At(j, p) : b.At(p, j);
        acc += av * bv;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

// GEMM, TopK and the int8 scan (tests/quant_test.cc) run once per ISA level
// (tests/isa_testlib.h), each against its reference.
class GemmIsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, GemmIsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(GemmIsaTest, AllTransposeVariantsMatchNaiveBitsAtEveryWidth) {
  // The level's micro-kernel against the reference. The sizes straddle the
  // 4- and 8-row tiles, the 16-column panel, the two-panel tile and the
  // 32-row chunk, so every tile height 1-8, partial tile, zero-padded panel
  // tail and transposed store is hit. In queries x corpus^T, n counts the
  // streamed rows: 7, 8 and 9 give heights 7, 8 and 8 + 1, and n = 101
  // splits the row loop into three full chunks and a ragged one; m = 32 is
  // the serving batch (one full panel pair), 31 a pair with a partial
  // panel and 48 a pair plus a one-panel tile. k = 1 is the shortest chain
  // and 128 the serving width.
  const int64_t ms[] = {1, 3, 4, 5, 16, 17, 31, 32, 33, 48};
  const int64_t ns[] = {1, 7, 8, 9, 15, 16, 17, 29, 101};
  const int64_t ks[] = {1, 47, 128};
  Rng rng(3);
  for (int64_t m : ms) {
    for (int64_t n : ns) {
      for (int64_t k : ks) {
        Tensor a = Tensor::Randn({m, k}, rng);
        Tensor at = Transpose2D(a);
        Tensor b = Tensor::Randn({k, n}, rng);
        Tensor bt = Transpose2D(b);
        struct Variant {
          const Tensor* a;
          bool trans_a;
          const Tensor* b;
          bool trans_b;
        };
        const Variant variants[] = {{&a, false, &b, false},
                                    {&a, false, &bt, true},
                                    {&at, true, &b, false},
                                    {&at, true, &bt, true}};
        for (const Variant& v : variants) {
          const Tensor reference =
              NaiveGemm(*v.a, v.trans_a, *v.b, v.trans_b, m, n, k);
          for (int width : kWidths) {
            ThreadGuard guard(width);
            ASSERT_TRUE(
                SameBits(Gemm(*v.a, v.trans_a, *v.b, v.trans_b), reference))
                << "m=" << m << " n=" << n << " k=" << k
                << " trans_a=" << v.trans_a << " trans_b=" << v.trans_b
                << " width=" << width;
          }
        }
      }
    }
  }
}

TEST(GemmTest, LargeSquareIsWidthInvariant) {
  const int64_t n = 192;
  Rng rng(5);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  ThreadGuard baseline(1);
  const Tensor expect = Gemm(a, false, b, false);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    ASSERT_TRUE(SameBits(Gemm(a, false, b, false), expect))
        << "width " << width;
  }
}

TEST(GemmTest, ZeroInnerDimensionZeroesTheOutput) {
  // Tensor forbids zero dims, so exercise the raw kernel entry point: an
  // empty accumulation chain must still define C.
  float dummy = 0.0f;
  std::vector<float> c(12, 7.0f);
  kernel::Gemm(&dummy, 0, false, &dummy, 4, false, 3, 4, 0, c.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

// --- kernel::TopK -----------------------------------------------------------
//
// The selector is diffed against a full std::sort of every offered
// (score, id) pair under this file's own copy of the ranking order, so a
// broken order inside the selector cannot hide behind the reference. No
// dot product is computed here, so this TU's compile flags do not matter.

bool RefRanksBefore(const kernel::ScoredHit& a, const kernel::ScoredHit& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// The best min(k, offered) of the offered pairs, ids divisible by three
/// dropped when `skip_thirds`, fully sorted.
std::vector<kernel::ScoredHit> SortedTopK(const std::vector<float>& scores,
                                          const std::vector<int64_t>& ids,
                                          int64_t k, bool skip_thirds) {
  std::vector<kernel::ScoredHit> all;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (skip_thirds && ids[i] % 3 == 0) continue;
    all.push_back(kernel::ScoredHit{ids[i], scores[i]});
  }
  std::sort(all.begin(), all.end(), RefRanksBefore);
  if (static_cast<int64_t>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

::testing::AssertionResult SameHits(const std::vector<kernel::ScoredHit>& want,
                                    const std::vector<kernel::ScoredHit>& got) {
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] == got[i]) continue;
    return ::testing::AssertionFailure()
           << "first divergence at rank " << i << ": want (id "
           << want[i].index << ", score " << std::hexfloat << want[i].score
           << "), got (id " << got[i].index << ", score " << got[i].score
           << ")" << std::defaultfloat;
  }
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure() << "want " << want.size()
                                         << " hits, got " << got.size();
  }
  return ::testing::AssertionSuccess();
}

/// n scores: at most four distinct values (ties everywhere), or floats
/// clustered tightly around three centres.
std::vector<float> TopKScores(int64_t n, bool ties, Rng& rng) {
  const double centres[] = {-0.3, 0.2, 0.7};
  std::vector<float> scores(static_cast<size_t>(n));
  for (float& score : scores) {
    score = ties ? 0.25f * static_cast<float>(rng.UniformInt(4)) - 0.5f
                 : static_cast<float>(
                       rng.Normal(centres[rng.UniformInt(3)], 1e-3));
  }
  return scores;
}

enum class IdOrder { kAscending, kDescending, kShuffled };

/// Ids base..base+n-1 in the given push order. Descending and shuffled
/// orders make a row tying the cutoff arrive with a smaller id than the
/// kept row it must displace.
std::vector<int64_t> TopKIds(int64_t n, int64_t base, IdOrder order,
                             Rng& rng) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = base + i;
  if (order == IdOrder::kDescending) std::reverse(ids.begin(), ids.end());
  if (order == IdOrder::kShuffled) rng.Shuffle(ids);
  return ids;
}

const int64_t kTopKSizes[] = {0, 1, 15, 16, 17, 31, 33, 257, 3000};

std::vector<int64_t> TopKKs(int64_t n) {
  std::vector<int64_t> ks;
  for (const int64_t k :
       {int64_t{1}, int64_t{10}, n, n + 5, int64_t{1} << 20}) {
    if (k >= 1) ks.push_back(k);
  }
  return ks;
}

/// The selector's cutoff test is the portable loop at Isa::kPortable and
/// four SSE2 compares above it.
class TopKTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, TopKTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(TopKTest, IdArrayPushesMatchAFullSort) {
  // Every input is offered as two blocks split at each offset 0..17, so
  // the 16-score groups meet every alignment, and one selector per k is
  // reused across the splits, as a backend reuses it across queries.
  Rng rng(41);
  for (const int64_t n : kTopKSizes) {
    for (const bool ties : {true, false}) {
      const std::vector<float> scores = TopKScores(n, ties, rng);
      for (const IdOrder order : {IdOrder::kAscending, IdOrder::kDescending,
                                  IdOrder::kShuffled}) {
        const std::vector<int64_t> ids = TopKIds(n, 0, order, rng);
        for (const bool skip_thirds : {false, true}) {
          const auto skip = [](int64_t id) { return id % 3 == 0; };
          for (const int64_t k : TopKKs(n)) {
            const auto want = SortedTopK(scores, ids, k, skip_thirds);
            kernel::TopK top(k);
            for (int64_t split = 0; split <= 17; ++split) {
              const int64_t s = std::min(split, n);
              if (skip_thirds) {
                top.Push(scores.data(), ids.data(), s, skip);
                top.Push(scores.data() + s, ids.data() + s, n - s, skip);
              } else {
                top.Push(scores.data(), ids.data(), s);
                top.Push(scores.data() + s, ids.data() + s, n - s);
              }
              ASSERT_TRUE(SameHits(want, top.Take()))
                  << "n " << n << " ties " << ties << " order "
                  << static_cast<int>(order) << " skip " << skip_thirds
                  << " k " << k << " split " << split;
            }
          }
        }
      }
    }
  }
}

TEST_P(TopKTest, BaseIdAndSingleRowPushesMatchAFullSort) {
  constexpr int64_t kBase = 1000;
  Rng rng(43);
  for (const int64_t n : kTopKSizes) {
    for (const bool ties : {true, false}) {
      const std::vector<float> scores = TopKScores(n, ties, rng);
      const std::vector<int64_t> ascending =
          TopKIds(n, kBase, IdOrder::kAscending, rng);
      for (const int64_t k : TopKKs(n)) {
        const std::string where = "n " + std::to_string(n) + " ties " +
                                  std::to_string(ties) + " k " +
                                  std::to_string(k);
        kernel::TopK top(k);
        const auto want = SortedTopK(scores, ascending, k, false);
        for (int64_t split = 0; split <= 17; ++split) {
          const int64_t s = std::min(split, n);
          top.Push(scores.data(), s, kBase);
          top.Push(scores.data() + s, n - s, kBase + s);
          ASSERT_TRUE(SameHits(want, top.Take()))
              << where << " split " << split;
        }
        for (const IdOrder order : {IdOrder::kAscending,
                                    IdOrder::kDescending,
                                    IdOrder::kShuffled}) {
          // Each id keeps its score whatever position it is pushed at.
          for (const int64_t id : TopKIds(n, kBase, order, rng)) {
            top.Push(scores[static_cast<size_t>(id - kBase)], id);
          }
          ASSERT_TRUE(SameHits(want, top.Take()))
              << where << " single-row order " << static_cast<int>(order);
        }
      }
    }
  }
}

TEST_P(TopKTest, NanScoresNeverEnter) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> scores(40, nan);
  scores[3] = 0.5f;
  scores[21] = -0.5f;
  kernel::TopK top(5);
  top.Push(scores.data(), static_cast<int64_t>(scores.size()), 0);
  top.Push(nan, 99);
  EXPECT_TRUE(SameHits({{3, 0.5f}, {21, -0.5f}}, top.Take()));
}

TEST(TopKDeathTest, NonPositiveKIsRejected) {
  EXPECT_DEATH(kernel::TopK(0), "0 >= 1");
}

TEST(ElementwiseGuardDeathTest, UndefinedOperandsAreRejected) {
  Tensor ok = Tensor::Zeros({2, 2});
  Tensor undefined;
  EXPECT_DEATH(Add(undefined, ok), "defined");
  EXPECT_DEATH(Mul(ok, undefined), "defined");
  EXPECT_DEATH(Relu(undefined), "defined");
  EXPECT_DEATH(Scale(undefined, 2.0f), "defined");
}

TEST(LossDeterminismTest, InstanceTripletLossIsWidthInvariant) {
  // A realistic batch: 100 unit rows per modality, as the trainer mines.
  Rng rng(31);
  Tensor img = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  ThreadGuard baseline(1);
  const auto expect = core::InstanceTripletLoss(
      img, rec, 0.3f, core::MiningStrategy::kAdaptive);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const auto got = core::InstanceTripletLoss(
        img, rec, 0.3f, core::MiningStrategy::kAdaptive);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    EXPECT_EQ(got.active_triplets, expect.active_triplets);
    EXPECT_EQ(got.total_triplets, expect.total_triplets);
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(LossDeterminismTest, SemanticTripletLossIsWidthInvariant) {
  // The semantic loss draws random positives; the kernel layer hoists those
  // draws into a sequential pre-pass, so reseeding the Rng identically must
  // reproduce identical bits at every width.
  Rng rng(37);
  Tensor img = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < 100; ++i) {
    labels.push_back(i % 3 == 0 ? -1 : i % 7);
  }
  ThreadGuard baseline(1);
  Rng loss_rng(41);
  const auto expect = core::SemanticTripletLoss(
      img, rec, labels, 0.3f, core::MiningStrategy::kAdaptive, loss_rng);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    Rng widths_rng(41);
    const auto got = core::SemanticTripletLoss(
        img, rec, labels, 0.3f, core::MiningStrategy::kAdaptive, widths_rng);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    EXPECT_EQ(got.active_triplets, expect.active_triplets);
    EXPECT_EQ(got.total_triplets, expect.total_triplets);
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(LossDeterminismTest, PairwiseLossIsWidthInvariant) {
  Rng rng(43);
  Tensor img = L2NormalizeRows(Tensor::Randn({80, 24}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({80, 24}, rng));
  ThreadGuard baseline(1);
  const auto expect = core::PairwiseLoss(img, rec, 0.3f, 0.9f);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const auto got = core::PairwiseLoss(img, rec, 0.3f, 0.9f);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(MatchRanksDeterminismTest, RanksAreWidthInvariant) {
  Rng rng(47);
  Tensor queries = Tensor::Randn({200, 16}, rng);
  Tensor candidates = Tensor::Randn({200, 16}, rng);
  ThreadGuard baseline(1);
  const auto expect = eval::MatchRanks(queries, candidates);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    EXPECT_EQ(eval::MatchRanks(queries, candidates), expect)
        << "width " << width;
  }
}

TEST(PipelineDeterminismTest, FullTrainingRunIsWidthInvariant) {
  // End-to-end: data generation, word2vec pretraining, two epochs of
  // AdaMine training and the test-set embedding must come out bit-identical
  // whether the kernel layer runs on one thread or four.
  auto run_with = [](int num_threads) {
    core::PipelineConfig config;
    config.generator.num_recipes = 150;
    config.generator.num_classes = 8;
    config.generator.seed = 5;
    config.word2vec.epochs = 1;
    config.model.word_dim = 8;
    config.model.ingredient_hidden = 6;
    config.model.word_hidden = 6;
    config.model.sentence_hidden = 8;
    config.model.latent_dim = 12;
    config.model.seed = 2;
    config.kernel.num_threads = num_threads;
    auto pipeline = core::Pipeline::Create(config);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    core::TrainConfig train;
    train.scenario = core::Scenario::kAdaMine;
    train.epochs = 2;
    train.batch_size = 50;
    train.learning_rate = 2e-3;
    train.val_bag_size = 20;
    train.val_num_bags = 2;
    train.seed = 4;
    auto result = (*pipeline)->Run(train);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result.value());
  };
  const auto baseline = run_with(1);
  const auto threaded = run_with(4);
  kernel::SetNumThreads(1);
  const auto params_a = baseline.model->SnapshotParams();
  const auto params_b = threaded.model->SnapshotParams();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_TRUE(SameBits(params_a[i], params_b[i])) << "param " << i;
  }
  ASSERT_TRUE(SameBits(baseline.test_embeddings.image_emb,
                       threaded.test_embeddings.image_emb));
  ASSERT_TRUE(SameBits(baseline.test_embeddings.recipe_emb,
                       threaded.test_embeddings.recipe_emb));
}

}  // namespace
}  // namespace adamine
