// Microbenchmarks of the substrate kernels (google-benchmark): GEMM, the
// int8 scan, a quantized backend call and its selection stage, the CRC-32
// and the row quantizer of every set-up, top-k selection, LSTM encoding, the
// batch triplet losses, retrieval ranking, and word2vec.
// These are the building blocks whose cost dominates training and
// evaluation; sizes mirror the defaults used by the table benches.
//
// GEMM, the int8 scan, cosine-similarity and ranking carry a second
// argument — the kernel thread-pool width — so `BM_Gemm/256/4` reads
// "n=256, 4 threads". Thread count never changes the bits of the result
// (see DESIGN.md, "Kernel execution layer"), only the wall clock, so the
// sweep is a pure scaling measurement. GEMM and the int8 scan carry a third,
// the kernel::Isa level they are capped at (0 portable, 1 avx2, 2
// avx2_vnni, 3 avx512, 4 amx; GEMM stops at 3, whose tile it runs at amx),
// so `BM_Int8Scan/4/1/2` reads "4 queries, 1 thread, AVX-VNNI"; a level
// the CPU lacks is skipped, its row naming the missing level.
// BM_QuantizedScore and BM_QuantizeRows take the level as their only
// argument, BM_SelectCandidates and BM_Crc32 as their second. The level
// changes no bits either, so
//
//   build/bench/bench_kernels --benchmark_filter='BM_Int8Scan/.*/1/'
//   build/bench/bench_kernels --benchmark_filter='BM_GemmTransB/'
//   build/bench/bench_kernels --benchmark_filter='BM_QuantizedScore/'
//   build/bench/bench_kernels --benchmark_filter='BM_SelectCandidates/'
//   build/bench/bench_kernels --benchmark_filter='BM_Crc32|BM_QuantizeRows'
//
// print DESIGN.md's per-level scan, serving-GEMM, quantized-call, selection
// and set-up tables in one run each.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/losses.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "kernel/crc32.h"
#include "kernel/gemm.h"
#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "kernel/topk.h"
#include "nn/embedding.h"
#include "nn/lstm.h"
#include "quant/int8_corpus.h"
#include "quant/quantized_backend.h"
#include "serve/backend.h"
#include "tensor/ops.h"
#include "text/word2vec.h"
#include "util/rng.h"

namespace adamine {
namespace {

// Pins the kernel pool width for one benchmark run and restores the
// single-threaded default afterwards so the non-swept benchmarks below stay
// comparable across runs of the binary.
class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Caps the kernels at ISA level `level` (an index into kernel::kAllIsas)
/// for one benchmark run. A level the CPU lacks marks the run skipped, and
/// the benchmark must then return before its loop.
class IsaGuard {
 public:
  IsaGuard(benchmark::State& state, int64_t level) {
    const kernel::Isa isa = kernel::kAllIsas[level];
    if (isa > kernel::CpuIsa()) {
      state.SkipWithError(
          (std::string("this CPU lacks ") + kernel::IsaName(isa)).c_str());
      return;
    }
    cap_.emplace(isa);
  }

  bool skipped() const { return !cap_; }

 private:
  std::optional<kernel::internal::ScopedIsa> cap_;
};

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  ThreadGuard guard(static_cast<int>(state.range(1)));
  IsaGuard isa(state, state.range(2));
  if (isa.skipped()) return;
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = Gemm(a, false, b, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->ArgsProduct({{32, 64, 128, 256}, {1, 4}, {0, 1, 2, 3}});

/// Queries x corpus^T at the serving shapes, k = 128: an rpc-fanout shard
/// dispatch (32 x 3,000) and an ingest-live batch (16 x 2,000), on one pool
/// thread into a reused output. The arguments are m, n and the kernel::Isa
/// level, so `BM_GemmTransB/32/3000/3` reads "32 x 3,000 at avx512".
/// Items/s counts flops (2mnk).
void BM_GemmTransB(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  constexpr int64_t kDim = 128;
  ThreadGuard guard(1);
  IsaGuard isa(state, state.range(2));
  if (isa.skipped()) return;
  Rng rng(1);
  const Tensor queries = Tensor::Randn({m, kDim}, rng);
  const Tensor corpus = Tensor::Randn({n, kDim}, rng);
  std::vector<float> sims(static_cast<size_t>(m * n));
  for (auto _ : state) {
    kernel::Gemm(queries.data(), kDim, false, corpus.data(), kDim, true, m,
                 n, kDim, sims.data());
    benchmark::DoNotOptimize(sims.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * kDim);
}
BENCHMARK(BM_GemmTransB)
    ->ArgsProduct({{32}, {3000}, {0, 1, 2, 3}})
    ->ArgsProduct({{16}, {2000}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMicrosecond);

/// The quantized backend's scan at the bulk-quantized shape: 10,000 rows of
/// 128 int8 codes (1.25 MiB) against 1, 4 or 16 queries in one call.
/// Bytes/s counts code bytes scored, each byte once per query, so the query
/// counts read on one scale.
void BM_Int8Scan(benchmark::State& state) {
  const int64_t rows = 10000;
  const int64_t dim = 128;
  const int queries = static_cast<int>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  IsaGuard isa(state, state.range(2));
  if (isa.skipped()) return;
  Rng rng(10);
  std::vector<int8_t> codes(static_cast<size_t>(rows * dim));
  std::vector<int8_t> query(static_cast<size_t>(queries * dim));
  for (auto& c : codes) c = static_cast<int8_t>(rng.UniformInt(255) - 127);
  for (auto& c : query) c = static_cast<int8_t>(rng.UniformInt(255) - 127);
  std::vector<int32_t> dots(static_cast<size_t>(queries * rows));
  for (auto _ : state) {
    kernel::Int8ScanRows(codes.data(), rows, dim, query.data(), queries,
                         dots.data());
    benchmark::DoNotOptimize(dots.data());
  }
  state.SetBytesProcessed(state.iterations() * queries * rows * dim);
}
BENCHMARK(BM_Int8Scan)->ArgsProduct({{1, 4, 16}, {1, 4}, {0, 1, 2, 3, 4}});

/// `rows` L2-normalised image features of the recipe generator (192 Zipf
/// classes, d = 128), so the rows cluster as in the serving benchmark.
Tensor ImageFeatureRows(int64_t rows, uint64_t seed) {
  constexpr int64_t kDim = 128;
  data::GeneratorConfig config;
  config.num_recipes = rows;
  config.num_classes = 192;
  config.image_dim = kDim;
  config.seed = seed;
  const data::Dataset dataset =
      data::RecipeGenerator::Create(config).value().Generate();
  Tensor out({rows, kDim});
  for (int64_t i = 0; i < rows; ++i) {
    const Tensor& image = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(image.data(), image.data() + kDim, out.data() + i * kDim);
  }
  return L2NormalizeRows(out);
}

/// One quantized backend call of 32 query rows at the bulk-quantized shape:
/// 10,000 x 128 image-feature rows, k = 10, rerank_factor 4, one pool
/// thread. The argument is the kernel::Isa level the call is capped at
/// (0 portable, 1 avx2, 2 avx2_vnni, 3 avx512, 4 amx), which changes no
/// bits, so
///
///   build/bench/bench_kernels --benchmark_filter='BM_QuantizedScore/'
///
/// prints DESIGN.md's per-level call times. Items/s counts queries.
void BM_QuantizedScore(benchmark::State& state) {
  constexpr int64_t kRows = 10000;
  constexpr int64_t kQueries = 32;
  ThreadGuard guard(1);
  IsaGuard isa(state, state.range(0));
  if (isa.skipped()) return;
  const Tensor rows = ImageFeatureRows(kRows + kQueries, 12);
  serve::BackendConfig config;
  config.items = SliceRows(rows, 0, kRows);
  config.rerank_factor = 4;
  const auto backend = quant::CreateQuantizedBackend(config).value();
  const serve::QueryBatch batch{SliceRows(rows, kRows, kRows + kQueries)};
  for (auto _ : state) {
    auto result = backend->ScoreTopK(batch, 10, serve::QueryOptions());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_QuantizedScore)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// The quantized backend's first stage alone (quant::internal::
/// SelectCandidates: the int8 scan, the score intervals and the streaming
/// selection) for one 16-query block over BM_QuantizedScore's corpus, k =
/// 10. The first argument is the rerank_factor, so m = 40 (the serving
/// shape: half of a BM_QuantizedScore call is two of these plus their
/// reranks), 80, 160 or 640 slots for the m-th best upper bound; the
/// second is the kernel::Isa level. Items/s counts queries.
void BM_SelectCandidates(benchmark::State& state) {
  constexpr int64_t kRows = 10000;
  constexpr int kQueries = 16;
  constexpr int64_t kTake = 10;
  const int64_t m = kTake * state.range(0);
  IsaGuard isa(state, state.range(1));
  if (isa.skipped()) return;
  const Tensor rows = ImageFeatureRows(kRows + kQueries, 12);
  const quant::QuantizedCorpus corpus =
      quant::QuantizeRows(SliceRows(rows, 0, kRows)).value();
  const Tensor queries = SliceRows(rows, kRows, kRows + kQueries);
  for (auto _ : state) {
    auto candidates = quant::internal::SelectCandidates(
        corpus, queries.data(), kQueries, kTake, m);
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_SelectCandidates)
    ->ArgsProduct({{4, 8, 16, 64}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMicrosecond);

/// CRC-32 (kernel::Crc32Update) over one buffer of n bytes: 64 B, a 32 KB
/// rpc-fanout request frame and a 5 MB bundle payload. The arguments are n
/// and the kernel::Isa level (0 portable, the slicing loop; 1-4 the
/// carry-less fold), so `BM_Crc32/32768/1` reads "32 KB at avx2".
void BM_Crc32(benchmark::State& state) {
  const int64_t n = state.range(0);
  IsaGuard isa(state, state.range(1));
  if (isa.skipped()) return;
  Rng rng(13);
  std::vector<unsigned char> bytes(static_cast<size_t>(n));
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.UniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel::Crc32Update(0xFFFFFFFFu, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Crc32)->ArgsProduct({{64, 32 << 10, 5 << 20}, {0, 1, 2, 3, 4}});

/// quant::QuantizeRows over the bulk-quantized corpus, 10,000 x 128
/// image-feature rows, at the kernel::Isa level of its only argument (0
/// portable; from 1 the AVX2 range pass and span quantizer).
void BM_QuantizeRows(benchmark::State& state) {
  IsaGuard isa(state, state.range(0));
  if (isa.skipped()) return;
  const Tensor rows = ImageFeatureRows(10000, 14);
  for (auto _ : state) {
    auto corpus = quant::QuantizeRows(rows);
    benchmark::DoNotOptimize(corpus);
  }
  state.SetItemsProcessed(state.iterations() * rows.rows());
}
BENCHMARK(BM_QuantizeRows)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Top-10 selection from a query block's [m, n] score matrix, at the two
/// serving shapes: an rpc-fanout shard dispatch (32 queries x 3,000 rows)
/// and an ingest-live batch (16 x 2,000). Scores come from
/// ImageFeatureRows. The third argument picks the selector: 0 ranks each
/// query with a std::partial_sort of an index vector, as the scalar oracle
/// does, and 1 with kernel::TopK. Items/s counts scores ranked.
void BM_TopK(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const bool use_topk = state.range(2) == 1;
  constexpr int64_t kTopK = 10;
  constexpr int64_t kDim = 128;
  const Tensor rows = ImageFeatureRows(m + n, 11);
  std::vector<float> sims(static_cast<size_t>(m * n));
  kernel::Gemm(rows.data() + n * kDim, kDim, false, rows.data(), kDim, true,
               m, n, kDim, sims.data());
  std::vector<int64_t> order(static_cast<size_t>(n));
  kernel::TopK top(kTopK);
  for (auto _ : state) {
    for (int64_t i = 0; i < m; ++i) {
      const float* row = sims.data() + i * n;
      if (use_topk) {
        top.Push(row, n, /*base_id=*/0);
        benchmark::DoNotOptimize(top.Take());
      } else {
        std::iota(order.begin(), order.end(), 0);
        std::partial_sort(order.begin(), order.begin() + kTopK, order.end(),
                          [row](int64_t a, int64_t b) {
                            return row[a] > row[b] ||
                                   (row[a] == row[b] && a < b);
                          });
        benchmark::DoNotOptimize(order.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_TopK)->ArgsProduct({{32}, {3000}, {0, 1}})
    ->ArgsProduct({{16}, {2000}, {0, 1}});

void BM_CosineSimilarityMatrix(benchmark::State& state) {
  const int64_t n = state.range(0);
  ThreadGuard guard(static_cast<int>(state.range(1)));
  Rng rng(9);
  Tensor a = Tensor::Randn({n, 32}, rng);
  Tensor b = Tensor::Randn({n, 32}, rng);
  for (auto _ : state) {
    Tensor sims = CosineSimilarityMatrix(a, b);
    benchmark::DoNotOptimize(sims.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CosineSimilarityMatrix)->ArgsProduct({{250, 1000}, {1, 4}});

void BM_L2NormalizeRows(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::Randn({state.range(0), 32}, rng);
  for (auto _ : state) {
    Tensor n = L2NormalizeRows(a);
    benchmark::DoNotOptimize(n.data());
  }
}
BENCHMARK(BM_L2NormalizeRows)->Arg(100)->Arg(1000);

void BM_BiLstmEncode(benchmark::State& state) {
  // 100 sequences of 8 tokens, the ingredient-branch workload per batch.
  Rng rng(2);
  nn::Embedding emb(200, 24, rng);
  nn::BiLstm bilstm(24, 24, rng);
  std::vector<std::vector<int64_t>> seqs;
  for (int i = 0; i < 100; ++i) {
    std::vector<int64_t> s;
    for (int t = 0; t < 8; ++t) s.push_back(rng.UniformInt(200));
    seqs.push_back(std::move(s));
  }
  for (auto _ : state) {
    ag::Var h = bilstm.EncodeIds(emb, seqs);
    benchmark::DoNotOptimize(h.value().data());
  }
}
BENCHMARK(BM_BiLstmEncode);

void BM_InstanceTripletLoss(benchmark::State& state) {
  const int64_t b = state.range(0);
  Rng rng(3);
  Tensor img = L2NormalizeRows(Tensor::Randn({b, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({b, 32}, rng));
  for (auto _ : state) {
    auto result = core::InstanceTripletLoss(img, rec, 0.3f,
                                            core::MiningStrategy::kAdaptive);
    benchmark::DoNotOptimize(result.loss);
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * (b - 1));
}
BENCHMARK(BM_InstanceTripletLoss)->Arg(100)->Arg(200);

void BM_SemanticTripletLoss(benchmark::State& state) {
  const int64_t b = state.range(0);
  Rng rng(4);
  Tensor img = L2NormalizeRows(Tensor::Randn({b, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({b, 32}, rng));
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < b; ++i) {
    labels.push_back(i % 2 == 0 ? rng.UniformInt(10) : -1);
  }
  Rng loss_rng(5);
  for (auto _ : state) {
    auto result =
        core::SemanticTripletLoss(img, rec, labels, 0.3f,
                                  core::MiningStrategy::kAdaptive, loss_rng);
    benchmark::DoNotOptimize(result.loss);
  }
}
BENCHMARK(BM_SemanticTripletLoss)->Arg(100)->Arg(200);

void BM_MatchRanks(benchmark::State& state) {
  const int64_t n = state.range(0);
  ThreadGuard guard(static_cast<int>(state.range(1)));
  Rng rng(6);
  Tensor q = Tensor::Randn({n, 32}, rng);
  Tensor c = Tensor::Randn({n, 32}, rng);
  for (auto _ : state) {
    auto ranks = eval::MatchRanks(q, c);
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MatchRanks)->ArgsProduct({{250, 1000}, {1, 4}});

void BM_Word2VecEpoch(benchmark::State& state) {
  text::Word2VecConfig config;
  config.dim = 24;
  config.epochs = 1;
  config.seed = 7;
  Rng rng(8);
  std::vector<std::vector<int64_t>> corpus;
  for (int s = 0; s < 500; ++s) {
    std::vector<int64_t> sentence;
    for (int t = 0; t < 8; ++t) sentence.push_back(rng.UniformInt(200));
    corpus.push_back(std::move(sentence));
  }
  for (auto _ : state) {
    auto w2v = text::Word2Vec::Create(200, config);
    w2v->Train(corpus);
    benchmark::DoNotOptimize(w2v->embeddings().data());
  }
}
BENCHMARK(BM_Word2VecEpoch);

}  // namespace
}  // namespace adamine

BENCHMARK_MAIN();
