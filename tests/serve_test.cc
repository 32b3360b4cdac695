// Serving-layer suite: the policy shell around a registry-created scoring
// backend — micro-batch splitting pinned to the scalar path (backend-level
// bit-identity lives in tests/backend_golden_test.cc, ctest label
// `golden`), LRU cache correctness under eviction (entries and bytes),
// recall monotonicity in the probe dial, stats accounting, concurrent use,
// and the overload-safety layer — deadlines, admission control, adaptive
// probe degradation and the serve-path fault points (the
// RetrievalServiceConcurrencyTest / AdmissionTest / OverloadTest suites
// also run under the tsan ctest label, and the overload battery under the
// `overload` label; see tests/CMakeLists.txt).

#include "serve/retrieval_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "index/ivf_index.h"
#include "io/serialize.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"
#include "linalg/kmeans.h"
#include "serve/admission.h"
#include "serve/degradation.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/rng.h"

namespace adamine {
namespace {

namespace serve = adamine::serve;

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Well-separated clusters of unit rows, the IVF-friendly geometry.
Tensor ClusteredUnitRows(int64_t clusters, int64_t per_cluster, int64_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  Tensor anchors = L2NormalizeRows(Tensor::Randn({clusters, dim}, rng));
  Tensor points({clusters * per_cluster, dim});
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      const int64_t row = c * per_cluster + i;
      for (int64_t j = 0; j < dim; ++j) {
        points.At(row, j) =
            anchors.At(c, j) + static_cast<float>(rng.Normal(0, 0.05));
      }
    }
  }
  return L2NormalizeRows(points);
}

Tensor RowOf(const Tensor& m, int64_t i) {
  Tensor row({m.cols()});
  std::copy(m.data() + i * m.cols(), m.data() + (i + 1) * m.cols(),
            row.data());
  return row;
}

std::vector<int64_t> IdsOf(const std::vector<serve::ScoredHit>& hits) {
  std::vector<int64_t> ids;
  for (const serve::ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

serve::ServeConfig ExhaustiveConfig(int64_t micro_batch = 32,
                                    int64_t cache = 0) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kExhaustive;
  config.micro_batch = micro_batch;
  config.cache_capacity = cache;
  return config;
}

serve::ServeConfig IvfServeConfig(int64_t num_lists, int64_t num_probes,
                                  int64_t micro_batch = 32,
                                  int64_t cache = 0) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kIvf;
  config.ivf.num_lists = num_lists;
  config.ivf.num_probes = num_probes;
  config.ivf.seed = 9;
  config.micro_batch = micro_batch;
  config.cache_capacity = cache;
  return config;
}

TEST(ServeConfigTest, Validation) {
  EXPECT_TRUE(ExhaustiveConfig().Validate().ok());
  serve::ServeConfig bad = ExhaustiveConfig();
  bad.micro_batch = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ExhaustiveConfig();
  bad.cache_capacity = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = IvfServeConfig(4, 8);  // probes > lists.
  EXPECT_FALSE(bad.Validate().ok());
}

// Backend-vs-scalar bit-identity now lives in the registry-driven golden
// suite (tests/backend_golden_test.cc, ctest label `golden`), which
// auto-compares every registered backend across the corpus × k × threads ×
// shards × probes matrix. This thin wrapper keeps the *service*-level
// micro-batching (cache rows + GEMM split widths) pinned to the scalar
// path — the one dimension the backend-level harness does not sweep.
TEST(RetrievalServiceTest, MicroBatchSplitsMatchScalarPath) {
  Tensor items = ClusteredUnitRows(6, 10, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 2, 16, 5);
  serve::BackendConfig scalar_config;
  scalar_config.items = items;
  auto scalar = serve::CreateBackend("scalar", scalar_config);
  ASSERT_TRUE(scalar.ok());
  auto scored = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, 10, {});
  ASSERT_TRUE(scored.ok());
  std::vector<std::vector<int64_t>> expect;
  for (const auto& hits : scored->hits) expect.push_back(IdsOf(hits));
  for (int64_t micro_batch : {1, 7, 64}) {
    auto service = serve::RetrievalService::Create(
        items, ExhaustiveConfig(micro_batch));
    ASSERT_TRUE(service.ok());
    auto got = (*service)->QueryBatch(queries, 10);
    EXPECT_EQ(got, expect) << "micro-batch " << micro_batch;
  }
}

/// IVF's answer rebuilt from scratch, one query at a time: the lists from
/// linalg::KMeans with the index's config, the centroids ranked by
/// kernel::DotAscending under (score desc, id asc), and the rows of the top
/// `probes` lists scored and ranked the same way, keeping k. It shares no
/// code with IvfIndex::Search past k-means, so it pins which lists a query
/// probes and that each query ranks only its own lists' rows.
std::vector<std::vector<serve::ScoredHit>> IvfReference(
    const Tensor& items, const index::IvfConfig& ivf, const Tensor& queries,
    int64_t k, int64_t probes) {
  linalg::KMeansConfig kmeans_config;
  kmeans_config.k = ivf.num_lists;
  kmeans_config.max_iterations = ivf.kmeans_iterations;
  kmeans_config.seed = ivf.seed;
  auto kmeans = linalg::KMeans(items, kmeans_config);
  ADAMINE_CHECK(kmeans.ok());
  const Tensor& centroids = kmeans->centroids;
  const int64_t d = items.cols();
  const auto ranked = [](std::vector<serve::ScoredHit> hits, int64_t keep) {
    std::sort(hits.begin(), hits.end(),
              [](const serve::ScoredHit& a, const serve::ScoredHit& b) {
                return a.score > b.score ||
                       (a.score == b.score && a.index < b.index);
              });
    hits.resize(std::min<size_t>(hits.size(), static_cast<size_t>(keep)));
    return hits;
  };
  std::vector<std::vector<serve::ScoredHit>> answers;
  for (int64_t i = 0; i < queries.rows(); ++i) {
    const float* q = queries.data() + i * d;
    std::vector<serve::ScoredHit> lists;
    for (int64_t c = 0; c < centroids.rows(); ++c) {
      lists.push_back(
          {c, kernel::DotAscending(centroids.data() + c * d, q, d)});
    }
    std::vector<serve::ScoredHit> rows;
    for (const serve::ScoredHit& list : ranked(lists, probes)) {
      for (size_t r = 0; r < kmeans->assignments.size(); ++r) {
        if (kmeans->assignments[r] != list.index) continue;
        const int64_t id = static_cast<int64_t>(r);
        rows.push_back(
            {id, kernel::DotAscending(items.data() + id * d, q, d)});
      }
    }
    answers.push_back(ranked(rows, k));
  }
  return answers;
}

/// Same ids and same score bits, row by row.
::testing::AssertionResult SameHits(
    const std::vector<std::vector<serve::ScoredHit>>& want,
    const std::vector<std::vector<serve::ScoredHit>>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << want.size() << " rows expected, " << got.size() << " returned";
  }
  for (size_t q = 0; q < want.size(); ++q) {
    if (want[q].size() != got[q].size()) {
      return ::testing::AssertionFailure()
             << "query " << q << ": " << want[q].size() << " hits expected, "
             << got[q].size() << " returned";
    }
    for (size_t r = 0; r < want[q].size(); ++r) {
      if (want[q][r].index != got[q][r].index ||
          std::bit_cast<uint32_t>(want[q][r].score) !=
              std::bit_cast<uint32_t>(got[q][r].score)) {
        return ::testing::AssertionFailure()
               << "query " << q << ", rank " << r << ": expected (id "
               << want[q][r].index << ", score " << std::hexfloat
               << want[q][r].score << "), got (id " << got[q][r].index
               << ", score " << got[q][r].score << ")" << std::defaultfloat;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IvfIndexBatchTest, BatchedQueryMatchesPerQueryScalar) {
  Tensor items = ClusteredUnitRows(5, 25, 12, 13);
  Tensor queries = ClusteredUnitRows(5, 4, 12, 17);
  index::IvfConfig ivf;
  ivf.num_lists = 5;
  auto index = index::IvfIndex::Build(items.Clone(), ivf);
  ASSERT_TRUE(index.ok());
  for (const int64_t probes : {int64_t{1}, int64_t{2}, ivf.num_lists}) {
    for (const int64_t k : {int64_t{1}, int64_t{7}, items.rows() + 3}) {
      const auto want = IvfReference(items, ivf, queries, k, probes);
      for (const int threads : {1, 4}) {
        ThreadGuard guard(threads);
        const std::string where = "probes " + std::to_string(probes) +
                                  " k " + std::to_string(k) + " threads " +
                                  std::to_string(threads);
        const auto got = index->Search(queries, k, probes);
        EXPECT_TRUE(SameHits(want, got)) << where;
        // A row's answer does not depend on the batch it is searched in.
        std::vector<std::vector<serve::ScoredHit>> one_at_a_time;
        for (int64_t i = 0; i < queries.rows(); ++i) {
          one_at_a_time.push_back(
              index->Search(SliceRows(queries, i, i + 1), k, probes)[0]);
        }
        EXPECT_TRUE(SameHits(got, one_at_a_time)) << where;
      }
    }
  }
}

TEST(RetrievalServiceTest, CacheServesRepeatsAndEvictsLru) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 19);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/2));
  ASSERT_TRUE(service.ok());
  Tensor q0 = RowOf(items, 0);
  Tensor q1 = RowOf(items, 25);
  Tensor q2 = RowOf(items, 50);

  auto r0 = (*service)->Query(q0, 5);
  auto r1 = (*service)->Query(q1, 5);
  // Cache full {q1, q0}. A repeat is a hit and returns identical results.
  EXPECT_EQ((*service)->Query(q0, 5), r0);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);

  // q2 evicts the least-recently-used entry (q1).
  auto r2 = (*service)->Query(q2, 5);
  EXPECT_EQ((*service)->Query(q1, 5), r1);  // Miss: was evicted, rescored.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 4);

  // Evicted-and-rescored results stay correct (scoring is deterministic).
  EXPECT_EQ((*service)->Query(q2, 5), r2);  // Hit again.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
}

TEST(RetrievalServiceTest, CacheKeyedByKAndProbes) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 23);
  auto service =
      serve::RetrievalService::Create(items, IvfServeConfig(4, 1, 8, 64));
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 3);
  auto k5 = (*service)->Query(q, 5);
  auto k3 = (*service)->Query(q, 3);
  EXPECT_EQ(k3.size(), 3u);
  EXPECT_EQ(k5.size(), 5u);
  // Same query at a different probe count must not reuse the cached entry.
  ASSERT_TRUE((*service)->SetProbes(4).ok());
  auto exact = (*service)->Query(q, 5);
  EXPECT_EQ(exact.size(), 5u);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 3);
}

TEST(RetrievalServiceTest, PerRequestProbesOverrideIsScoredAndKeyed) {
  // Regression: the cached query paths used to read the dial (probes())
  // and ignore options.probes entirely, so an override request was scored
  // at the dial setting and filed under the dial's cache key. With a
  // clustered corpus and the dial at 1 probe, a full-probe override must
  // return the exhaustive answer — pre-fix it returned the 1-probe answer.
  const int64_t kLists = 8;
  Tensor items = ClusteredUnitRows(kLists, 4, 12, 43);  // k=8 spans clusters.
  auto service = serve::RetrievalService::Create(
      items, IvfServeConfig(kLists, 1, 32, /*cache=*/8));
  ASSERT_TRUE(service.ok());
  auto exact = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(exact.ok());

  // A query between clusters so 1 probe genuinely misses neighbours.
  Tensor queries = ClusteredUnitRows(kLists, 1, 12, 47);
  Tensor q = RowOf(queries, 1);
  auto truth = (*exact)->Query(q, 8);

  serve::QueryOptions all_lists;
  all_lists.probes = kLists;
  auto overridden = (*service)->QueryWithOptions(q, 8, all_lists);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(*overridden, truth);  // Scored at the override, not the dial.

  // The override's entry lives under its own key: repeating the override
  // is a hit, while the same query at the dial setting is a miss that
  // re-scores (pre-fix both collided on one entry).
  auto repeat = (*service)->QueryWithOptions(q, 8, all_lists);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(*repeat, truth);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);

  auto dialed = (*service)->Query(q, 8);
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_NE(dialed, truth);  // 1 probe on this corpus misses neighbours.

  // Batched path honours the override the same way.
  auto batch = (*service)->QueryBatchWithOptions(queries, 8, all_lists);
  ASSERT_TRUE(batch.ok());
  auto batch_truth = (*exact)->QueryBatch(queries, 8);
  EXPECT_EQ(*batch, batch_truth);
}

TEST(RetrievalServiceTest, DialingProbesRescoresInsteadOfServingStale) {
  // Companion regression: results cached at one dial setting must not be
  // served after SetProbes moves the dial — the key includes the effective
  // probe count, so the re-dialed query is a miss and re-scores.
  const int64_t kLists = 8;
  Tensor items = ClusteredUnitRows(kLists, 4, 12, 53);  // k=8 spans clusters.
  auto service = serve::RetrievalService::Create(
      items, IvfServeConfig(kLists, 1, 32, /*cache=*/8));
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(ClusteredUnitRows(kLists, 1, 12, 59), 1);

  auto coarse = (*service)->Query(q, 8);
  ASSERT_TRUE((*service)->SetProbes(kLists).ok());
  auto fine = (*service)->Query(q, 8);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);  // Second query re-scored, no reuse.
  EXPECT_NE(coarse, fine);

  auto exact = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(fine, (*exact)->Query(q, 8));
}

TEST(RetrievalServiceTest, ProbeDialRecallIsMonotone) {
  Tensor items = ClusteredUnitRows(8, 30, 12, 29);
  Tensor queries = ClusteredUnitRows(8, 3, 12, 31);
  auto service =
      serve::RetrievalService::Create(items, IvfServeConfig(8, 1));
  ASSERT_TRUE(service.ok());
  auto exact = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(exact.ok());
  auto truth = (*exact)->QueryBatch(queries, 8);
  double last = 0.0;
  for (int64_t probes : {1, 2, 4, 8}) {
    ASSERT_TRUE((*service)->SetProbes(probes).ok());
    EXPECT_EQ((*service)->probes(), probes);
    auto got = (*service)->QueryBatch(queries, 8);
    double recall = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
      std::set<int64_t> t(truth[i].begin(), truth[i].end());
      int64_t hits = 0;
      for (int64_t item : got[i]) hits += t.count(item);
      recall += static_cast<double>(hits) / static_cast<double>(t.size());
    }
    recall /= static_cast<double>(got.size());
    EXPECT_GE(recall, last - 1e-12) << "probes " << probes;
    last = recall;
  }
  EXPECT_NEAR(last, 1.0, 1e-12);  // All lists probed == exhaustive truth.
}

TEST(RetrievalServiceTest, LoadsExportedBundleAndRejectsMissingName) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 37);
  const std::string path = testing::TempDir() + "/serve_bundle.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->size(), items.rows());
  EXPECT_EQ((*service)->dim(), items.cols());
  auto top = (*service)->Query(RowOf(items, 4), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 4);  // A stored row's nearest neighbour is itself.

  auto missing = serve::RetrievalService::Load(path, "no_such_tensor",
                                               ExhaustiveConfig());
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(RetrievalServiceTest, ProbeDialRejectedOnExhaustiveBackend) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 41);
  auto service =
      serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(service.ok());
  const Status rejected = (*service)->SetProbes(2);
  ASSERT_FALSE(rejected.ok());
  // The rejection comes from the hosted backend and names it, so a client
  // of a multi-backend deployment knows which dial it fumbled.
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("exhaustive"), std::string::npos)
      << rejected.ToString();
  EXPECT_EQ((*service)->probes(), 0);
}

TEST(RetrievalServiceTest, StatsCountStagesAndBatches) {
  Tensor items = ClusteredUnitRows(4, 16, 8, 43);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/16, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  Tensor queries = ClusteredUnitRows(4, 8, 8, 47);  // 32 queries.
  (*service)->QueryBatch(queries, 5);
  (*service)->RecordEmbedMillis(1.5);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.queries, 32);
  EXPECT_EQ(stats.batches, 2);  // 32 queries / micro-batch 16.
  EXPECT_EQ(stats.score.count, 2);
  EXPECT_EQ(stats.rank.count, 2);
  EXPECT_EQ(stats.embed.count, 1);
  EXPECT_NEAR(stats.embed.total_ms, 1.5, 1e-12);
  EXPECT_GE(stats.embed.PercentileMs(50), 1.5);
  EXPECT_GE(stats.score.PercentileMs(95), stats.score.PercentileMs(50));
  EXPECT_FALSE(stats.ToString().empty());
  (*service)->ResetStats();
  EXPECT_EQ((*service)->Snapshot().queries, 0);
}

TEST(IvfIndexValidationTest, RejectsNonPositiveKAndProbes) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 53);
  index::IvfConfig ivf;
  ivf.num_lists = 4;
  ivf.num_probes = 2;
  auto index = index::IvfIndex::Build(items.Clone(), ivf);
  ASSERT_TRUE(index.ok());
  Tensor q = SliceRows(items, 0, 1);
  EXPECT_DEATH(index->Search(q, 0, 2), "\\(k\\) > \\(0\\)");
  EXPECT_DEATH(index->Search(q, -3, 2), "\\(k\\) > \\(0\\)");
  EXPECT_DEATH(index->Search(q, 5, 0), "\\(probes\\) > \\(0\\)");
  EXPECT_DEATH(index->Search(items, 5, -1), "\\(probes\\) > \\(0\\)");
  // A probe count past num_lists is clamped to it: the exact search.
  EXPECT_EQ(index->Search(items, 5, 5), index->Search(items, 5, 4));
}

TEST(RetrievalServiceConcurrencyTest, ConcurrentQueriesAreConsistent) {
  Tensor items = ClusteredUnitRows(6, 20, 12, 59);
  Tensor queries = ClusteredUnitRows(6, 4, 12, 61);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/16));
  ASSERT_TRUE(service.ok());
  auto expect = (*service)->QueryBatch(queries, 6);
  (*service)->ResetStats();  // Count only the concurrent phase below.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter) {
        if ((t + iter) % 2 == 0) {
          auto got = (*service)->QueryBatch(queries, 6);
          if (got != expect) mismatches.fetch_add(1);
        } else {
          const int64_t i = (t * 8 + iter) % queries.rows();
          auto got = (*service)->Query(RowOf(queries, i), 6);
          if (got != expect[static_cast<size_t>(i)]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.queries, 4 * 8 / 2 * static_cast<int64_t>(queries.rows()) +
                               4 * 8 / 2);
}

TEST(RetrievalServiceConcurrencyTest, ConcurrentProbeDialAndQueries) {
  Tensor items = ClusteredUnitRows(8, 15, 12, 67);
  Tensor queries = ClusteredUnitRows(8, 2, 12, 71);
  auto service = serve::RetrievalService::Create(
      items, IvfServeConfig(8, 2, /*micro_batch=*/8, /*cache=*/32));
  ASSERT_TRUE(service.ok());
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        auto got = (*service)->QueryBatch(queries, 5);
        for (const auto& row : got) {
          if (row.empty()) failed.store(true);
        }
      }
    });
  }
  workers.emplace_back([&] {
    for (int64_t probes : {1, 4, 8, 2, 8, 1}) {
      if (!(*service)->SetProbes(probes).ok()) failed.store(true);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
}

// --- Overload-safety layer ---------------------------------------------

/// Fixture for everything that arms fault points: a leaked schedule must
/// never bleed into the determinism suites above.
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

using AdmissionTest = ServeFaultTest;
using OverloadTest = ServeFaultTest;
using RetrievalServiceFaultTest = ServeFaultTest;
using RetrievalServiceDeadlineTest = ServeFaultTest;

TEST(ServeConfigOverloadTest, ValidatesOverloadFields) {
  serve::ServeConfig config = ExhaustiveConfig();
  config.cache_capacity_bytes = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExhaustiveConfig();
  config.max_inflight = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExhaustiveConfig();
  config.max_queue = 2;  // Queueing without admission control.
  EXPECT_FALSE(config.Validate().ok());
  config.max_inflight = 1;
  EXPECT_TRUE(config.Validate().ok());
  config = IvfServeConfig(8, 4);
  config.degradation.target_ms = 5.0;
  config.degradation.min_probes = 6;  // Floor above the configured probes.
  EXPECT_FALSE(config.Validate().ok());
  config.degradation.min_probes = 2;
  EXPECT_TRUE(config.Validate().ok());
  config.degradation.recover_ratio = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RetrievalServiceValidationTest, RejectsNonFiniteEmbeddings) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 73);
  items.At(7, 2) = std::numeric_limits<float>::quiet_NaN();
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("non-finite"),
            std::string::npos);
  EXPECT_NE(service.status().message().find("row 7"), std::string::npos);
}

TEST(RetrievalServiceValidationTest, RejectsUnnormalisedEmbeddings) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 79);
  for (int64_t j = 0; j < items.cols(); ++j) items.At(4, j) *= 3.0f;
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("L2 norm"), std::string::npos);
}

/// The audit's Status message for `items` as one ascending chain per row
/// writes it: the first non-finite value in row order, else the first row
/// off unit norm, else "" for a corpus that passes.
std::string ScalarAuditMessage(const Tensor& items) {
  const int64_t d = items.cols();
  for (int64_t i = 0; i < items.rows(); ++i) {
    double norm_sq = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const float v = items.At(i, j);
      if (!std::isfinite(v)) {
        return "item row " + std::to_string(i) +
               " has a non-finite value at column " + std::to_string(j) +
               " (corrupt embeddings?)";
      }
      norm_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    const double norm = std::sqrt(norm_sq);
    if (std::abs(norm - 1.0) > 1e-3) {
      return "item row " + std::to_string(i) + " has L2 norm " +
             std::to_string(norm) +
             "; the service expects unit rows (within 1e-3)";
    }
  }
  return "";
}

TEST(RetrievalServiceValidationTest, GroupedAuditReportsTheFirstFault) {
  // 19 rows: two groups of eight summed side by side, then three alone.
  const Tensor base = ClusteredUnitRows(1, 19, 11, 97);
  const auto expect_scalar_verdict = [](const Tensor& items) {
    const std::string want = ScalarAuditMessage(items);
    auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
    if (want.empty()) {
      EXPECT_TRUE(service.ok()) << service.status().ToString();
      return;
    }
    ASSERT_FALSE(service.ok()) << want;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(service.status().message(), want);
  };
  expect_scalar_verdict(base);
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (int64_t r = 0; r < base.rows(); ++r) {
    for (int64_t c = 0; c < base.cols(); ++c) {
      for (float bad : kBad) {
        SCOPED_TRACE(::testing::Message()
                     << "row " << r << " column " << c << " value " << bad);
        Tensor items = base.Clone();
        items.At(r, c) = bad;
        expect_scalar_verdict(items);
        // A second fault in the same group or the next: the first wins.
        items.At((r + 5) % base.rows(), (c + 3) % base.cols()) = bad;
        expect_scalar_verdict(items);
      }
    }
    SCOPED_TRACE(::testing::Message() << "row " << r);
    // Off unit norm by 1e-2, and inside the tolerance by a hair.
    for (float factor : {1.01f, 0.99f, 1.0009f}) {
      Tensor items = base.Clone();
      for (int64_t c = 0; c < base.cols(); ++c) items.At(r, c) *= factor;
      expect_scalar_verdict(items);
    }
  }
}

TEST(RetrievalServiceValidationTest, LoadRejectsTruncatedBundle) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 83);
  const std::string path = testing::TempDir() + "/serve_truncated.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  // Tear the file in half on disk: Load must return a descriptive Status.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  EXPECT_FALSE(service.ok());
  std::remove(path.c_str());
}

TEST_F(RetrievalServiceFaultTest, ArmedLoadReadFaultReturnsStatus) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 89);
  const std::string path = testing::TempDir() + "/serve_fault_bundle.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  fault::Arm(fault::kServeLoadRead);
  auto torn = serve::RetrievalService::Load(path, "image_emb",
                                            ExhaustiveConfig());
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  fault::Reset();
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  EXPECT_TRUE(service.ok());
  std::remove(path.c_str());
}

TEST_F(AdmissionTest, AdmitsUpToLimitAndShedsBeyondQueue) {
  serve::AdmissionController controller(/*max_inflight=*/1, /*max_queue=*/1);
  ASSERT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());
  // Fill the queue from a second thread, then the third request must shed.
  std::atomic<bool> queued_done{false};
  std::thread waiter([&] {
    const auto status =
        controller.Admit(serve::AdmissionController::TimePoint::max());
    queued_done.store(true);
    if (status.ok()) controller.Release();
  });
  while (controller.queued() < 1) std::this_thread::yield();
  const auto shed =
      controller.Admit(serve::AdmissionController::TimePoint::max());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  controller.Release();  // Frees the slot; the queued waiter proceeds.
  waiter.join();
  EXPECT_TRUE(queued_done.load());
  const serve::AdmissionStats stats = controller.Snapshot();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.queue_peak, 1);
  EXPECT_EQ(stats.inflight_peak, 1);
  EXPECT_EQ(controller.inflight(), 0);
}

TEST_F(AdmissionTest, QueuedRequestTimesOutAtItsDeadline) {
  serve::AdmissionController controller(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  const auto status = controller.Admit(deadline);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controller.Snapshot().queue_timeouts, 1);
  controller.Release();
}

TEST_F(AdmissionTest, ArmedQueueRejectFaultShedsEveryRequest) {
  serve::AdmissionController controller(/*max_inflight=*/8, /*max_queue=*/8);
  fault::Arm(fault::kServeQueueReject, /*skip=*/1, /*fire=*/1);
  EXPECT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());  // Skipped hit.
  const auto status =
      controller.Admit(serve::AdmissionController::TimePoint::max());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  controller.Release();
}

TEST(DegradationTest, DialsDownOnMissedTargetAndRecoversWithHysteresis) {
  serve::DegradationConfig config;
  config.target_ms = 5.0;
  config.min_probes = 1;
  config.window = 4;
  config.recover_ratio = 0.5;
  serve::DegradationController controller(config, /*full_probes=*/8);
  EXPECT_EQ(controller.probes(), 8);
  EXPECT_EQ(controller.health(), serve::HealthState::kHealthy);
  // One slow window halves the dial: 8 -> 4.
  for (int i = 0; i < 4; ++i) controller.Observe(20.0);
  EXPECT_EQ(controller.probes(), 4);
  EXPECT_EQ(controller.health(), serve::HealthState::kDegraded);
  // Two more slow windows: 4 -> 2 -> 1.
  for (int i = 0; i < 8; ++i) controller.Observe(20.0);
  EXPECT_EQ(controller.probes(), 1);
  EXPECT_EQ(controller.dial_downs(), 3);
  // Still over target with nothing left to trade: unhealthy.
  for (int i = 0; i < 4; ++i) controller.Observe(20.0);
  EXPECT_EQ(controller.probes(), 1);
  EXPECT_EQ(controller.health(), serve::HealthState::kUnhealthy);
  // Latency in the hysteresis band (under target, above the recovery
  // threshold): the dial holds rather than oscillating.
  for (int i = 0; i < 4; ++i) controller.Observe(4.0);
  EXPECT_EQ(controller.probes(), 1);
  EXPECT_EQ(controller.health(), serve::HealthState::kDegraded);
  // Fully recovered latency doubles the dial back up to full.
  for (int i = 0; i < 12; ++i) controller.Observe(1.0);
  EXPECT_EQ(controller.probes(), 8);
  EXPECT_EQ(controller.health(), serve::HealthState::kHealthy);
  EXPECT_EQ(controller.dial_ups(), 3);
}

TEST(DegradationTest, ManualSetProbesReanchorsTheController) {
  serve::DegradationConfig config;
  config.target_ms = 5.0;
  config.window = 2;
  serve::DegradationController controller(config, /*full_probes=*/8);
  for (int i = 0; i < 4; ++i) controller.Observe(20.0);
  EXPECT_LT(controller.probes(), 8);
  controller.OnManualSetProbes(4);
  EXPECT_EQ(controller.probes(), 4);
  EXPECT_EQ(controller.health(), serve::HealthState::kHealthy);
  // Recovery now targets the operator's choice, not the old full value.
  for (int i = 0; i < 4; ++i) controller.Observe(20.0);
  for (int i = 0; i < 8; ++i) controller.Observe(0.5);
  EXPECT_EQ(controller.probes(), 4);
}

TEST_F(RetrievalServiceDeadlineTest, GenerousDeadlineMatchesNoDeadline) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 97);
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 3);
  const auto plain = (*service)->Query(q, 5);
  serve::QueryOptions options;
  options.deadline_ms = 60'000.0;
  auto bounded = (*service)->QueryWithOptions(q, 5, options);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded.value(), plain);
}

TEST_F(RetrievalServiceDeadlineTest, SlowScoringFailsBetweenMicroBatches) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 101);
  Tensor queries = ClusteredUnitRows(4, 2, 8, 103);  // 8 rows.
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/1, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  // Every micro-batch stalls 25 ms; the budget covers at most a couple of
  // the 8 needed, so the between-batches check must fire.
  fault::Arm(fault::kServeScoreDelay, /*skip=*/25);
  serve::QueryOptions options;
  options.deadline_ms = 40.0;
  auto result = (*service)->QueryBatchWithOptions(queries, 5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE((*service)->Snapshot().deadline_misses, 1);
  fault::Reset();
  // Without the stall the same request fits its budget again.
  auto recovered = (*service)->QueryBatchWithOptions(queries, 5, options);
  EXPECT_TRUE(recovered.ok());
}

TEST_F(RetrievalServiceDeadlineTest, ExpiredDeadlineFailsBeforeScoring) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 107);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  serve::QueryOptions options;
  options.deadline_ms = 1e-6;  // Effectively already expired on entry.
  auto result = (*service)->QueryWithOptions(RowOf(items, 0), 5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RetrievalServiceCacheBytesTest, EvictsByByteBudget) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 109);
  serve::ServeConfig config = ExhaustiveConfig(/*micro_batch=*/8,
                                               /*cache=*/1000);
  // One entry costs key (8 floats + 3 int64 = 56 bytes) + 5 results
  // (40 bytes) = 96 bytes; a 200-byte budget holds exactly two entries.
  config.cache_capacity_bytes = 200;
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  Tensor q0 = RowOf(items, 0);
  Tensor q1 = RowOf(items, 25);
  Tensor q2 = RowOf(items, 50);
  (*service)->Query(q0, 5);
  (*service)->Query(q1, 5);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_bytes, 192);
  EXPECT_EQ(stats.cache_evictions, 0);
  // The third entry overflows the byte budget long before the 1000-entry
  // limit: the LRU entry (q0) goes.
  (*service)->Query(q2, 5);
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_bytes, 192);
  EXPECT_EQ(stats.cache_evictions, 1);
  (*service)->Query(q1, 5);  // Still cached.
  (*service)->Query(q0, 5);  // Evicted: rescored.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 4);
}

TEST(RetrievalServiceCacheBytesTest, OversizedEntryIsServedUncached) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 113);
  serve::ServeConfig config = ExhaustiveConfig(/*micro_batch=*/8,
                                               /*cache=*/1000);
  config.cache_capacity_bytes = 64;  // Below any single entry's cost.
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 0);
  const auto first = (*service)->Query(q, 5);
  EXPECT_EQ((*service)->Query(q, 5), first);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 0);  // Nothing was ever admitted to the cache.
  EXPECT_EQ(stats.cache_bytes, 0);
}

TEST_F(RetrievalServiceFaultTest, ScoreDelayDrivesDegradationAndRecovery) {
  Tensor items = ClusteredUnitRows(8, 15, 12, 127);
  Tensor queries = ClusteredUnitRows(8, 2, 12, 131);  // 16 rows.
  serve::ServeConfig config =
      IvfServeConfig(8, 4, /*micro_batch=*/1, /*cache=*/0);
  config.degradation.target_ms = 2.0;
  config.degradation.min_probes = 1;
  config.degradation.window = 2;
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->probes(), 4);
  EXPECT_EQ((*service)->health(), serve::HealthState::kHealthy);
  // 10 ms per micro-batch against a 2 ms target: each 2-batch window dials
  // down (4 -> 2 -> 1), after which the service reports it has nothing
  // left to trade.
  fault::Arm(fault::kServeScoreDelay, /*skip=*/10);
  (*service)->QueryBatch(SliceRows(queries, 0, 4), 5);
  EXPECT_EQ((*service)->health(), serve::HealthState::kDegraded);
  (*service)->QueryBatch(queries, 5);
  EXPECT_EQ((*service)->probes(), config.degradation.min_probes);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_GE(stats.probe_dial_downs, 2);
  EXPECT_NE(stats.health, serve::HealthState::kHealthy);
  // Disarming the stall recovers the dial to full and health to healthy.
  fault::Reset();
  (*service)->QueryBatch(queries, 5);
  EXPECT_EQ((*service)->probes(), 4);
  EXPECT_EQ((*service)->health(), serve::HealthState::kHealthy);
  EXPECT_GE((*service)->Snapshot().probe_dial_ups, 2);
}

TEST(RetrievalServiceConcurrencyTest, ProbeDialStressNeverTearsResults) {
  Tensor items = ClusteredUnitRows(8, 15, 12, 137);
  Tensor queries = ClusteredUnitRows(8, 2, 12, 139);
  serve::ServeConfig config =
      IvfServeConfig(8, 2, /*micro_batch=*/4, /*cache=*/64);
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  // The service's index is built deterministically from (items, ivf
  // config); an identical stand-alone build yields the per-probe truth.
  auto index = index::IvfIndex::Build(items.Clone(), config.ivf);
  ASSERT_TRUE(index.ok());
  const std::vector<int64_t> dial_values = {1, 2, 4, 8};
  std::vector<std::vector<std::vector<int64_t>>> truth;
  for (int64_t probes : dial_values) {
    std::vector<std::vector<int64_t>> ids;
    for (const auto& hits : index->Search(queries, 5, probes)) {
      ids.push_back(IdsOf(hits));
    }
    truth.push_back(std::move(ids));
  }
  std::atomic<int> torn{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int iter = 0; iter < 12; ++iter) {
        auto got = (*service)->QueryBatch(queries, 5);
        for (size_t row = 0; row < got.size(); ++row) {
          // Every row must equal the reference for *some* probe value that
          // was ever set — a mix within a row would be a torn read of the
          // dial.
          bool consistent = false;
          for (const auto& expect : truth) {
            if (got[row] == expect[row]) {
              consistent = true;
              break;
            }
          }
          if (!consistent) torn.fetch_add(1);
        }
      }
    });
  }
  std::thread dialer([&] {
    int i = 0;
    while (!stop.load()) {
      ASSERT_TRUE(
          (*service)
              ->SetProbes(dial_values[static_cast<size_t>(i++) %
                                      dial_values.size()])
              .ok());
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  dialer.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(OverloadTest, ShedsDegradesAndRecoversUnderOverload) {
  Tensor items = ClusteredUnitRows(8, 15, 12, 149);
  Tensor queries = ClusteredUnitRows(8, 2, 12, 151);
  serve::ServeConfig config =
      IvfServeConfig(8, 4, /*micro_batch=*/4, /*cache=*/0);
  config.max_inflight = 1;
  config.max_queue = 1;
  config.degradation.target_ms = 2.0;
  config.degradation.min_probes = 1;
  config.degradation.window = 2;
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // The un-overloaded reference at the configured probes, from the index
  // searched directly, served at several thread counts (the bit-identity
  // contract holds under overload machinery too).
  auto index = index::IvfIndex::Build(items.Clone(), config.ivf);
  ASSERT_TRUE(index.ok());
  const auto truth = index->Search(queries, 5, 4);
  for (int width : {1, 2, 4}) {
    ThreadGuard guard(width);
    auto got = (*service)->QueryBatch(queries, 5);
    for (int64_t i = 0; i < queries.rows(); ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)],
                IdsOf(truth[static_cast<size_t>(i)]))
          << "width " << width;
    }
  }
  (*service)->ResetStats();

  // Offered load far above capacity: every micro-batch stalls 15 ms, four
  // clients offer concurrent requests with 60 ms budgets into a queue of
  // depth 1. The excess must shed fast or miss its deadline — it must NOT
  // pile up (queue_peak stays within max_queue).
  fault::Arm(fault::kServeScoreDelay, /*skip=*/15);
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> shed_count{0};
  std::atomic<int64_t> deadline_count{0};
  std::atomic<int64_t> other_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int iter = 0; iter < 6; ++iter) {
        serve::QueryOptions options;
        options.deadline_ms = 60.0;
        const int64_t row = (t * 6 + iter) % queries.rows();
        auto result =
            (*service)->QueryWithOptions(RowOf(queries, row), 5, options);
        if (result.ok()) {
          ok_count.fetch_add(1);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          deadline_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);  // The service kept serving...
  EXPECT_GT(shed_count.load() + deadline_count.load(), 0)  // ...and shed.
      << "offered load above capacity must shed or deadline-fail";
  EXPECT_LE(stats.queue_peak, config.max_queue);
  EXPECT_LE(stats.inflight_peak, config.max_inflight);
  EXPECT_EQ(stats.shed, shed_count.load());
  // Sustained overload drove the probe dial to its floor and health out of
  // kHealthy (kDegraded on the way down, kUnhealthy once at the floor).
  EXPECT_EQ((*service)->probes(), config.degradation.min_probes);
  EXPECT_NE(stats.health, serve::HealthState::kHealthy);

  // Recovery: disarm the stall, serve a healthy stream, and the dial walks
  // back to full probes with health kHealthy.
  fault::Reset();
  for (int iter = 0; iter < 8; ++iter) {
    (*service)->QueryBatch(queries, 5);
    if ((*service)->health() == serve::HealthState::kHealthy) break;
  }
  EXPECT_EQ((*service)->probes(), 4);
  EXPECT_EQ((*service)->health(), serve::HealthState::kHealthy);
}

}  // namespace
}  // namespace adamine
