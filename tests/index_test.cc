#include "index/ivf_index.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "eval/significance.h"
#include "linalg/kmeans.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace adamine {
namespace {

/// Three tight, well-separated clusters of unit vectors.
Tensor ClusteredUnitRows(int64_t per_cluster, uint64_t seed,
                         std::vector<int64_t>* truth = nullptr) {
  Rng rng(seed);
  Tensor anchors = L2NormalizeRows(Tensor::Randn({3, 8}, rng));
  Tensor points({3 * per_cluster, 8});
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      const int64_t row = c * per_cluster + i;
      if (truth != nullptr) truth->push_back(c);
      for (int64_t j = 0; j < 8; ++j) {
        points.At(row, j) =
            anchors.At(c, j) + static_cast<float>(rng.Normal(0, 0.05));
      }
    }
  }
  return L2NormalizeRows(points);
}

TEST(KMeansTest, RejectsBadConfig) {
  Rng rng(1);
  Tensor points = Tensor::Randn({5, 2}, rng);
  linalg::KMeansConfig config;
  config.k = 10;  // k > N.
  EXPECT_FALSE(linalg::KMeans(points, config).ok());
  config.k = 0;
  EXPECT_FALSE(linalg::KMeans(points, config).ok());
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  std::vector<int64_t> truth;
  Tensor points = ClusteredUnitRows(30, 7, &truth);
  linalg::KMeansConfig config;
  config.k = 3;
  config.seed = 2;
  auto result = linalg::KMeans(points, config);
  ASSERT_TRUE(result.ok());
  // Every ground-truth cluster maps to exactly one k-means cluster.
  for (int64_t c = 0; c < 3; ++c) {
    std::set<int64_t> assigned;
    for (int64_t i = 0; i < 30; ++i) {
      assigned.insert(result->assignments[static_cast<size_t>(c * 30 + i)]);
    }
    EXPECT_EQ(assigned.size(), 1u) << "true cluster " << c << " split";
  }
  EXPECT_LT(result->inertia, 30 * 3 * 0.1);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng rng(11);
  Tensor points = Tensor::Randn({100, 4}, rng);
  double last = 1e300;
  for (int64_t k : {1, 2, 4, 8, 16}) {
    linalg::KMeansConfig config;
    config.k = k;
    config.seed = 3;
    auto result = linalg::KMeans(points, config);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->inertia, last * 1.001);
    last = result->inertia;
  }
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  Tensor points = Tensor::Full({20, 3}, 1.0f);
  linalg::KMeansConfig config;
  config.k = 4;
  auto result = linalg::KMeans(points, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->inertia, 0.0, 1e-9);
}

TEST(IvfIndexTest, RejectsBadConfig) {
  Tensor items = ClusteredUnitRows(10, 13);
  index::IvfConfig config;
  config.num_lists = 4;
  config.num_probes = 8;  // probes > lists.
  EXPECT_FALSE(index::IvfIndex::Build(items, config).ok());
  config.num_lists = 1000;  // lists > N.
  config.num_probes = 1;
  EXPECT_FALSE(index::IvfIndex::Build(items, config).ok());
}

TEST(IvfIndexTest, ExactQueryMatchesBruteForce) {
  Tensor items = ClusteredUnitRows(20, 17);
  index::IvfConfig config;
  config.num_lists = 5;
  auto index = index::IvfIndex::Build(items.Clone(), config);
  ASSERT_TRUE(index.ok());
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor q = L2NormalizeRows(Tensor::Randn({1, 8}, rng));
    auto got = index->Search(q, 5, config.num_lists)[0];
    // Brute force.
    Tensor sims = CosineSimilarityMatrix(q, items);
    std::vector<int64_t> order(static_cast<size_t>(items.rows()));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return sims.At(0, a) > sims.At(0, b) ||
             (sims.At(0, a) == sims.At(0, b) && a < b);
    });
    ASSERT_EQ(got.size(), 5u);
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)].index,
                order[static_cast<size_t>(i)]);
    }
  }
}

TEST(IvfIndexTest, ApproximateRecallHighOnClusteredData) {
  Tensor items = ClusteredUnitRows(60, 19);
  index::IvfConfig config;
  config.num_lists = 6;
  config.num_probes = 2;
  auto index = index::IvfIndex::Build(items.Clone(), config);
  ASSERT_TRUE(index.ok());
  // Queries near the data: recall@10 should be high because each cluster
  // is covered by the probed lists.
  Tensor queries = ClusteredUnitRows(5, 19);
  const double recall = index->RecallAtK(queries, 10, config.num_probes);
  EXPECT_GT(recall, 0.8);
}

TEST(IvfIndexTest, MoreProbesNeverHurtRecall) {
  Tensor items = ClusteredUnitRows(40, 23);
  Tensor queries = ClusteredUnitRows(4, 29);
  index::IvfConfig config;
  config.num_lists = 8;
  auto index = index::IvfIndex::Build(items.Clone(), config);
  ASSERT_TRUE(index.ok());
  double last = 0.0;
  for (int64_t probes : {1, 2, 4, 8}) {
    const double recall = index->RecallAtK(queries, 8, probes);
    EXPECT_GE(recall, last - 1e-9);
    last = recall;
  }
  EXPECT_NEAR(last, 1.0, 1e-9);  // All lists probed -> exact.
}

TEST(IvfIndexTest, RecallWellDefinedWhenKExceedsListSizes) {
  // 12 items in 3 lists of ~4: k = 50 exceeds every list size, so the
  // exact-truth sets are smaller than k. Recall must still be averaged
  // over the truth-set sizes (never over k or over queries with no truth).
  Tensor items = ClusteredUnitRows(4, 31);
  Tensor queries = ClusteredUnitRows(2, 37);
  index::IvfConfig config;
  config.num_lists = 3;
  config.num_probes = 1;
  auto index = index::IvfIndex::Build(items.Clone(), config);
  ASSERT_TRUE(index.ok());
  const double partial = index->RecallAtK(queries, 50, 1);
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);  // One probed list cannot cover all 12 items.
  // All lists probed: approx == exact, so recall is exactly 1 even though
  // k is far larger than any list.
  EXPECT_EQ(index->RecallAtK(queries, 50, 3), 1.0);
}

TEST(PairedBootstrapTest, RejectsBadInput) {
  Rng rng(1);
  auto bad = eval::PairedBootstrap({1, 2}, {1}, 100, rng);
  EXPECT_FALSE(bad.ok());
  auto bad2 = eval::PairedBootstrap({}, {}, 100, rng);
  EXPECT_FALSE(bad2.ok());
  auto bad3 = eval::PairedBootstrap({1}, {1}, 0, rng);
  EXPECT_FALSE(bad3.ok());
}

TEST(PairedBootstrapTest, ClearDifferenceIsSignificant) {
  Rng rng(3);
  std::vector<int64_t> better;
  std::vector<int64_t> worse;
  for (int i = 0; i < 200; ++i) {
    int64_t base = 1 + rng.UniformInt(20);
    better.push_back(base);
    worse.push_back(base + 10 + rng.UniformInt(5));
  }
  auto result = eval::PairedBootstrap(better, worse, 500, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->mean_diff, 9.0);
  EXPECT_LT(result->p_value, 0.05);
}

TEST(PairedBootstrapTest, NoisyTieIsNotSignificant) {
  Rng rng(5);
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(1 + rng.UniformInt(50));
    b.push_back(1 + rng.UniformInt(50));
  }
  auto result = eval::PairedBootstrap(a, b, 500, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.05);
}

TEST(PairedBootstrapTest, IdenticalSystemsPValueOne) {
  Rng rng(7);
  std::vector<int64_t> ranks = {3, 1, 4, 1, 5};
  auto result = eval::PairedBootstrap(ranks, ranks, 100, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->mean_diff, 0.0);
  EXPECT_EQ(result->p_value, 1.0);
}

}  // namespace
}  // namespace adamine
