#include "index/ivf_index.h"

#include <algorithm>
#include <set>
#include <utility>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "kernel/topk.h"
#include "linalg/kmeans.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace adamine::index {

Status IvfConfig::Validate() const {
  if (num_lists <= 0) {
    return Status::InvalidArgument("num_lists must be positive");
  }
  if (num_probes <= 0 || num_probes > num_lists) {
    return Status::InvalidArgument("need 0 < num_probes <= num_lists");
  }
  if (kmeans_iterations <= 0) {
    return Status::InvalidArgument("kmeans_iterations must be positive");
  }
  return Status::Ok();
}

StatusOr<IvfIndex> IvfIndex::Build(Tensor items, const IvfConfig& config) {
  ADAMINE_RETURN_IF_ERROR(config.Validate());
  if (items.ndim() != 2) {
    return Status::InvalidArgument("items must be 2-D");
  }
  if (config.num_lists > items.rows()) {
    return Status::InvalidArgument("num_lists exceeds the number of items");
  }
  linalg::KMeansConfig kmeans_config;
  kmeans_config.k = config.num_lists;
  kmeans_config.max_iterations = config.kmeans_iterations;
  kmeans_config.seed = config.seed;
  auto kmeans = linalg::KMeans(items, kmeans_config);
  if (!kmeans.ok()) return kmeans.status();

  IvfIndex index;
  index.items_ = std::move(items);
  index.centroids_ = std::move(kmeans->centroids);
  index.lists_.resize(static_cast<size_t>(config.num_lists));
  for (size_t i = 0; i < kmeans->assignments.size(); ++i) {
    index.lists_[static_cast<size_t>(kmeans->assignments[i])].push_back(
        static_cast<int64_t>(i));
  }
  return index;
}

std::vector<std::vector<kernel::ScoredHit>> IvfIndex::Search(
    const Tensor& queries, int64_t k, int64_t probes) const {
  const int64_t d = items_.cols();
  ADAMINE_CHECK_EQ(queries.ndim(), 2);
  ADAMINE_CHECK_EQ(queries.cols(), d);
  // Same rules as IvfConfig::Validate: a non-positive k or probe count is a
  // caller bug, never a silent empty result.
  ADAMINE_CHECK_GT(k, 0);
  ADAMINE_CHECK_GT(probes, 0);
  const int64_t bsz = queries.rows();
  const int64_t lists = centroids_.rows();
  const int64_t probe = std::min(probes, lists);

  // Stage 1: centroid scan for the whole batch in one tiled GEMM, [B, L].
  Tensor centroid_sims({bsz, lists});
  kernel::Gemm(queries.data(), d, false, centroids_.data(), d, true, bsz,
               lists, d, centroid_sims.data());

  // Stage 2: per-query probe selection (disjoint writes per query).
  std::vector<int64_t> probed(static_cast<size_t>(bsz * probe));
  kernel::ParallelFor(bsz, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
    kernel::TopK top(probe);
    for (int64_t i = i0; i < i1; ++i) {
      top.Push(centroid_sims.data() + i * lists, lists, /*base_id=*/0);
      int64_t p = i * probe;
      for (const kernel::ScoredHit& list : top.Take()) {
        probed[static_cast<size_t>(p++)] = list.index;
      }
    }
  });

  // Stage 3: gather the union of every query's probed lists once, so each
  // candidate row is packed and scored against all queries in one GEMM.
  // A list's rows sit in consecutive union columns from list_col[list].
  std::vector<char> in_union(static_cast<size_t>(lists), 0);
  for (int64_t slot : probed) in_union[static_cast<size_t>(slot)] = 1;
  std::vector<int64_t> list_col(static_cast<size_t>(lists), -1);
  std::vector<int64_t> union_items;
  for (int64_t c = 0; c < lists; ++c) {
    if (!in_union[static_cast<size_t>(c)]) continue;
    list_col[static_cast<size_t>(c)] =
        static_cast<int64_t>(union_items.size());
    const std::vector<int64_t>& items = lists_[static_cast<size_t>(c)];
    union_items.insert(union_items.end(), items.begin(), items.end());
  }
  std::vector<std::vector<kernel::ScoredHit>> results(
      static_cast<size_t>(bsz));
  if (union_items.empty()) return results;  // Every probed list was empty.
  Tensor gathered = GatherRows(items_, union_items);

  // Stage 4: candidate scoring for the whole batch, [B, U].
  const int64_t u = static_cast<int64_t>(union_items.size());
  Tensor cand_sims({bsz, u});
  kernel::Gemm(queries.data(), d, false, gathered.data(), d, true, bsz, u, d,
               cand_sims.data());

  // Stage 5: each query ranks only its own probed candidates.
  kernel::ParallelFor(bsz, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
    kernel::TopK top(k);
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = cand_sims.data() + i * u;
      for (int64_t p = 0; p < probe; ++p) {
        const int64_t list = probed[static_cast<size_t>(i * probe + p)];
        const std::vector<int64_t>& items =
            lists_[static_cast<size_t>(list)];
        top.Push(row + list_col[static_cast<size_t>(list)], items.data(),
                 static_cast<int64_t>(items.size()));
      }
      results[static_cast<size_t>(i)] = top.Take();
    }
  });
  return results;
}

double IvfIndex::RecallAtK(const Tensor& queries, int64_t k,
                           int64_t probes) const {
  const auto exact = Search(queries, k, num_lists());
  const auto approx = Search(queries, k, probes);
  double recall = 0.0;
  int64_t counted = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    std::set<int64_t> truth;
    for (const kernel::ScoredHit& hit : exact[i]) truth.insert(hit.index);
    // A query with no exact neighbours carries no recall signal; counting
    // it in the denominator would deflate the average.
    if (truth.empty()) continue;
    ++counted;
    int64_t hits = 0;
    for (const kernel::ScoredHit& hit : approx[i]) {
      if (truth.count(hit.index)) ++hits;
    }
    recall +=
        static_cast<double>(hits) / static_cast<double>(truth.size());
  }
  ADAMINE_CHECK_MSG(counted > 0,
                    "RecallAtK: every query had an empty exact-truth set");
  return recall / static_cast<double>(counted);
}

}  // namespace adamine::index
