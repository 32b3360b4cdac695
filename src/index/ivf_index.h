#ifndef ADAMINE_INDEX_IVF_INDEX_H_
#define ADAMINE_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "kernel/topk.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::index {

/// Inverted-file approximate nearest-neighbour index over unit-norm rows
/// (cosine similarity). Items are partitioned by a k-means coarse
/// quantiser; a query scans only the `num_probes` lists whose centroids are
/// most similar. The classic accuracy/speed dial for retrieval at the
/// paper's 10k-and-beyond scale.
struct IvfConfig {
  /// Number of inverted lists (k of the coarse quantiser).
  int64_t num_lists = 16;
  /// Lists scanned per query. num_probes == num_lists gives exact search.
  int64_t num_probes = 4;
  int64_t kmeans_iterations = 20;
  uint64_t seed = 3;

  Status Validate() const;
};

class IvfIndex {
 public:
  /// Builds the index over `items` [N, D] (rows should be L2-normalised,
  /// as model embeddings are). Requires num_lists <= N.
  static StatusOr<IvfIndex> Build(Tensor items, const IvfConfig& config);

  /// Indices of (approximately) the `k` most cosine-similar items to the
  /// unit query row [D], most similar first. Requires k > 0 (checked).
  std::vector<int64_t> Query(const Tensor& query, int64_t k) const;

  /// Like Query with every list probed (exact, for recall measurement).
  std::vector<int64_t> QueryExact(const Tensor& query, int64_t k) const;

  /// Micro-batched Query over the rows of `queries` [B, D]: both the
  /// centroid scan and the candidate scoring go through the kernel layer's
  /// tiled GEMM instead of per-query scalar loops. Candidate rows for the
  /// whole batch are gathered once (the union of every query's probed
  /// lists) and scored against all queries in one [B, U] GEMM; each query
  /// then ranks only its own probed candidates. Results are bit-identical
  /// to calling Query per row, for every thread count.
  std::vector<std::vector<int64_t>> QueryBatch(const Tensor& queries,
                                               int64_t k) const;

  /// QueryBatch with every list probed (exact).
  std::vector<std::vector<int64_t>> QueryBatchExact(const Tensor& queries,
                                                    int64_t k) const;

  /// Explicit-probe variants, for callers that own the probe dial (the
  /// serving layer): `probes` must be positive (checked) and is clamped to
  /// num_lists.
  std::vector<int64_t> QueryWithProbes(const Tensor& query, int64_t k,
                                       int64_t probes) const;
  std::vector<std::vector<int64_t>> QueryBatchWithProbes(
      const Tensor& queries, int64_t k, int64_t probes) const;

  /// QueryBatchWithProbes keeping the scores the ranking already computes,
  /// for callers that need per-hit scores (the serving backend seam, where
  /// approximate answers still carry reference-bitwise scores). Same order,
  /// same bit-identity guarantee.
  std::vector<std::vector<kernel::ScoredHit>> QueryBatchScoredWithProbes(
      const Tensor& queries, int64_t k, int64_t probes) const;

  /// Runtime probe dial: overrides the config's num_probes for subsequent
  /// queries. Rejects values outside (0, num_lists] — the same rule as
  /// IvfConfig::Validate.
  Status SetNumProbes(int64_t num_probes);
  int64_t num_probes() const { return config_.num_probes; }

  int64_t size() const { return items_.rows(); }
  int64_t num_lists() const { return centroids_.rows(); }

  /// Fraction of Query(k) results that appear in QueryExact(k), averaged
  /// over the rows of `queries` — the standard recall@k measure of ANN
  /// quality. Queries whose exact-truth set is empty are excluded from the
  /// average (they carry no signal); at least one query must have a
  /// non-empty truth set (checked).
  double RecallAtK(const Tensor& queries, int64_t k) const;

 private:
  IvfIndex() = default;

  std::vector<int64_t> Search(const Tensor& query, int64_t k,
                              int64_t probes) const;
  std::vector<std::vector<int64_t>> SearchBatch(const Tensor& queries,
                                                int64_t k,
                                                int64_t probes) const;
  std::vector<std::vector<kernel::ScoredHit>> SearchBatchScored(
      const Tensor& queries, int64_t k, int64_t probes) const;

  IvfConfig config_;
  Tensor items_;      // [N, D]
  Tensor centroids_;  // [num_lists, D]
  std::vector<std::vector<int64_t>> lists_;
};

}  // namespace adamine::index

#endif  // ADAMINE_INDEX_IVF_INDEX_H_
