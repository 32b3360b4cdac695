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
/// quantiser; a query scans only the lists whose centroids are most
/// similar, as many as it asks for. The classic accuracy/speed dial for
/// retrieval at the paper's 10k-and-beyond scale.
struct IvfConfig {
  /// Number of inverted lists (k of the coarse quantiser).
  int64_t num_lists = 16;
  /// Lists scanned per query when the "ivf" backend's probe dial starts;
  /// num_probes == num_lists gives exact search. IvfIndex::Build validates
  /// it, and k-means does not read it.
  int64_t num_probes = 4;
  int64_t kmeans_iterations = 20;
  uint64_t seed = 3;

  Status Validate() const;
};

class IvfIndex {
 public:
  /// Builds the index over `items` [N, D] (rows should be L2-normalised,
  /// as model embeddings are). Requires num_lists <= N. The index is
  /// immutable afterwards: the probe count is an argument of every search,
  /// so callers that own a probe dial (the serving layer) keep it.
  static StatusOr<IvfIndex> Build(Tensor items, const IvfConfig& config);

  /// The (approximately) `k` most cosine-similar items to each row of
  /// `queries` [B, D], with their scores, ordered by (score desc, id asc).
  /// Each query scans the `probes` lists whose centroids score highest
  /// against it; `probes` is clamped to num_lists, where the search is
  /// exact. Both the centroid scan and the candidate scoring go through
  /// the kernel layer's tiled GEMM: the union of every query's probed
  /// lists is gathered once and scored against all queries in one [B, U]
  /// GEMM, and each query then ranks only its own probed candidates. Each
  /// answer is bit-identical to the scalar reference over the same lists,
  /// for every thread count and every batch the row is searched in.
  /// Requires k > 0 and probes > 0 (checked).
  std::vector<std::vector<kernel::ScoredHit>> Search(const Tensor& queries,
                                                     int64_t k,
                                                     int64_t probes) const;

  int64_t size() const { return items_.rows(); }
  int64_t num_lists() const { return centroids_.rows(); }

  /// Fraction of Search(queries, k, probes) results that appear in the
  /// exact Search(queries, k, num_lists()), averaged over the rows of
  /// `queries` — the standard recall@k measure of ANN quality. Queries
  /// whose exact-truth set is empty are excluded from the average (they
  /// carry no signal); at least one query must have a non-empty truth set
  /// (checked).
  double RecallAtK(const Tensor& queries, int64_t k, int64_t probes) const;

 private:
  IvfIndex() = default;

  Tensor items_;      // [N, D]
  Tensor centroids_;  // [num_lists, D]
  std::vector<std::vector<int64_t>> lists_;
};

}  // namespace adamine::index

#endif  // ADAMINE_INDEX_IVF_INDEX_H_
