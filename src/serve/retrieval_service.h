#ifndef ADAMINE_SERVE_RETRIEVAL_SERVICE_H_
#define ADAMINE_SERVE_RETRIEVAL_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/degradation.h"
#include "serve/serve_stats.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

/// A RetrievalService's config: the registry name of the backend it hosts,
/// the backend knobs (BackendOptions, handed to the backend's factory as
/// they are), and the serving policy below.
struct ServeConfig : BackendOptions {
  /// Declared so that ServeConfig is no aggregate: as an aggregate with a
  /// base, a ShardedServeConfig argument written `{}` draws a false
  /// -Wmaybe-uninitialized on its `shard` from GCC 12.
  ServeConfig() = default;

  /// Any registered name that is not sharded (Backend:: names the
  /// built-ins).
  std::string backend = Backend::kExhaustive;
  /// Query rows scored per GEMM dispatch. QueryBatch splits larger inputs
  /// into micro-batches of this width.
  int64_t micro_batch = 32;
  /// LRU query-result cache capacity in entries; 0 disables the cache.
  int64_t cache_capacity = 1024;
  /// LRU cache capacity in bytes (keys + results); 0 means unlimited by
  /// bytes. Eviction honours whichever limit binds first, so large-k
  /// results cannot blow past the intended memory budget.
  int64_t cache_capacity_bytes = 0;
  /// Admission control: at most max_inflight requests score concurrently
  /// and at most max_queue more wait for a slot; the rest are shed with
  /// kUnavailable. 0 disables admission control.
  int64_t max_inflight = 0;
  int64_t max_queue = 0;
  /// Adaptive probe degradation for backends with a probe dial
  /// (target_ms <= 0 disables it; ignored on dial-less backends).
  DegradationConfig degradation;

  /// kInvalidArgument for an unknown backend (listing every registered
  /// one), a sharded one, or any knob out of range.
  Status Validate() const;
};

/// The serving layer over an exported embedding set: loads a bundle written
/// by io::SaveTensorBundle (or wraps an in-memory tensor), hosts a
/// registry-created ScoringBackend behind one interface, micro-batches
/// incoming queries through it, memoises repeat queries in an LRU cache,
/// and keeps per-stage latency counters (ServeStats).
///
/// Overload safety (see DESIGN.md, "Overload behavior"): requests may
/// carry a deadline (QueryOptions), a bounded admission queue sheds excess
/// load fast with kUnavailable, and on backends with a probe dial an
/// adaptive degradation controller dials probes down when the score-stage
/// p95 exceeds its target (and back up when healthy), with the current
/// HealthState exposed via Snapshot().
///
/// Determinism: results are bit-identical to the scalar reference backend
/// for every kernel thread count whenever the hosted backend is exact()
/// (see serve/backend.h and DESIGN.md, "Backend registry").
///
/// Thread safety: Query / QueryBatch / SetProbes / Snapshot may be called
/// concurrently. Scoring serialises *per service* on an internal executor
/// mutex (within one service, parallelism comes from the micro-batch
/// spreading over the kernel pool; distinct services — e.g. shard
/// replicas — score concurrently, the pool interleaving their jobs), while
/// cache hits proceed without waiting on in-flight scoring.
class RetrievalService {
 public:
  /// Serves the rows of `items` [N, D]. The embeddings are validated up
  /// front (2-D, dim > 0, every value finite, rows L2-normalised within
  /// 1e-3) so a corrupt bundle is a descriptive Status, never a crash.
  static StatusOr<std::unique_ptr<RetrievalService>> Create(
      Tensor items, const ServeConfig& config);

  /// Loads tensor `name` from the bundle at `path` (io::LoadTensorBundle)
  /// and serves its rows, with the same validation as Create.
  static StatusOr<std::unique_ptr<RetrievalService>> Load(
      const std::string& path, const std::string& name,
      const ServeConfig& config);

  /// QueryBatchWithOptions for the one unit query row [D].
  StatusOr<std::vector<int64_t>> QueryWithOptions(const Tensor& query,
                                                  int64_t k,
                                                  const QueryOptions& options);

  /// Indices of the k most cosine-similar items to each row of `queries`
  /// [B, D], most similar first; results[i] corresponds to row i. Rows are
  /// answered from the cache where the exact same (query bytes, k, probes)
  /// was answered before, and the misses are scored in micro-batches of
  /// config().micro_batch rows through one backend call each. The deadline
  /// is checked while queued for admission and before every micro-batch,
  /// so one slow batch cannot hold the budget hostage. Fails with
  /// kDeadlineExceeded (budget exhausted) or kUnavailable (load shed).
  StatusOr<std::vector<std::vector<int64_t>>> QueryBatchWithOptions(
      const Tensor& queries, int64_t k, const QueryOptions& options);

  /// QueryBatchWithOptions variant that also returns each hit's cosine
  /// score, for callers that merge results across services (the sharded
  /// layer). Every backend surfaces scores through the ScoringBackend
  /// seam, and exact backends guarantee (index, score) pairs bit-identical
  /// at every thread count and identical for any row subset served (each
  /// query x item dot product is an independent ascending chain). Bypasses
  /// the LRU cache — cached entries store indices only.
  StatusOr<std::vector<std::vector<ScoredHit>>> QueryBatchScored(
      const Tensor& queries, int64_t k, const QueryOptions& options);

  /// Deadline-free conveniences for callers that did not configure
  /// admission control (with it enabled these CHECK on a shed request —
  /// overload-aware callers must use the WithOptions APIs).
  std::vector<int64_t> Query(const Tensor& query, int64_t k);
  std::vector<std::vector<int64_t>> QueryBatch(const Tensor& queries,
                                               int64_t k);

  /// Live mutation, forwarded to the hosted backend (immutable backends
  /// reject both with a descriptive kFailedPrecondition). On success the
  /// mutation is durable before the call returns, and the result cache is
  /// epoch-keyed so entries cached before it can no longer be served —
  /// a repeat of a cached query observes the new row set immediately.
  StatusOr<int64_t> Add(const Tensor& row);
  Status Delete(int64_t id);

  /// Runtime accuracy/latency dial, forwarded to the hosted backend
  /// (backends without probes reject it with a descriptive
  /// kFailedPrecondition naming themselves). Cached results are keyed by
  /// the probe count, so dialling never serves stale mixes. A manual dial
  /// also re-anchors the degradation controller's "full" value.
  Status SetProbes(int64_t probes);

  /// The hosted backend's current probe count (0 on backends without a
  /// dial). The degradation controller may move this between calls.
  int64_t probes() const;

  /// Current health (kHealthy when degradation is disabled or inactive).
  HealthState health() const;

  /// Records one query-embedding forward pass run by the caller (the model
  /// lives outside the service) into the embed stage of the stats.
  void RecordEmbedMillis(double ms);

  /// Consistent snapshot of the counters since construction / ResetStats,
  /// including the overload counters (admission, deadlines, probe dial)
  /// and the current health state.
  ServeStats Snapshot() const;
  void ResetStats();

  /// Live corpus geometry, from the hosted backend: on the mutable backend
  /// size() tracks Add / Delete, elsewhere it is the item count.
  int64_t size() const { return backend_->size(); }
  int64_t dim() const { return backend_->dim(); }
  const ServeConfig& config() const { return config_; }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  RetrievalService(Tensor items, const ServeConfig& config);

  static TimePoint DeadlineOf(const QueryOptions& options);

  /// Exact-match cache key: the raw query bytes, k, the probe dial, and
  /// the backend's mutation epoch — entries cached before an Add / Delete
  /// are keyed under the old epoch and can never be served again (they age
  /// out through the LRU).
  std::string CacheKey(const float* query, int64_t k, int64_t probes) const;

  /// Cache lookup; on hit moves the entry to the LRU front and fills
  /// `result`. Counts the hit/miss.
  bool CacheLookup(const std::string& key, std::vector<int64_t>* result);
  void CacheInsert(const std::string& key, const std::vector<int64_t>& result);

  /// Scores `queries` [M, D] (all cache misses) through the hosted backend
  /// and ranks top-k per row, with scores. Serialised on exec_mu_; records
  /// score/rank stage latencies, feeds the degradation controller, and
  /// honours `deadline` (kDeadlineExceeded once it has passed — checked
  /// after the executor mutex is acquired, so a request that waited out
  /// its budget in line fails fast). `probes` pins the dial value the
  /// caller keyed its cache entries by.
  StatusOr<std::vector<std::vector<ScoredHit>>> ScoreMicroBatch(
      const Tensor& queries, int64_t k, int64_t probes, TimePoint deadline);

  /// Marks a scoring-path deadline miss and returns kDeadlineExceeded.
  Status DeadlineMiss(const char* where);

  ServeConfig config_;
  Tensor items_;  // [N, D]; the hosted backend shares this buffer.
  std::unique_ptr<ScoringBackend> backend_;  // Registry-created.

  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<DegradationController> degradation_;  // Probed backends.

  /// Serialises entry into the kernel pool (backend scoring).
  std::mutex exec_mu_;

  /// Guards cache_*, stats_ and the degradation controller. The backend's
  /// probe dial self-synchronises; lock order is mu_ -> backend, never the
  /// reverse.
  mutable std::mutex mu_;
  std::list<std::pair<std::string, std::vector<int64_t>>> cache_lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string,
                                         std::vector<int64_t>>>::iterator>
      cache_map_;
  int64_t cache_bytes_ = 0;
  ServeStats stats_;
  /// Controller dial counts at the last ResetStats, so Snapshot can report
  /// "since reset" without rewinding the controller itself.
  int64_t dial_downs_base_ = 0;
  int64_t dial_ups_base_ = 0;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_RETRIEVAL_SERVICE_H_
