#ifndef ADAMINE_SERVE_BACKEND_H_
#define ADAMINE_SERVE_BACKEND_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/ivf_index.h"
#include "kernel/topk.h"
#include "serve/serve_stats.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

/// One retrieved item (its row id in the backend's item set) with its
/// cosine score: what kernel::TopK selects, and the currency of the sharded
/// merge path, where per-shard top-k lists are re-ranked globally and
/// shard-local tie-breaking alone cannot order candidates across shards.
using ScoredHit = kernel::ScoredHit;

/// Per-request serving options, threaded from the service entry point down
/// to the scoring backend.
struct QueryOptions {
  /// Latency budget in milliseconds, measured from entry into the service;
  /// 0 means no deadline. Checked while queued for admission, before
  /// scoring, and between micro-batches; an exceeded budget returns
  /// kDeadlineExceeded instead of results.
  double deadline_ms = 0.0;
  /// Probe count for this request on backends with a probe dial; 0 means
  /// the backend's current dial setting. The service pins the dial value it
  /// read for the cache key here, so a concurrent SetProbes can never make
  /// the scored result disagree with the key it is cached under.
  int64_t probes = 0;
};

/// A batch of query rows. An undefined tensor is the empty batch (zero
/// queries) — Tensor cannot represent a [0, D] shape, so emptiness is the
/// defined() bit, and every backend answers it with zero result rows.
struct QueryBatch {
  Tensor queries;  // [B, D] unit rows, or undefined for the empty batch.

  int64_t size() const { return queries.defined() ? queries.rows() : 0; }
  bool empty() const { return size() == 0; }
};

/// A scored top-k answer plus the stage latencies the backend observed, so
/// the serving layer can keep per-stage counters without knowing how the
/// backend splits its work.
struct TopKResult {
  /// hits[i] answers query row i: up to min(k, corpus) hits ordered by
  /// (score desc, global id asc). Approximate backends may return fewer
  /// when their candidate set runs short.
  std::vector<std::vector<ScoredHit>> hits;
  double score_ms = 0.0;  // Similarity-computation wall time.
  double rank_ms = -1.0;  // Top-k ranking wall time; < 0 when fused.
};

/// The registry names of the built-in backends, for ServeConfig::backend
/// and CreateBackend: one constant per engine registered by
/// backends/builtins.cc. Any other registered name is as valid.
struct Backend {
  /// Serial per-query dot products. Exact; the golden-diff oracle every
  /// other backend is compared against.
  static constexpr char kScalar[] = "scalar";
  /// One tiled GEMM of the query micro-batch against every item, then
  /// per-query top-k. Exact.
  static constexpr char kExhaustive[] = "exhaustive";
  /// index::IvfIndex approximate search with a runtime probe dial.
  static constexpr char kIvf[] = "ivf";
  /// Int8 approximate scan + exact float rerank (src/quant/). Exact, with
  /// a ~4x smaller scan footprint.
  static constexpr char kQuantized[] = "quantized";
  /// A crash-safe live-mutable corpus (src/mutate/) accepting Add / Delete
  /// while serving. Exact over the surviving rows.
  static constexpr char kMutable[] = "mutable";
  /// An in-process sharded fan-out over exhaustive services: a topology of
  /// services, so no RetrievalService can host it.
  static constexpr char kSharded[] = "sharded";
};

/// The backend knobs, each declared once: BackendConfig adds the corpus
/// and the topology, ServeConfig the serving policy. Backends ignore the
/// knobs they do not use.
struct BackendOptions {
  /// Coarse-quantiser settings for probed backends ("ivf"); num_probes
  /// seeds the probe dial.
  index::IvfConfig ivf;
  /// Candidate floor for two-stage backends ("quantized"): the approximate
  /// scan keeps at least min(N, rerank_factor * k) rows for the exact
  /// rerank. Must be >= 1; larger values trade scan selectivity for rerank
  /// headroom but never change results (the verified interval selection
  /// already guarantees exactness — see src/quant/quantized_backend.cc).
  int64_t rerank_factor = 4;
  /// Durability directory for the "mutable" backend's WAL + segments +
  /// manifest. Empty means an ephemeral per-backend temp directory,
  /// deleted on destruction; non-empty persists across processes, and a
  /// recovered non-empty corpus — not the seed items — is the source of
  /// truth.
  std::string wal_dir;
  /// Memtable rows that trigger a background seal on the "mutable"
  /// backend (>= 1; small values create compaction pressure; see
  /// src/mutate/).
  int64_t seal_threshold = 4096;
  /// Ingest admission control for the "mutable" backend (see DESIGN.md,
  /// "Resource pressure and scrubbing"): memtable budgets and the seal-lag
  /// watermark past which mutations shed with kResourceExhausted —
  /// transient, retry after maintenance catches up — or block up to
  /// admit_wait_ms. 0 = unbounded / shed immediately.
  int64_t memtable_max_rows = 0;
  int64_t memtable_max_bytes = 0;
  int64_t max_seal_lag = 0;
  double admit_wait_ms = 0.0;
  /// Background integrity-scrub cadence for the "mutable" backend;
  /// 0 = scrubbing off.
  double scrub_interval_ms = 0.0;

  /// kInvalidArgument naming the first knob out of range.
  Status Validate() const;
};

/// Everything a factory may need to build a backend over a corpus. Kept
/// deliberately flat (no ServeConfig) so the registry has no dependency on
/// the serving layer above it.
struct BackendConfig : BackendOptions {
  Tensor items;  // [N, D] unit rows; copies alias the buffer.
  /// Topology for sharded backends ("sharded", "remote").
  int64_t num_shards = 1;
  int64_t num_replicas = 1;
};

/// A scoring backend: one way to turn a query batch into per-query top-k
/// lists over a fixed corpus. Implementations must honour the determinism
/// contract (DESIGN.md, "Backend registry"): when exact() is true the
/// answer is bit-identical to the scalar reference — every (query, item)
/// similarity computed by the same ascending accumulation chain, ranked by
/// (score desc, global id asc) — at every kernel thread count; when
/// exact() is false the answer must still be deterministic, well-ordered
/// and carry reference-bitwise scores.
///
/// Thread safety: ScoreTopK / SetProbes / probes may be called
/// concurrently. Backends do not serialise scoring themselves — the
/// serving layer owns the executor mutex.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  /// The single entry point. Validates the request (k > 0, query shape,
  /// finite query values; a violation is kInvalidArgument naming the row
  /// and column), answers the empty batch with zero rows, and delegates the
  /// rest to ScoreTopKImpl.
  StatusOr<TopKResult> ScoreTopK(const QueryBatch& batch, int64_t k,
                                 const QueryOptions& options);

  /// The old four-argument spelling, with the null filter of a seam that
  /// no longer exists. servebench still calls it and changes only with the
  /// benchmark; the next benchmark-scoped change moves it to the form
  /// above and deletes this forwarder.
  StatusOr<TopKResult> ScoreTopK(const QueryBatch& batch, std::nullptr_t,
                                 int64_t k, const QueryOptions& options) {
    return ScoreTopK(batch, k, options);
  }

  /// The registry name this backend was created under.
  virtual const char* name() const = 0;

  /// Corpus rows / embedding dimension served.
  virtual int64_t size() const = 0;
  virtual int64_t dim() const = 0;

  /// Probe dial. Backends without probes reject SetProbes with a
  /// descriptive kFailedPrecondition naming the backend; probes() is then 0
  /// and max_probes() 0.
  virtual bool has_probes() const { return false; }
  virtual Status SetProbes(int64_t probes);
  virtual int64_t probes() const { return 0; }
  virtual int64_t max_probes() const { return 0; }

  /// True when the current settings reproduce the scalar reference answer
  /// bit for bit (probed backends: every list scanned).
  virtual bool exact() const { return true; }

  /// Mutation epoch: bumped by every acknowledged Add / Delete, constant 0
  /// on immutable backends. The serving layer keys its result cache by
  /// this, so entries cached before a mutation become unreachable after it.
  virtual int64_t epoch() const { return 0; }

  /// Live mutation. Immutable backends (everything except "mutable")
  /// reject both with a descriptive kFailedPrecondition naming the
  /// backend. On success Add returns the new row's global id, durable
  /// before the call returns.
  virtual StatusOr<int64_t> Add(const Tensor& row);
  virtual Status Delete(int64_t id);

  /// Resource-pressure gauges; the all-zero default on immutable backends.
  virtual MutationPressure pressure() const { return {}; }

 protected:
  /// The backend's scoring body. Called with a validated non-empty batch.
  virtual StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch,
                                             int64_t k,
                                             const QueryOptions& options) = 0;
};

/// Static registration facts about a backend: the golden harness picks
/// its test matrix (probe sweeps, shard-count sweeps) from them without
/// creating an instance first, and ServeConfig::Validate refuses a sharded
/// one.
struct BackendTraits {
  bool has_probes = false;  // Honours SetProbes / BackendOptions::ivf.
  /// A topology of services (honours BackendConfig::num_shards/replicas),
  /// not a backend one RetrievalService can host.
  bool sharded = false;
};

using BackendFactory =
    std::function<StatusOr<std::unique_ptr<ScoringBackend>>(
        const BackendConfig&)>;

/// Registers a backend under `name`. The built-ins (one per Backend:: name)
/// are in the registry from its first access; other backends (a test's
/// loopback-RPC topology, say) register here and inherit the golden
/// harness's coverage with no new test code. Fails with kInvalidArgument
/// on a duplicate name.
Status RegisterBackend(const std::string& name, BackendFactory factory,
                       const BackendTraits& traits = {});

/// Creates backend `name` over `config`. Unknown names fail with a
/// kInvalidArgument that lists every registered name.
StatusOr<std::unique_ptr<ScoringBackend>> CreateBackend(
    const std::string& name, const BackendConfig& config);

/// Registered names, sorted. The golden suite instantiates one test per
/// entry, so registering a backend is all it takes to put it under test.
std::vector<std::string> RegisteredBackendNames();

/// Registration traits of `name`; unknown names fail as in CreateBackend.
StatusOr<BackendTraits> TraitsOfBackend(const std::string& name);

namespace internal {

struct BuiltinBackend {
  const char* name;
  BackendFactory factory;
  BackendTraits traits;
};

/// The built-in backends, one per Backend:: name. Defined in
/// backends/builtins.cc, above serve/, since the list names engines from
/// quant/, mutate/ and the sharded service. The registry calls it on first
/// access: a static library would drop a static initializer from a file
/// that nothing else references, but never a function it calls. A fixed
/// array, so building the list allocates nothing: the first access comes
/// inside the first service's Create, where a growing vector's short-lived
/// blocks shifted where later corpus buffers landed in the heap and raised
/// servebench's rpc-fanout peak RSS by a corpus' worth (4.5 MB).
std::array<BuiltinBackend, 6> BuiltinBackends();

}  // namespace internal

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_BACKEND_H_
