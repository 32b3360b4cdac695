// The scoring-backend registry and the built-in engines. The scalar
// reference scores with kernel::DotAscending, a single ascending float
// accumulation chain in exactly the per-element order of kernel::Gemm, so
// every backend stays bit-identical to the reference (see DESIGN.md,
// "Backend registry").

#include "serve/backend.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "mutate/mutable_backend.h"
#include "quant/quantized_backend.h"
#include "serve/sharded_service.h"
#include "util/stopwatch.h"

namespace adamine::serve {

namespace {

Status ValidateBackendItems(const Tensor& items) {
  if (!items.defined() || items.ndim() != 2) {
    return Status::InvalidArgument("backend items must be 2-D [N, D]");
  }
  if (items.cols() <= 0) {
    return Status::InvalidArgument("backend items need dim > 0");
  }
  return Status::Ok();
}

/// The reference implementation every other backend is golden-diffed
/// against: per-query scalar dot products, no kernel-pool batching, ranked
/// by (score desc, global id asc).
class ScalarBackend final : public ScoringBackend {
 public:
  explicit ScalarBackend(Tensor items) : items_(std::move(items)) {}

  const char* name() const override { return "scalar"; }
  int64_t size() const override { return items_.rows(); }
  int64_t dim() const override { return items_.cols(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t b = batch.queries.rows();
    const int64_t d = items_.cols();
    const int64_t n = items_.rows();
    const int64_t take = std::min(k, n);
    TopKResult out;
    out.hits.resize(static_cast<size_t>(b));
    Stopwatch watch;
    std::vector<float> sims(static_cast<size_t>(n));
    std::vector<int64_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < b; ++i) {
      const float* query = batch.queries.data() + i * d;
      for (int64_t r = 0; r < n; ++r) {
        sims[static_cast<size_t>(r)] =
            kernel::DotAscending(items_.data() + r * d, query, d);
      }
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + take, order.end(),
                        [&sims](int64_t a, int64_t b2) {
                          return sims[static_cast<size_t>(a)] >
                                     sims[static_cast<size_t>(b2)] ||
                                 (sims[static_cast<size_t>(a)] ==
                                      sims[static_cast<size_t>(b2)] &&
                                  a < b2);
                        });
      std::vector<ScoredHit>& hits = out.hits[static_cast<size_t>(i)];
      hits.reserve(static_cast<size_t>(take));
      for (int64_t j = 0; j < take; ++j) {
        const int64_t id = order[static_cast<size_t>(j)];
        hits.push_back(ScoredHit{id, sims[static_cast<size_t>(id)]});
      }
    }
    out.score_ms = watch.ElapsedMillis();  // Scoring and ranking are fused.
    return out;
  }

 private:
  Tensor items_;  // [N, D]
};

/// Exhaustive cosine kNN: one tiled GEMM of the query batch against every
/// item, then a kernel::TopK per query over the kernel pool. Exact.
///
/// The [m, n] score block of a call goes back to a small free list when
/// the call ends, and the next call reuses it instead of allocating and
/// zero-filling its own: at a 32 x 3,000 shard dispatch that is 375 KB,
/// above glibc's mmap threshold. The list is shared, not per thread, so
/// idle workers pin no buffer; it holds at most kKeptBuffers.
class ExhaustiveBackend final : public ScoringBackend {
 public:
  explicit ExhaustiveBackend(Tensor items) : items_(std::move(items)) {}

  const char* name() const override { return "exhaustive"; }
  int64_t size() const override { return items_.rows(); }
  int64_t dim() const override { return items_.cols(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t m = batch.queries.rows();
    const int64_t d = items_.cols();
    const int64_t n = items_.rows();
    TopKResult out;
    Stopwatch watch;
    std::vector<float> sims = TakeBuffer(m * n);
    kernel::Gemm(batch.queries.data(), d, false, items_.data(), d, true, m,
                 n, d, sims.data());
    out.score_ms = watch.ElapsedMillis();
    watch.Restart();
    out.hits.resize(static_cast<size_t>(m));
    kernel::ParallelFor(m, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
      kernel::TopK top(k);
      for (int64_t i = i0; i < i1; ++i) {
        top.Push(sims.data() + i * n, n, /*base_id=*/0);
        out.hits[static_cast<size_t>(i)] = top.Take();
      }
    });
    out.rank_ms = watch.ElapsedMillis();
    ReturnBuffer(std::move(sims));
    return out;
  }

 private:
  static constexpr size_t kKeptBuffers = 2;

  /// A buffer of at least `size` floats. A reused one keeps its old
  /// contents, which the GEMM overwrites; only growth zero-fills.
  std::vector<float> TakeBuffer(int64_t size) {
    std::vector<float> buffer;
    {
      std::lock_guard<std::mutex> lock(buffers_mu_);
      if (!free_buffers_.empty()) {
        buffer = std::move(free_buffers_.back());
        free_buffers_.pop_back();
      }
    }
    if (buffer.size() < static_cast<size_t>(size)) {
      buffer.resize(static_cast<size_t>(size));
    }
    return buffer;
  }

  void ReturnBuffer(std::vector<float> buffer) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    if (free_buffers_.size() < kKeptBuffers) {
      free_buffers_.push_back(std::move(buffer));
    }
  }

  Tensor items_;  // [N, D]
  std::mutex buffers_mu_;
  std::vector<std::vector<float>> free_buffers_;  // Guarded by buffers_mu_.
};

/// index::IvfIndex approximate search behind the backend seam. Owns the
/// runtime probe dial; exact (and bit-identical to the reference) when
/// every list is probed.
class IvfBackend final : public ScoringBackend {
 public:
  IvfBackend(index::IvfIndex index, int64_t dim, int64_t probes)
      : index_(std::move(index)), dim_(dim), probes_(probes) {}

  const char* name() const override { return "ivf"; }
  int64_t size() const override { return index_.size(); }
  int64_t dim() const override { return dim_; }

  bool has_probes() const override { return true; }
  int64_t max_probes() const override { return index_.num_lists(); }

  Status SetProbes(int64_t probes) override {
    if (probes <= 0 || probes > index_.num_lists()) {
      return Status::InvalidArgument("need 0 < probes <= num_lists");
    }
    std::lock_guard<std::mutex> lock(mu_);
    probes_ = probes;
    return Status::Ok();
  }

  int64_t probes() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return probes_;
  }

  bool exact() const override { return probes() == index_.num_lists(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& options) override {
    const int64_t effective =
        options.probes > 0 ? std::min(options.probes, index_.num_lists())
                           : probes();
    TopKResult out;
    Stopwatch watch;
    // The fused batched search (centroid scan, candidate GEMM, per-query
    // ranking) reports as one score stage; rank_ms stays fused.
    out.hits = index_.Search(batch.queries, k, effective);
    out.score_ms = watch.ElapsedMillis();
    return out;
  }

 private:
  index::IvfIndex index_;
  const int64_t dim_;
  mutable std::mutex mu_;  // Guards the probe dial.
  int64_t probes_;
};

/// The in-process sharded fan-out/fan-in behind the backend seam: the
/// corpus partitioned across exhaustive shards, merged by (score desc,
/// global id asc). Exact whenever every shard responds.
class ShardedBackend final : public ScoringBackend {
 public:
  explicit ShardedBackend(std::unique_ptr<ShardedRetrievalService> service)
      : service_(std::move(service)) {}

  const char* name() const override { return "sharded"; }
  int64_t size() const override { return service_->size(); }
  int64_t dim() const override { return service_->dim(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& options) override {
    Stopwatch watch;
    QueryOptions fanout = options;
    fanout.probes = 0;  // Shards are exhaustive; no dial to pin.
    auto merged = service_->QueryBatchWithOptions(batch.queries, k, fanout);
    if (!merged.ok()) return merged.status();
    TopKResult out;
    out.hits = std::move(merged->results);
    out.score_ms = watch.ElapsedMillis();
    return out;
  }

 private:
  std::unique_ptr<ShardedRetrievalService> service_;
};

struct RegistryEntry {
  BackendFactory factory;
  BackendTraits traits;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, RegistryEntry> entries;  // Sorted by name.
};

/// The built-ins are registered on the registry's first access rather than
/// through per-TU static initializers: a static library drops the
/// initializers of unreferenced TUs, so self-registration from elsewhere
/// would silently vanish from binaries that never name those TUs.
Registry& GlobalRegistry() {
  static Registry& registry = *[]() {
    auto* r = new Registry();
    r->entries["scalar"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          return std::unique_ptr<ScoringBackend>(
              new ScalarBackend(config.items));
        },
        BackendTraits{}};
    r->entries["exhaustive"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          return std::unique_ptr<ScoringBackend>(
              new ExhaustiveBackend(config.items));
        },
        BackendTraits{}};
    r->entries["ivf"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          // Tensor copies alias the buffer, so the index shares the rows.
          auto index = index::IvfIndex::Build(config.items, config.ivf);
          if (!index.ok()) return index.status();
          return std::unique_ptr<ScoringBackend>(
              new IvfBackend(std::move(index).value(), config.items.cols(),
                             config.ivf.num_probes));
        },
        BackendTraits{/*has_probes=*/true, /*sharded=*/false}};
    r->entries["sharded"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          ShardedServeConfig sharded;
          sharded.num_shards = config.num_shards;
          sharded.num_replicas = config.num_replicas;
          sharded.shard.backend = Backend::kExhaustive;
          sharded.shard.cache_capacity = 0;
          auto service =
              ShardedRetrievalService::Create(config.items, sharded);
          if (!service.ok()) return service.status();
          return std::unique_ptr<ScoringBackend>(
              new ShardedBackend(std::move(service).value()));
        },
        BackendTraits{/*has_probes=*/false, /*sharded=*/true}};
    r->entries["quantized"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          // Two-stage int8 scan + exact rerank (src/quant/); registered
          // here rather than from its own TU so static-lib dead-stripping
          // cannot lose the entry.
          return quant::CreateQuantizedBackend(config);
        },
        BackendTraits{}};
    r->entries["mutable"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          // WAL-backed crash-safe live mutation (src/mutate/); like
          // quantized, registered here so dead-stripping cannot lose it.
          return mutate::CreateMutableBackend(config);
        },
        BackendTraits{}};
    return r;
  }();
  return registry;
}

/// Caller holds registry.mu.
std::string JoinRegisteredNames(const Registry& registry) {
  std::string names;
  for (const auto& [name, entry] : registry.entries) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

Status UnknownBackend(const std::string& name, const Registry& registry) {
  return Status::InvalidArgument("unknown backend '" + name +
                                 "'; registered backends: " +
                                 JoinRegisteredNames(registry));
}

}  // namespace

StatusOr<TopKResult> ScoringBackend::ScoreTopK(const QueryBatch& batch,
                                               int64_t k,
                                               const QueryOptions& options) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (batch.empty()) return TopKResult{};  // Zero queries, zero rows.
  if (batch.queries.ndim() != 2) {
    return Status::InvalidArgument("queries must be 2-D [B, D]");
  }
  if (batch.queries.cols() != dim()) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(batch.queries.cols()) +
        " does not match corpus dim " + std::to_string(dim()));
  }
  // A non-finite query value makes NaN or infinite scores, and NaN breaks
  // the strict weak ordering every ranking relies on: there is no answer.
  const float* values = batch.queries.data();
  for (int64_t i = 0; i < batch.queries.numel(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          "query row " + std::to_string(i / dim()) +
          " has a non-finite value at column " + std::to_string(i % dim()));
    }
  }
  return ScoreTopKImpl(batch, k, options);
}

Status ScoringBackend::SetProbes(int64_t /*probes*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' has no probe dial (probes apply only to backends with a coarse "
      "quantiser, e.g. ivf)");
}

StatusOr<int64_t> ScoringBackend::Add(const Tensor& /*row*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status ScoringBackend::Delete(int64_t /*id*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status RegisterBackend(const std::string& name, BackendFactory factory,
                       const BackendTraits& traits) {
  if (name.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  if (!factory) {
    return Status::InvalidArgument("backend '" + name +
                                   "' registered without a factory");
  }
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.entries.count(name) != 0) {
    return Status::InvalidArgument("backend '" + name +
                                   "' is already registered");
  }
  registry.entries[name] = {std::move(factory), traits};
  return Status::Ok();
}

StatusOr<std::unique_ptr<ScoringBackend>> CreateBackend(
    const std::string& name, const BackendConfig& config) {
  BackendFactory factory;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.entries.find(name);
    if (it == registry.entries.end()) {
      return UnknownBackend(name, registry);
    }
    factory = it->second.factory;
  }
  // The factory runs outside the registry lock: building an index or
  // booting a remote topology may be slow, and a factory may itself
  // consult the registry.
  return factory(config);
}

std::vector<std::string> RegisteredBackendNames() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.entries.size());
  for (const auto& [name, entry] : registry.entries) names.push_back(name);
  return names;
}

StatusOr<std::string> CanonicalBackendName(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end()) return UnknownBackend(name, registry);
  return it->first;
}

StatusOr<BackendTraits> TraitsOfBackend(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end()) return UnknownBackend(name, registry);
  return it->second.traits;
}

}  // namespace adamine::serve
