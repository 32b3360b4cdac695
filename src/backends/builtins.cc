// The built-in scoring backends and the one list that names all six. The
// engines with no module of their own live here: the scalar reference,
// which scores with kernel::DotAscending, a single ascending float
// accumulation chain in exactly the per-element order of kernel::Gemm, so
// every backend stays bit-identical to it (see DESIGN.md, "Backend
// registry"); the exhaustive GEMM; IVF; and the in-process sharded
// fan-out. "quantized" and "mutable" come from src/quant/ and src/mutate/.
// This file sits above serve/ so that serve/backend.cc, which holds the
// registry, depends on none of them.

#include <algorithm>
#include <array>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "mutate/mutable_backend.h"
#include "quant/quantized_backend.h"
#include "serve/backend.h"
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

  const char* name() const override { return Backend::kScalar; }
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

  const char* name() const override { return Backend::kExhaustive; }
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

  const char* name() const override { return Backend::kIvf; }
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

  const char* name() const override { return Backend::kSharded; }
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

template <typename Engine>
StatusOr<std::unique_ptr<ScoringBackend>> CreateOverItems(
    const BackendConfig& config) {
  ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
  return std::unique_ptr<ScoringBackend>(new Engine(config.items));
}

}  // namespace

namespace internal {

std::array<BuiltinBackend, 6> BuiltinBackends() {
  return {{
      {Backend::kScalar, CreateOverItems<ScalarBackend>, {}},
      {Backend::kExhaustive, CreateOverItems<ExhaustiveBackend>, {}},
      {Backend::kIvf,
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
       BackendTraits{/*has_probes=*/true, /*sharded=*/false}},
      {Backend::kQuantized,
       [](const BackendConfig& config)
           -> StatusOr<std::unique_ptr<ScoringBackend>> {
         ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
         return quant::CreateQuantizedBackend(config);
       },
       {}},
      {Backend::kMutable,
       [](const BackendConfig& config)
           -> StatusOr<std::unique_ptr<ScoringBackend>> {
         ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
         return mutate::CreateMutableBackend(config);
       },
       {}},
      {Backend::kSharded,
       [](const BackendConfig& config)
           -> StatusOr<std::unique_ptr<ScoringBackend>> {
         ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
         ShardedServeConfig sharded;
         sharded.num_shards = config.num_shards;
         sharded.num_replicas = config.num_replicas;
         sharded.shard.backend = Backend::kExhaustive;
         sharded.shard.cache_capacity = 0;
         auto service = ShardedRetrievalService::Create(config.items, sharded);
         if (!service.ok()) return service.status();
         return std::unique_ptr<ScoringBackend>(
             new ShardedBackend(std::move(service).value()));
       },
       BackendTraits{/*has_probes=*/false, /*sharded=*/true}},
  }};
}

}  // namespace internal

}  // namespace adamine::serve
