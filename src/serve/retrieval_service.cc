#include "serve/retrieval_service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "io/serialize.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace adamine::serve {

Status ServeConfig::Validate() const {
  auto traits = TraitsOfBackend(backend);
  if (!traits.ok()) return traits.status();
  if (traits->sharded) {
    return Status::InvalidArgument(
        "backend '" + backend +
        "' is sharded, a topology of services that no RetrievalService can "
        "host (use ShardedRetrievalService)");
  }
  ADAMINE_RETURN_IF_ERROR(BackendOptions::Validate());
  if (micro_batch <= 0) {
    return Status::InvalidArgument("micro_batch must be positive");
  }
  if (cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (cache_capacity_bytes < 0) {
    return Status::InvalidArgument("cache_capacity_bytes must be >= 0");
  }
  if (max_inflight < 0 || max_queue < 0) {
    return Status::InvalidArgument("max_inflight/max_queue must be >= 0");
  }
  if (max_inflight == 0 && max_queue > 0) {
    return Status::InvalidArgument(
        "max_queue requires admission control (max_inflight > 0)");
  }
  ADAMINE_RETURN_IF_ERROR(degradation.Validate());
  if (traits->has_probes && degradation.target_ms > 0.0 &&
      degradation.min_probes > ivf.num_probes) {
    return Status::InvalidArgument(
        "degradation.min_probes must not exceed ivf.num_probes");
  }
  return Status::Ok();
}

namespace {

/// Largest deviation of a row's L2 norm from 1 the service accepts.
constexpr double kNormTolerance = 1e-3;

/// Rows whose squares one pass sums side by side in ValidateItems.
constexpr int64_t kValidateGroup = 8;

/// Audits rows [begin, end) one at a time, each in one ascending chain:
/// the first non-finite value, else the first row off unit norm.
Status ValidateRows(const float* data, int64_t d, int64_t begin,
                    int64_t end) {
  for (int64_t i = begin; i < end; ++i) {
    double norm_sq = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const float v = data[i * d + j];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "item row " + std::to_string(i) + " has a non-finite value at "
            "column " + std::to_string(j) + " (corrupt embeddings?)");
      }
      norm_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    const double norm = std::sqrt(norm_sq);
    if (std::abs(norm - 1.0) > kNormTolerance) {
      return Status::InvalidArgument(
          "item row " + std::to_string(i) + " has L2 norm " +
          std::to_string(norm) +
          "; the service expects unit rows (within 1e-3)");
    }
  }
  return Status::Ok();
}

/// The up-front embedding audit behind Create/Load: a corrupt or truncated
/// bundle must surface as a descriptive Status here, never as a CHECK
/// crash or silently wrong similarities later. Rows go in groups of
/// kValidateGroup, whose sums of squares run as independent chains, each
/// still in ascending j, so every norm has ValidateRows's bits. A
/// non-finite value makes its row's sum inf or NaN, which fails the norm
/// test too, so a group that passes holds no fault, and a group that fails
/// is walked again by ValidateRows for the same first row, column and
/// message.
Status ValidateItems(const Tensor& items) {
  if (items.ndim() != 2) {
    return Status::InvalidArgument("items must be 2-D [N, D]");
  }
  const int64_t n = items.rows();
  const int64_t d = items.cols();
  if (d <= 0) {
    return Status::InvalidArgument("items have dimension " +
                                   std::to_string(d) + "; need dim > 0");
  }
  const float* data = items.data();
  int64_t i = 0;
  for (; i + kValidateGroup <= n; i += kValidateGroup) {
    const float* rows = data + i * d;
    double norm_sq[kValidateGroup] = {};
    for (int64_t j = 0; j < d; ++j) {
      for (int64_t r = 0; r < kValidateGroup; ++r) {
        const double v = rows[r * d + j];
        norm_sq[r] += v * v;
      }
    }
    bool unit = true;
    for (int64_t r = 0; r < kValidateGroup; ++r) {
      unit &= std::abs(std::sqrt(norm_sq[r]) - 1.0) <= kNormTolerance;
    }
    if (!unit) {
      ADAMINE_RETURN_IF_ERROR(ValidateRows(data, d, i, i + kValidateGroup));
    }
  }
  return ValidateRows(data, d, i, n);
}

}  // namespace

RetrievalService::RetrievalService(Tensor items, const ServeConfig& config)
    : config_(config), items_(std::move(items)) {
  admission_ = std::make_unique<AdmissionController>(config_.max_inflight,
                                                     config_.max_queue);
}

StatusOr<std::unique_ptr<RetrievalService>> RetrievalService::Create(
    Tensor items, const ServeConfig& config) {
  ADAMINE_RETURN_IF_ERROR(config.Validate());
  ADAMINE_RETURN_IF_ERROR(ValidateItems(items));
  std::unique_ptr<RetrievalService> service(
      new RetrievalService(std::move(items), config));
  BackendConfig backend_config;
  static_cast<BackendOptions&>(backend_config) = config;
  // Tensor copies alias the buffer, so the backend shares the item rows.
  backend_config.items = service->items_;
  auto backend = CreateBackend(config.backend, backend_config);
  if (!backend.ok()) return backend.status();
  service->backend_ = std::move(backend.value());
  if (service->backend_->has_probes() && config.degradation.target_ms > 0.0) {
    service->degradation_ = std::make_unique<DegradationController>(
        config.degradation, service->backend_->probes());
  }
  return service;
}

StatusOr<std::unique_ptr<RetrievalService>> RetrievalService::Load(
    const std::string& path, const std::string& name,
    const ServeConfig& config) {
  auto bundle = io::LoadTensorBundle(path);
  if (!bundle.ok()) return bundle.status();
  for (auto& entry : bundle.value()) {
    if (entry.name == name) {
      return Create(std::move(entry.tensor), config);
    }
  }
  return Status::NotFound("no tensor named '" + name + "' in " + path);
}

StatusOr<int64_t> RetrievalService::Add(const Tensor& row) {
  if (!row.defined() || row.numel() != dim()) {
    return Status::InvalidArgument(
        "row must hold exactly dim = " + std::to_string(dim()) + " values");
  }
  // The same audit Create applies to the seed items: a non-finite or
  // un-normalised row must never enter the live corpus.
  Tensor audited({1, dim()});
  std::copy(row.data(), row.data() + dim(), audited.data());
  ADAMINE_RETURN_IF_ERROR(ValidateItems(audited));
  // The backend bumps its epoch on success, which re-keys the cache — no
  // explicit invalidation needed (see CacheKey).
  return backend_->Add(audited);
}

Status RetrievalService::Delete(int64_t id) { return backend_->Delete(id); }

Status RetrievalService::SetProbes(int64_t probes) {
  // The backend owns the dial (and its validation/rejection message); the
  // service only re-anchors the degradation controller on success.
  ADAMINE_RETURN_IF_ERROR(backend_->SetProbes(probes));
  std::lock_guard<std::mutex> lock(mu_);
  if (degradation_) degradation_->OnManualSetProbes(probes);
  return Status::Ok();
}

int64_t RetrievalService::probes() const { return backend_->probes(); }

HealthState RetrievalService::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degradation_ ? degradation_->health() : HealthState::kHealthy;
}

RetrievalService::TimePoint RetrievalService::DeadlineOf(
    const QueryOptions& options) {
  if (options.deadline_ms <= 0.0) return TimePoint::max();
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(
             static_cast<int64_t>(options.deadline_ms * 1000.0));
}

std::string RetrievalService::CacheKey(const float* query, int64_t k,
                                       int64_t probes) const {
  // Exact-match key: the raw query bytes plus everything that selects the
  // result — k, the probe dial, and the backend's mutation epoch. Keying
  // by the epoch is the invalidation mechanism for live mutation: an Add /
  // Delete bumps it, every pre-mutation entry becomes unreachable (and
  // ages out through the LRU), and the same query re-scored observes the
  // new row set. Immutable backends report a constant epoch, so their keys
  // are unchanged.
  const int64_t epoch = backend_->epoch();
  const size_t query_bytes = sizeof(float) * static_cast<size_t>(dim());
  std::string key;
  key.resize(query_bytes + 3 * sizeof(int64_t));
  std::memcpy(key.data(), query, query_bytes);
  std::memcpy(key.data() + query_bytes, &k, sizeof(k));
  std::memcpy(key.data() + query_bytes + sizeof(k), &probes, sizeof(probes));
  std::memcpy(key.data() + query_bytes + sizeof(k) + sizeof(probes), &epoch,
              sizeof(epoch));
  return key;
}

bool RetrievalService::CacheLookup(const std::string& key,
                                   std::vector<int64_t>* result) {
  if (config_.cache_capacity == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_map_.find(key);
  if (it == cache_map_.end()) {
    ++stats_.cache_misses;
    return false;
  }
  ++stats_.cache_hits;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  *result = it->second->second;
  return true;
}

namespace {

int64_t CacheEntryBytes(const std::string& key,
                        const std::vector<int64_t>& result) {
  return static_cast<int64_t>(key.size()) +
         static_cast<int64_t>(result.size() * sizeof(int64_t));
}

/// Strips per-hit scores for the ids-only serving APIs and the LRU cache.
std::vector<int64_t> IdsOf(const std::vector<ScoredHit>& hits) {
  std::vector<int64_t> ids;
  ids.reserve(hits.size());
  for (const ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

}  // namespace

void RetrievalService::CacheInsert(const std::string& key,
                                   const std::vector<int64_t>& result) {
  if (config_.cache_capacity == 0) return;
  const int64_t entry_bytes = CacheEntryBytes(key, result);
  if (config_.cache_capacity_bytes > 0 &&
      entry_bytes > config_.cache_capacity_bytes) {
    // The entry alone overflows the byte budget; inserting it would only
    // evict everything else and then itself. Serve it uncached.
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    // A concurrent miss on the same query raced us here; refresh recency.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(key, result);
  cache_map_[key] = cache_lru_.begin();
  cache_bytes_ += entry_bytes;
  // Evict by whichever limit binds first: entry count or byte footprint.
  while (static_cast<int64_t>(cache_lru_.size()) > config_.cache_capacity ||
         (config_.cache_capacity_bytes > 0 &&
          cache_bytes_ > config_.cache_capacity_bytes)) {
    const auto& victim = cache_lru_.back();
    cache_bytes_ -= CacheEntryBytes(victim.first, victim.second);
    cache_map_.erase(victim.first);
    cache_lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

Status RetrievalService::DeadlineMiss(const char* where) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_misses;
  }
  return Status::DeadlineExceeded(std::string("deadline exceeded ") + where);
}

StatusOr<std::vector<std::vector<ScoredHit>>>
RetrievalService::ScoreMicroBatch(const Tensor& queries, int64_t k,
                                  int64_t probes, TimePoint deadline) {
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  // Re-check after acquiring the executor: a request that waited out its
  // budget in line behind slow batches must fail before burning a GEMM.
  if (std::chrono::steady_clock::now() >= deadline) {
    return DeadlineMiss("waiting for the scoring executor");
  }
  // Armed serve.score.delay simulates slow scoring (cold pages, CPU
  // contention): the skip field carries the delay in milliseconds and the
  // stall counts towards the score stage, so it drives the degradation
  // controller exactly like a real slowdown.
  double stall_ms = 0.0;
  const int64_t delay_ms = fault::ArmedSkip(fault::kServeScoreDelay);
  if (delay_ms >= 0) {
    Stopwatch stall;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    stall_ms = stall.ElapsedMillis();
  }
  // Qualified: the QueryBatch member function shadows the struct in here.
  serve::QueryBatch batch{queries};
  QueryOptions score_options;
  score_options.probes = probes;
  auto result = backend_->ScoreTopK(batch, k, score_options);
  if (!result.ok()) return result.status();
  const double score_ms = stall_ms + result->score_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.score.Record(score_ms);
    if (result->rank_ms >= 0.0) stats_.rank.Record(result->rank_ms);
    if (degradation_) {
      // The controller only moves the dial it owns: a manual SetProbes
      // between this batch's dispatch and now is re-anchored, not undone
      // (OnManualSetProbes resets the window).
      const DegradationDecision decision = degradation_->Observe(score_ms);
      if (decision.changed) {
        // The controller moves within (0, the seed probes], which every
        // probed backend accepts.
        const Status dialed = backend_->SetProbes(decision.probes);
        ADAMINE_CHECK_MSG(dialed.ok(), dialed.ToString());
      }
    }
  }
  return std::move(result->hits);
}

StatusOr<std::vector<std::vector<ScoredHit>>>
RetrievalService::QueryBatchScored(const Tensor& queries, int64_t k,
                                   const QueryOptions& options) {
  ADAMINE_CHECK_EQ(queries.ndim(), 2);
  ADAMINE_CHECK_EQ(queries.cols(), dim());
  ADAMINE_CHECK_GT(k, 0);
  const TimePoint deadline = DeadlineOf(options);
  const int64_t b = queries.rows();
  const int64_t d = dim();
  const int64_t current_probes =
      options.probes > 0 ? options.probes : probes();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries += b;
  }
  AdmissionTicket ticket(*admission_, deadline);
  ADAMINE_RETURN_IF_ERROR(ticket.status());
  std::vector<std::vector<ScoredHit>> results;
  results.reserve(static_cast<size_t>(b));
  for (int64_t start = 0; start < b; start += config_.micro_batch) {
    const int64_t end = std::min(b, start + config_.micro_batch);
    if (start > 0 && std::chrono::steady_clock::now() >= deadline) {
      return DeadlineMiss("between micro-batches");
    }
    Tensor micro({end - start, d});
    std::copy(queries.data() + start * d, queries.data() + end * d,
              micro.data());
    auto scored = ScoreMicroBatch(micro, k, current_probes, deadline);
    if (!scored.ok()) return scored.status();
    for (auto& row : scored.value()) results.push_back(std::move(row));
  }
  return results;
}

StatusOr<std::vector<int64_t>> RetrievalService::QueryWithOptions(
    const Tensor& query, int64_t k, const QueryOptions& options) {
  ADAMINE_CHECK_EQ(query.numel(), dim());
  auto results =
      QueryBatchWithOptions(query.Reshape({1, dim()}), k, options);
  if (!results.ok()) return results.status();
  return std::move(results.value()[0]);
}

StatusOr<std::vector<std::vector<int64_t>>>
RetrievalService::QueryBatchWithOptions(const Tensor& queries, int64_t k,
                                        const QueryOptions& options) {
  ADAMINE_CHECK_EQ(queries.ndim(), 2);
  ADAMINE_CHECK_EQ(queries.cols(), dim());
  ADAMINE_CHECK_GT(k, 0);
  const TimePoint deadline = DeadlineOf(options);
  const int64_t b = queries.rows();
  const int64_t d = dim();
  // The effective probe count — a per-request override when set, else the
  // dial — selects the result, so it must drive both the scoring and the
  // cache key. Keying by the dial alone while an override was in force
  // would file override-scored results under the dial's namespace (and
  // vice versa), serving stale mixes after the next SetProbes.
  const int64_t current_probes =
      options.probes > 0 ? options.probes : probes();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries += b;
  }
  // One admission slot covers the whole request; it is taken lazily at the
  // first micro-batch that actually needs scoring, so cache-only requests
  // never contend for a slot.
  std::unique_ptr<AdmissionTicket> ticket;
  std::vector<std::vector<int64_t>> results(static_cast<size_t>(b));
  for (int64_t start = 0; start < b; start += config_.micro_batch) {
    const int64_t end = std::min(b, start + config_.micro_batch);
    // Answer what the cache can; collect the misses for one shared GEMM.
    std::vector<int64_t> miss_rows;
    std::vector<std::string> miss_keys;
    for (int64_t i = start; i < end; ++i) {
      std::string key =
          CacheKey(queries.data() + i * d, k, current_probes);
      if (CacheLookup(key, &results[static_cast<size_t>(i)])) continue;
      miss_rows.push_back(i);
      miss_keys.push_back(std::move(key));
    }
    if (miss_rows.empty()) continue;
    if (!ticket) {
      ticket = std::make_unique<AdmissionTicket>(*admission_, deadline);
      ADAMINE_RETURN_IF_ERROR(ticket->status());
    }
    // A deadline check before every micro-batch is scored, so one slow
    // batch cannot hold the rest of the request's budget hostage.
    if (std::chrono::steady_clock::now() >= deadline) {
      return DeadlineMiss("before scoring a micro-batch");
    }
    Tensor micro({static_cast<int64_t>(miss_rows.size()), d});
    for (size_t r = 0; r < miss_rows.size(); ++r) {
      const float* src = queries.data() + miss_rows[r] * d;
      std::copy(src, src + d, micro.data() + static_cast<int64_t>(r) * d);
    }
    auto scored = ScoreMicroBatch(micro, k, current_probes, deadline);
    if (!scored.ok()) return scored.status();
    for (size_t r = 0; r < miss_rows.size(); ++r) {
      std::vector<int64_t> ids = IdsOf(scored.value()[r]);
      CacheInsert(miss_keys[r], ids);
      results[static_cast<size_t>(miss_rows[r])] = std::move(ids);
    }
  }
  return results;
}

std::vector<int64_t> RetrievalService::Query(const Tensor& query, int64_t k) {
  auto result = QueryWithOptions(query, k, QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result.value());
}

std::vector<std::vector<int64_t>> RetrievalService::QueryBatch(
    const Tensor& queries, int64_t k) {
  auto result = QueryBatchWithOptions(queries, k, QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result.value());
}

void RetrievalService::RecordEmbedMillis(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.embed.Record(ms);
}

ServeStats RetrievalService::Snapshot() const {
  // The admission controller and the backend's probe dial / pressure
  // gauges keep their own synchronisation; read them before taking mu_ so
  // locks never nest.
  const AdmissionStats admission = admission_->Snapshot();
  const int64_t current_probes = backend_->probes();
  const MutationPressure pressure = backend_->pressure();
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats = stats_;
  stats.admitted = admission.admitted;
  stats.shed = admission.shed;
  stats.queue_timeouts = admission.queue_timeouts;
  stats.inflight_peak = admission.inflight_peak;
  stats.queue_peak = admission.queue_peak;
  stats.cache_bytes = cache_bytes_;
  stats.probes = current_probes;
  stats.mutation = pressure;
  if (degradation_) {
    stats.health = degradation_->health();
    stats.probe_dial_downs = degradation_->dial_downs() - dial_downs_base_;
    stats.probe_dial_ups = degradation_->dial_ups() - dial_ups_base_;
  }
  // A quarantined segment (or the read-only latch) means the corpus is
  // serving but impaired: rows are gone until re-ingested, mutations may
  // be refused. Surface that as degraded health even without a
  // degradation controller, so operators see it where they already look.
  if ((pressure.quarantined_segments > 0 || pressure.read_only) &&
      stats.health == HealthState::kHealthy) {
    stats.health = HealthState::kDegraded;
  }
  return stats;
}

void RetrievalService::ResetStats() {
  admission_->ResetStats();
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = ServeStats();
  if (degradation_) {
    dial_downs_base_ = degradation_->dial_downs();
    dial_ups_base_ = degradation_->dial_ups();
  }
}

}  // namespace adamine::serve
