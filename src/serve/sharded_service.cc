#include "serve/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "kernel/topk.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace adamine::serve {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

TimePoint DeadlineOf(const QueryOptions& options) {
  if (options.deadline_ms <= 0.0) return TimePoint::max();
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(options.deadline_ms));
}

double MillisSince(TimePoint start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

Status ShardedServeConfig::Validate() const {
  if (num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (num_replicas <= 0) {
    return Status::InvalidArgument("num_replicas must be positive");
  }
  if (shard.backend != Backend::kExhaustive &&
      shard.backend != Backend::kScalar) {
    return Status::InvalidArgument(
        "sharded serving requires an exact shard backend (scalar or "
        "exhaustive) — the merge re-ranks per-hit scores globally, and an "
        "approximate shard would silently change the answer");
  }
  ADAMINE_RETURN_IF_ERROR(shard.Validate());
  ShardClientConfig client;
  client.shard_timeout_ms = shard_timeout_ms;
  client.hedge_ms = hedge_ms;
  client.retry = retry;
  client.breaker = breaker;
  return client.Validate();
}

std::string ShardedServeStats::ToString() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "requests %lld  queries %lld  full %lld  partial %lld  "
                "failed %lld\n",
                static_cast<long long>(requests),
                static_cast<long long>(queries),
                static_cast<long long>(full_results),
                static_cast<long long>(partial_results),
                static_cast<long long>(failed));
  out += line;
  std::snprintf(line, sizeof(line),
                "retries %lld  hedges %lld fired / %lld won  timeouts %lld  "
                "exhausted %lld  breaker-opens %lld\n",
                static_cast<long long>(retries),
                static_cast<long long>(hedges_fired),
                static_cast<long long>(hedges_won),
                static_cast<long long>(timeouts),
                static_cast<long long>(exhausted),
                static_cast<long long>(breaker_opens));
  out += line;
  out += coverage.ToString();
  out += "\n";
  const auto stage = [&](const char* name, const StageStats& s) {
    std::snprintf(line, sizeof(line),
                  "%-6s count %-7lld mean %8.3f ms  p50 %8.3f ms  "
                  "p95 %8.3f ms  max %8.3f ms\n",
                  name, static_cast<long long>(s.count), s.mean_ms(),
                  s.PercentileMs(50), s.PercentileMs(95), s.max_ms);
    out += line;
  };
  stage("fanout", fanout);
  stage("merge", merge);
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardClientStats& shard = shards[s];
    std::string breakers;
    for (const CircuitBreakerStats& replica : shard.replicas) {
      if (!breakers.empty()) breakers += " ";
      breakers += BreakerStateName(replica.state);
    }
    std::snprintf(line, sizeof(line),
                  "shard %-3zu queries %-7lld retries %-5lld hedges %lld/%lld"
                  "  timeouts %-5lld exhausted %-5lld breakers [%s]\n",
                  s, static_cast<long long>(shard.queries),
                  static_cast<long long>(shard.retries),
                  static_cast<long long>(shard.hedges_fired),
                  static_cast<long long>(shard.hedges_won),
                  static_cast<long long>(shard.timeouts),
                  static_cast<long long>(shard.exhausted), breakers.c_str());
    out += line;
  }
  return out;
}

ShardedRetrievalService::ShardedRetrievalService(
    ShardedServeConfig config, int64_t rows, int64_t dim,
    std::vector<std::unique_ptr<ShardClient>> shards)
    : config_(std::move(config)),
      rows_(rows),
      dim_(dim),
      shards_(std::move(shards)) {}

StatusOr<std::unique_ptr<ShardedRetrievalService>>
ShardedRetrievalService::Create(Tensor items, const ShardedServeConfig& config) {
  ADAMINE_RETURN_IF_ERROR(config.Validate());
  if (items.ndim() != 2) {
    return Status::InvalidArgument("items must be 2-D [N, D]");
  }
  const int64_t rows = items.rows();
  const int64_t dim = items.cols();
  if (config.num_shards > rows) {
    return Status::InvalidArgument(
        "num_shards (" + std::to_string(config.num_shards) +
        ") exceeds the corpus row count (" + std::to_string(rows) + ")");
  }

  // Every replica runs cache-less: the sharded merge path bypasses the LRU
  // cache anyway (QueryBatchScored), so per-replica caches would only burn
  // memory.
  ServeConfig shard_config = config.shard;
  shard_config.cache_capacity = 0;
  shard_config.cache_capacity_bytes = 0;

  ShardClientConfig client_config;
  client_config.shard_timeout_ms = config.shard_timeout_ms;
  client_config.hedge_ms = config.hedge_ms;
  client_config.retry = config.retry;
  client_config.breaker = config.breaker;

  // Balanced contiguous chunks: shard s serves corpus rows
  // [s*N/S, (s+1)*N/S), so shard sizes differ by at most one row and no
  // shard is ever empty for num_shards <= rows (a ceil-based chunk would
  // starve trailing shards, e.g. 10 rows across 7 shards). Local id i on
  // shard s is corpus row s*N/S + i, so per-shard result order equals the
  // global order restricted to the shard.
  std::vector<std::unique_ptr<ShardClient>> shards;
  shards.reserve(static_cast<size_t>(config.num_shards));
  for (int64_t s = 0; s < config.num_shards; ++s) {
    const int64_t r0 = s * rows / config.num_shards;
    const int64_t r1 = (s + 1) * rows / config.num_shards;
    Tensor shard_items = SliceRows(items, r0, r1);
    std::vector<std::shared_ptr<RetrievalService>> replicas;
    replicas.reserve(static_cast<size_t>(config.num_replicas));
    for (int64_t r = 0; r < config.num_replicas; ++r) {
      auto replica = RetrievalService::Create(shard_items, shard_config);
      if (!replica.ok()) return replica.status();
      replicas.push_back(std::move(replica).value());
    }
    shards.push_back(std::make_unique<ShardClient>(s, r0, std::move(replicas),
                                                   client_config));
  }
  return std::unique_ptr<ShardedRetrievalService>(new ShardedRetrievalService(
      config, rows, dim, std::move(shards)));
}

StatusOr<std::unique_ptr<ShardedRetrievalService>>
ShardedRetrievalService::CreateFromTransports(
    std::vector<std::vector<std::shared_ptr<ShardTransport>>> shards,
    int64_t dim, const ShardedServeConfig& config) {
  if (shards.empty()) {
    return Status::InvalidArgument("transport topology has no shards");
  }
  if (dim <= 0) {
    return Status::InvalidArgument("transport topology: dim must be > 0");
  }
  ShardClientConfig client_config;
  client_config.shard_timeout_ms = config.shard_timeout_ms;
  client_config.hedge_ms = config.hedge_ms;
  client_config.retry = config.retry;
  client_config.breaker = config.breaker;
  ADAMINE_RETURN_IF_ERROR(client_config.Validate());

  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.reserve(shards.size());
  int64_t offset = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    std::vector<std::shared_ptr<ShardTransport>>& replicas = shards[s];
    if (replicas.empty()) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " has no replica transports");
    }
    for (const auto& replica : replicas) {
      if (replica == nullptr) {
        return Status::InvalidArgument("shard " + std::to_string(s) +
                                       ": null replica transport");
      }
      if (replica->size() != replicas.front()->size()) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) + ": replica sizes disagree (" +
            replica->description() + " serves " +
            std::to_string(replica->size()) + " rows, expected " +
            std::to_string(replicas.front()->size()) + ")");
      }
    }
    const int64_t size = replicas.front()->size();
    clients.push_back(std::make_unique<ShardClient>(
        static_cast<int64_t>(s), offset, std::move(replicas),
        client_config));
    offset += size;
  }
  ShardedServeConfig resolved = config;
  resolved.num_shards = static_cast<int64_t>(shards.size());
  return std::unique_ptr<ShardedRetrievalService>(new ShardedRetrievalService(
      std::move(resolved), offset, dim, std::move(clients)));
}

StatusOr<ShardedQueryResult> ShardedRetrievalService::QueryBatchWithOptions(
    const Tensor& queries, int64_t k, const QueryOptions& options) {
  ADAMINE_CHECK_EQ(queries.ndim(), 2);
  ADAMINE_CHECK_EQ(queries.cols(), dim_);
  ADAMINE_CHECK_GT(k, 0);
  const int64_t b = queries.rows();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    stats_.queries += b;
  }
  const TimePoint deadline = DeadlineOf(options);
  const int64_t num = num_shards();

  // Scatter: one coordinator thread per shard (each shard client runs its
  // own attempt threads underneath). Slots are pre-sized, so the workers
  // never touch shared containers.
  const TimePoint fanout_start = Clock::now();
  std::vector<Status> failures(static_cast<size_t>(num), Status::Ok());
  std::vector<std::vector<std::vector<ScoredHit>>> shard_hits(
      static_cast<size_t>(num));
  std::vector<char> responded(static_cast<size_t>(num), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num));
  for (int64_t s = 0; s < num; ++s) {
    workers.emplace_back([this, s, &queries, k, deadline, &failures,
                          &shard_hits, &responded] {
      auto got = shards_[static_cast<size_t>(s)]->Query(queries, k, deadline);
      if (got.ok()) {
        shard_hits[static_cast<size_t>(s)] = std::move(got).value();
        responded[static_cast<size_t>(s)] = 1;
      } else {
        failures[static_cast<size_t>(s)] = got.status();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double fanout_ms = MillisSince(fanout_start);

  // A non-transient failure is a caller bug (every shard would fail the
  // same way): propagate the lowest-index one deterministically.
  for (int64_t s = 0; s < num; ++s) {
    const Status& status = failures[static_cast<size_t>(s)];
    if (!status.ok() && !status.IsTransient()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failed;
      return status;
    }
  }

  int64_t covered_rows = 0;
  int64_t first_failed = -1;
  for (int64_t s = 0; s < num; ++s) {
    if (responded[static_cast<size_t>(s)]) {
      covered_rows += shards_[static_cast<size_t>(s)]->size();
    } else if (first_failed < 0) {
      first_failed = s;
    }
  }
  const double coverage =
      rows_ == 0 ? 1.0
                 : static_cast<double>(covered_rows) /
                       static_cast<double>(rows_);
  if (covered_rows == 0) {
    // Nothing responded; there is no answer to degrade to.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
    stats_.fanout.Record(fanout_ms);
    return failures[static_cast<size_t>(first_failed)];
  }
  if (first_failed >= 0 && config_.require_full_coverage) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
    stats_.fanout.Record(fanout_ms);
    return failures[static_cast<size_t>(first_failed)];
  }

  // Gather: per query row, merge the per-shard top-k lists into the global
  // top-k. Every shard scores each (query, item) pair with the unsharded
  // chain, and any corpus-wide top-k item is within its own shard's top-k,
  // so selecting from the union under the unsharded order (score desc,
  // global id asc) reproduces the unsharded answer bit for bit.
  const TimePoint merge_start = Clock::now();
  ShardedQueryResult out;
  out.partial = first_failed >= 0;
  out.coverage = coverage;
  out.results.resize(static_cast<size_t>(b));
  kernel::TopK top(k);
  for (int64_t row = 0; row < b; ++row) {
    for (int64_t s = 0; s < num; ++s) {
      if (!responded[static_cast<size_t>(s)]) continue;
      for (const ScoredHit& hit :
           shard_hits[static_cast<size_t>(s)][static_cast<size_t>(row)]) {
        top.Push(hit.score, hit.index);
      }
    }
    out.results[static_cast<size_t>(row)] = top.Take();
  }
  const double merge_ms = MillisSince(merge_start);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.partial) {
      ++stats_.partial_results;
    } else {
      ++stats_.full_results;
    }
    stats_.coverage.Record(coverage);
    stats_.fanout.Record(fanout_ms);
    stats_.merge.Record(merge_ms);
  }
  return out;
}

StatusOr<ShardedQueryResult> ShardedRetrievalService::QueryBatch(
    const Tensor& queries, int64_t k) {
  return QueryBatchWithOptions(queries, k, QueryOptions{});
}

StatusOr<ShardedQueryResult> ShardedRetrievalService::Query(
    const Tensor& query, int64_t k) {
  ADAMINE_CHECK_EQ(query.numel(), dim_);
  Tensor batch({1, dim_});
  std::copy(query.data(), query.data() + dim_, batch.data());
  return QueryBatchWithOptions(batch, k, QueryOptions{});
}

ShardedServeStats ShardedRetrievalService::Snapshot() const {
  ShardedServeStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  // Per-shard counters are pulled fresh from the clients (they synchronise
  // themselves), then rolled up into the fleet-wide sums.
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardClientStats stats = shard->Snapshot();
    out.retries += stats.retries;
    out.hedges_fired += stats.hedges_fired;
    out.hedges_won += stats.hedges_won;
    out.timeouts += stats.timeouts;
    out.exhausted += stats.exhausted;
    for (const CircuitBreakerStats& replica : stats.replicas) {
      out.breaker_opens += replica.opens;
    }
    out.shards.push_back(std::move(stats));
  }
  return out;
}

void ShardedRetrievalService::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = ShardedServeStats{};
  }
  for (const auto& shard : shards_) shard->ResetStats();
}

}  // namespace adamine::serve
