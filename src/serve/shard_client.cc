#include "serve/shard_client.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "util/backoff.h"
#include "util/check.h"
#include "util/fault.h"

namespace adamine::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr ShardClient::TimePoint kNever = ShardClient::TimePoint::max();

/// `t + ms`, saturating: the "no deadline" sentinel stays at infinity
/// instead of wrapping around.
ShardClient::TimePoint AddMs(ShardClient::TimePoint t, double ms) {
  if (t == kNever) return kNever;
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Delivers one attempt's final verdict to its replica's breaker. Success
/// and transient failure are health signals; a non-transient error says
/// nothing about the replica, so it only frees a half-open probe slot the
/// attempt may have been holding.
void ReportOutcome(CircuitBreaker* breaker, const Status& status,
                   bool probe) {
  if (status.ok()) {
    breaker->OnSuccess();
  } else if (status.IsTransient()) {
    breaker->OnFailure(Clock::now());
  } else if (probe) {
    breaker->ReleaseProbe();
  }
}

}  // namespace

Status RetryPolicy::Validate() const {
  if (retry_max < 0) {
    return Status::InvalidArgument("retry_max must be >= 0");
  }
  if (backoff_base_ms < 0.0) {
    return Status::InvalidArgument("backoff_base_ms must be >= 0");
  }
  if (backoff_max_ms < backoff_base_ms) {
    return Status::InvalidArgument("backoff_max_ms must be >= backoff_base_ms");
  }
  return Status::Ok();
}

double RetryPolicy::BackoffMs(int64_t retry, uint64_t salt) const {
  // The shared capped-jittered-backoff helper; the formula (and its bits)
  // are pinned by RetryPolicyTest, so the refactor onto util/backoff.h must
  // be value-preserving.
  return backoff::JitteredBackoffMs(retry, backoff_base_ms, backoff_max_ms,
                                    jitter_seed, salt);
}

Status ShardClientConfig::Validate() const {
  if (shard_timeout_ms < 0.0) {
    return Status::InvalidArgument("shard_timeout_ms must be >= 0");
  }
  if (hedge_ms < 0.0) {
    return Status::InvalidArgument("hedge_ms must be >= 0");
  }
  ADAMINE_RETURN_IF_ERROR(retry.Validate());
  return breaker.Validate();
}

namespace {

std::vector<std::shared_ptr<ShardTransport>> WrapInProcess(
    std::vector<std::shared_ptr<RetrievalService>> services) {
  std::vector<std::shared_ptr<ShardTransport>> transports;
  transports.reserve(services.size());
  for (auto& service : services) {
    ADAMINE_CHECK_MSG(service != nullptr, "null replica service");
    transports.push_back(
        std::make_shared<InProcessShardTransport>(std::move(service)));
  }
  return transports;
}

}  // namespace

ShardClient::ShardClient(int64_t shard_index, int64_t global_offset,
                         std::vector<std::shared_ptr<ShardTransport>>
                             replicas,
                         const ShardClientConfig& config)
    : shard_index_(shard_index),
      global_offset_(global_offset),
      size_(replicas.empty() ? 0 : replicas.front()->size()),
      config_(config),
      replicas_(std::move(replicas)) {
  ADAMINE_CHECK_MSG(!replicas_.empty(), "shard needs at least one replica");
  for (const auto& replica : replicas_) {
    ADAMINE_CHECK_MSG(replica != nullptr, "null replica transport");
    ADAMINE_CHECK_MSG(replica->size() == size_,
                      "replicas of one shard must serve the same rows");
    breakers_.push_back(std::make_unique<CircuitBreaker>(config_.breaker));
  }
}

ShardClient::ShardClient(int64_t shard_index, int64_t global_offset,
                         std::vector<std::shared_ptr<RetrievalService>>
                             replicas,
                         const ShardClientConfig& config)
    : ShardClient(shard_index, global_offset,
                  WrapInProcess(std::move(replicas)), config) {}

ShardClient::~ShardClient() {
  std::lock_guard<std::mutex> lock(reaper_mu_);
  for (ReaperEntry& entry : outstanding_) {
    if (entry.thread.joinable()) entry.thread.join();
  }
  outstanding_.clear();
}

void ShardClient::Reap() {
  std::lock_guard<std::mutex> lock(reaper_mu_);
  auto it = outstanding_.begin();
  while (it != outstanding_.end()) {
    if (it->finished->load(std::memory_order_acquire)) {
      it->thread.join();
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t ShardClient::NextAllowedReplica(int64_t* cursor, TimePoint now,
                                        bool* probe) {
  const int64_t n = num_replicas();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t replica = (*cursor + i) % n;
    if (breakers_[static_cast<size_t>(replica)]->Allow(now, probe)) {
      *cursor = replica + 1;
      return replica;
    }
  }
  return -1;
}

std::shared_ptr<ShardClient::Attempt> ShardClient::Launch(
    const std::shared_ptr<QueryState>& state, int64_t replica, bool hedge,
    bool probe, const Tensor& queries, int64_t k,
    TimePoint attempt_deadline) {
  auto attempt = std::make_shared<Attempt>();
  attempt->replica = replica;
  attempt->hedge = hedge;
  attempt->probe = probe;
  auto finished = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<ShardTransport> transport =
      replicas_[static_cast<size_t>(replica)];
  CircuitBreaker* breaker = breakers_[static_cast<size_t>(replica)].get();
  const int64_t shard = shard_index_;
  const int64_t offset = global_offset_;
  // `queries` is copied by value: Tensor copies share the underlying buffer,
  // so the attempt keeps the data alive without duplicating it. `breaker`
  // is a raw pointer into breakers_, which outlives the worker: the
  // destructor joins every attempt thread before the breakers die.
  std::thread worker([state, attempt, finished, transport, breaker, queries,
                      k, attempt_deadline, shard, replica, offset] {
    Status status;
    std::vector<std::vector<ScoredHit>> results;
    // Replica-scoped fault points first, then the fleet-wide bare points
    // (short-circuit: a scoped kill does not consume the bare schedule).
    // The scoped names are built only while some point is armed.
    const bool armed = fault::AnyArmed();
    if (armed && (fault::ShouldFail(fault::ShardReplicaPoint(
                      fault::kServeShardFail, shard, replica)) ||
                  fault::ShouldFail(fault::kServeShardFail))) {
      status = Status::Unavailable("injected fault " +
                                   std::string(fault::kServeShardFail) +
                                   " at shard " + std::to_string(shard) +
                                   " replica " + std::to_string(replica));
    } else {
      int64_t stall_ms = -1;
      if (armed) {
        stall_ms = fault::ArmedSkip(
            fault::ShardReplicaPoint(fault::kServeShardDelay, shard, replica));
        if (stall_ms < 0) stall_ms = fault::ArmedSkip(fault::kServeShardDelay);
      }
      if (stall_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
      // The transport enforces whatever budget is left *after* any injected
      // network stall (an in-process replica converts it to QueryOptions; a
      // remote one sends it on the wire), so a wedged hop and a slow
      // replica look the same to the coordinator.
      auto got = transport->QueryScored(queries, k, attempt_deadline);
      if (got.ok()) {
        results = std::move(got).value();
        for (std::vector<ScoredHit>& row : results) {
          for (ScoredHit& hit : row) hit.index += offset;
        }
      } else {
        status = got.status();
      }
    }
    bool report = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      attempt->status = std::move(status);
      attempt->results = std::move(results);
      attempt->completed = true;
      if (attempt->abandoned) {
        // The coordinator returned before this attempt landed (hedge
        // loser, early failure, deadline): nobody will consume the
        // outcome, so deliver the breaker verdict from here — otherwise a
        // held half-open probe slot would stay occupied forever.
        if (!attempt->resolved) {
          attempt->resolved = true;
          report = true;
        }
      } else {
        state->done.push_back(attempt);
      }
    }
    state->cv.notify_all();
    if (report) ReportOutcome(breaker, attempt->status, attempt->probe);
    finished->store(true, std::memory_order_release);
  });
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    ReaperEntry entry;
    entry.thread = std::move(worker);
    entry.finished = std::move(finished);
    outstanding_.push_back(std::move(entry));
  }
  return attempt;
}

StatusOr<std::vector<std::vector<ScoredHit>>> ShardClient::Query(
    const Tensor& queries, int64_t k, TimePoint deadline) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  Reap();

  auto state = std::make_shared<QueryState>();
  std::vector<std::shared_ptr<Attempt>> inflight;
  auto result = QueryRounds(queries, k, deadline, state, &inflight);
  // Whatever path the round loop took out, every attempt it left behind —
  // a hedge loser on the success path, anything in flight on an early
  // return, a straggler that landed after the last pop — still owes its
  // breaker a verdict.
  AbandonOutstanding(state, inflight);
  return result;
}

void ShardClient::AbandonOutstanding(
    const std::shared_ptr<QueryState>& state,
    const std::vector<std::shared_ptr<Attempt>>& inflight) {
  std::vector<std::shared_ptr<Attempt>> landed;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (const std::shared_ptr<Attempt>& attempt : inflight) {
      if (attempt->resolved) continue;
      if (attempt->completed) {
        attempt->resolved = true;
        landed.push_back(attempt);
      } else {
        attempt->abandoned = true;  // The worker reports when it finishes.
      }
    }
  }
  for (const std::shared_ptr<Attempt>& attempt : landed) {
    ReportOutcome(breakers_[static_cast<size_t>(attempt->replica)].get(),
                  attempt->status, attempt->probe);
  }
}

StatusOr<std::vector<std::vector<ScoredHit>>> ShardClient::QueryRounds(
    const Tensor& queries, int64_t k, TimePoint deadline,
    const std::shared_ptr<QueryState>& state,
    std::vector<std::shared_ptr<Attempt>>* inflight) {
  int64_t cursor = 0;  // Replica rotation; deterministic from replica 0.
  // Per-attempt budget: whatever is left of the request deadline, tightened
  // by shard_timeout_ms when configured.
  const auto attempt_deadline = [this, deadline](TimePoint now) {
    if (config_.shard_timeout_ms <= 0.0) return deadline;
    return std::min(deadline, AddMs(now, config_.shard_timeout_ms));
  };
  Status last_error = Status::Unavailable(
      "shard " + std::to_string(shard_index_) +
      ": every replica circuit breaker is open");

  // Charges every attempt still in flight to its replica's breaker, exactly
  // once (the resolved flag survives into a straggler's completion).
  const auto penalise_inflight = [&](TimePoint now) {
    std::vector<std::shared_ptr<Attempt>> charged;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      for (const std::shared_ptr<Attempt>& attempt : *inflight) {
        if (!attempt->completed && !attempt->resolved) {
          attempt->resolved = true;
          charged.push_back(attempt);
        }
      }
    }
    for (const std::shared_ptr<Attempt>& attempt : charged) {
      breakers_[static_cast<size_t>(attempt->replica)]->OnFailure(now);
    }
  };

  for (int64_t round = 0; round <= config_.retry.retry_max; ++round) {
    if (round > 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retries;
      }
      // Back off before retrying, bounded by the request deadline. A
      // straggler from an earlier round completing during the backoff wakes
      // the wait — its result is consumed below instead of going to waste.
      const double backoff_ms = config_.retry.BackoffMs(
          round - 1, static_cast<uint64_t>(shard_index_));
      const TimePoint wake = std::min(deadline, AddMs(Clock::now(),
                                                      backoff_ms));
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait_until(lock, wake,
                           [&state] { return !state->done.empty(); });
    }
    const TimePoint round_start = Clock::now();
    if (round_start >= deadline) {
      penalise_inflight(round_start);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.exhausted;
      return Status::DeadlineExceeded(
          "shard " + std::to_string(shard_index_) +
          ": request deadline expired during failover");
    }

    // Launch this round's primary attempt — unless an earlier attempt
    // already delivered an outcome (consume it first) or every breaker is
    // open (ride on whatever is still in flight).
    bool pending;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      pending = !state->done.empty();
    }
    if (!pending) {
      bool probe = false;
      const int64_t primary = NextAllowedReplica(&cursor, round_start, &probe);
      if (primary >= 0) {
        inflight->push_back(Launch(state, primary, /*hedge=*/false, probe,
                                   queries, k,
                                   attempt_deadline(round_start)));
      } else if (inflight->empty()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.exhausted;
        return last_error;
      }
    }

    TimePoint round_deadline = deadline;
    if (config_.shard_timeout_ms > 0.0) {
      round_deadline = std::min(deadline,
                                AddMs(round_start, config_.shard_timeout_ms));
    }
    TimePoint hedge_at = kNever;
    if (config_.hedge_ms > 0.0 && num_replicas() > 1) {
      hedge_at = AddMs(round_start, config_.hedge_ms);
    }
    bool hedged = false;

    // Consume attempt outcomes until the round succeeds, fails, or times
    // out; fire the hedge when the primary is slow.
    bool round_over = false;
    while (!round_over) {
      std::shared_ptr<Attempt> outcome;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        const TimePoint wake =
            std::min(round_deadline, hedged ? kNever : hedge_at);
        const auto landed = [&state] { return !state->done.empty(); };
        if (wake == kNever) {
          // wait_until with time_point::max can overflow the clock
          // conversion on some standard libraries and busy-spin; an
          // unbounded wait is what is meant anyway (an attempt is always
          // in flight here, so a completion will wake us).
          state->cv.wait(lock, landed);
        } else {
          state->cv.wait_until(lock, wake, landed);
        }
        if (!state->done.empty()) {
          outcome = state->done.front();
          state->done.erase(state->done.begin());
        }
      }
      if (outcome != nullptr) {
        inflight->erase(std::remove(inflight->begin(), inflight->end(),
                                    outcome),
                        inflight->end());
        if (outcome->status.ok()) {
          if (!outcome->resolved) {
            outcome->resolved = true;
            breakers_[static_cast<size_t>(outcome->replica)]->OnSuccess();
          }
          if (outcome->hedge) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.hedges_won;
          }
          return std::move(outcome->results);
        }
        if (!outcome->status.IsTransient()) {
          // A corrupt query is corrupt on every replica: fail fast, no
          // breaker feedback (the replica did nothing wrong) — but a held
          // half-open probe slot must still be freed.
          if (!outcome->resolved) {
            outcome->resolved = true;
            if (outcome->probe) {
              breakers_[static_cast<size_t>(outcome->replica)]
                  ->ReleaseProbe();
            }
          }
          return outcome->status;
        }
        if (!outcome->resolved) {
          outcome->resolved = true;
          breakers_[static_cast<size_t>(outcome->replica)]->OnFailure(
              Clock::now());
        }
        last_error = outcome->status;
        if (inflight->empty()) round_over = true;  // Next round (retry).
        continue;
      }
      const TimePoint now = Clock::now();
      if (now >= round_deadline) {
        penalise_inflight(now);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.timeouts;
        }
        if (now >= deadline) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.exhausted;
          return Status::DeadlineExceeded(
              "shard " + std::to_string(shard_index_) +
              ": request deadline expired waiting on replicas");
        }
        last_error = Status::DeadlineExceeded(
            "shard " + std::to_string(shard_index_) +
            ": no replica answered within shard_timeout_ms");
        round_over = true;
        continue;
      }
      if (!hedged && now >= hedge_at) {
        hedged = true;
        bool probe = false;
        const int64_t backup = NextAllowedReplica(&cursor, now, &probe);
        if (backup >= 0) {
          inflight->push_back(Launch(state, backup, /*hedge=*/true, probe,
                                     queries, k, attempt_deadline(now)));
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.hedges_fired;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.exhausted;
  }
  return last_error;
}

ShardClientStats ShardClient::Snapshot() const {
  ShardClientStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.replicas.reserve(breakers_.size());
  for (const auto& breaker : breakers_) {
    out.replicas.push_back(breaker->Snapshot());
  }
  return out;
}

void ShardClient::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = ShardClientStats{};
}

}  // namespace adamine::serve
