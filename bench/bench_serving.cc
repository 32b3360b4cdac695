// Serving bench: the batched retrieval service against the per-query
// scalar loops, swept over micro-batch size x probe count x kernel thread
// count. Reports QPS, per-query latency and recall@10, and verifies the
// serving contract: results are bit-identical to the scalar reference
// paths at every thread count (see DESIGN.md, "Serving").
//
// With --overload the bench instead sweeps offered load (client threads)
// against a deliberately under-provisioned service (admission queue of
// depth 4, 2 slots, an armed serve.score.delay stall emulating expensive
// scoring) and reports shed rate, deadline-miss rate and the adaptive
// probe dial's trace per level, writing the rows to
// BENCH_serving_overload.json (see DESIGN.md, "Overload behavior").
//
// With --rpc the bench drives a real TCP topology — shard servers behind
// the wire protocol, dialled through ConnectShardedService — with an
// open-loop Poisson arrival process (arrivals are scheduled up front from
// a seeded exponential stream, so a slow server cannot slow the offered
// load down: latency includes any time a request waited past its
// scheduled arrival, the coordinated-omission-safe measurement). Sweeps
// offered QPS healthy and with one shard server terminated mid-fleet,
// and writes p50/p95/p99 rows to BENCH_serving_rpc.json (see DESIGN.md,
// "Network serving").
//
// With --quant the bench sweeps the int8 two-stage backend against the
// float exhaustive scan (memory footprint x QPS x recall across
// rerank_factor), gates on full bit-identity plus the >= 3x scan-memory
// reduction, and writes BENCH_serving_quant.json (see DESIGN.md,
// "Quantized scoring").
//
// With --ingest the bench drives the "mutable" backend with a paced
// open-loop ingest stream (WAL-acknowledged Adds) racing a paced open-loop
// query stream while the background maintenance thread seals and merges,
// sweeping ingest rate x compaction pressure (seal_threshold). Query
// latency is measured from the scheduled arrival (coordinated-omission
// safe), the read-only cell is the baseline, and the exit code gates the
// worst active-ingest p95 within a budgeted multiple of it. Writes
// BENCH_serving_ingest.json (see DESIGN.md, "Live mutation and crash
// recovery").

#include <cstdio>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "index/ivf_index.h"
#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "mutate/mutable_backend.h"
#include "net/remote_transport.h"
#include "quant/int8_corpus.h"
#include "net/shard_server.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/percentile.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adamine {
namespace {

constexpr int64_t kTopK = 10;
constexpr int64_t kNumLists = 32;
constexpr int kRepeats = 3;

Tensor RowOf(const Tensor& m, int64_t i) {
  Tensor row({m.cols()});
  std::copy(m.data() + i * m.cols(), m.data() + (i + 1) * m.cols(),
            row.data());
  return row;
}

std::vector<int64_t> IdsOf(const std::vector<serve::ScoredHit>& hits) {
  std::vector<int64_t> ids;
  ids.reserve(hits.size());
  for (const serve::ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

double RecallAgainst(const std::vector<std::vector<int64_t>>& truth,
                     const std::vector<std::vector<int64_t>>& got) {
  double recall = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    int64_t hits = 0;
    for (int64_t item : got[i]) {
      for (int64_t t : truth[i]) {
        if (item == t) {
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) /
              static_cast<double>(truth[i].size());
  }
  return recall / static_cast<double>(truth.size());
}

int Run() {
  data::GeneratorConfig config;
  config.num_recipes = 8000;
  config.num_classes = 192;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 256);
  std::printf("== Batched retrieval serving ==\n");
  std::printf("(%lld items of dim %lld, %lld queries, top-%lld)\n",
              static_cast<long long>(items.rows()),
              static_cast<long long>(items.cols()),
              static_cast<long long>(queries.rows()),
              static_cast<long long>(kTopK));

  // Reference paths: the registry's scalar backend (per-query loops, no
  // kernel-pool batching) and the IVF index searched one row at a time.
  serve::BackendConfig scalar_config;
  scalar_config.items = items;
  auto scalar = serve::CreateBackend("scalar", scalar_config);
  if (!scalar.ok()) {
    std::fprintf(stderr, "%s\n", scalar.status().ToString().c_str());
    return 1;
  }
  index::IvfConfig ivf_config;
  ivf_config.num_lists = kNumLists;
  ivf_config.num_probes = 4;
  ivf_config.seed = 9;
  auto ivf_index = index::IvfIndex::Build(items.Clone(), ivf_config);
  if (!ivf_index.ok()) {
    std::fprintf(stderr, "%s\n", ivf_index.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<int64_t>> truth_exact;
  std::vector<std::vector<int64_t>> truth_ivf;
  Stopwatch watch;
  for (int r = 0; r < kRepeats; ++r) {
    auto scored =
        (*scalar)->ScoreTopK(serve::QueryBatch{queries}, kTopK, {});
    ADAMINE_CHECK_MSG(scored.ok(), scored.status().ToString());
    truth_exact.clear();
    for (const auto& row : scored->hits) truth_exact.push_back(IdsOf(row));
  }
  const double scalar_exact_ms =
      watch.ElapsedMillis() / (kRepeats * queries.rows());
  watch.Restart();
  for (int r = 0; r < kRepeats; ++r) {
    truth_ivf.clear();
    for (int64_t i = 0; i < queries.rows(); ++i) {
      truth_ivf.push_back(IdsOf(ivf_index->Search(
          SliceRows(queries, i, i + 1), kTopK, ivf_config.num_probes)[0]));
    }
  }
  const double per_row_ivf_ms =
      watch.ElapsedMillis() / (kRepeats * queries.rows());

  TablePrinter table({"backend", "threads", "batch", "QPS", "ms/query",
                      "recall@10", "vs scalar"});
  const auto qps = [](double per_query_ms) {
    return per_query_ms > 0.0 ? 1000.0 / per_query_ms : 0.0;
  };
  table.AddRow({"scalar exhaustive", "1", "1",
                TablePrinter::Num(qps(scalar_exact_ms), 0),
                TablePrinter::Num(scalar_exact_ms, 3), "1.000", "1.00x"});
  table.AddRow({"ivf(4/32) per row", "1", "1",
                TablePrinter::Num(qps(per_row_ivf_ms), 0),
                TablePrinter::Num(per_row_ivf_ms, 3),
                TablePrinter::Num(RecallAgainst(truth_exact, truth_ivf), 3),
                "1.00x"});

  bool bit_identical = true;
  // The sweep addresses backends by registry name, as the CLI does — adding
  // a registered backend here is a one-string change.
  for (const std::string backend_name : {"exhaustive", "ivf", "quantized"}) {
    const bool use_ivf = backend_name == "ivf";
    for (const int64_t batch : {int64_t{1}, int64_t{16}, int64_t{64}}) {
      // The thread-1 result of this config, for the bit-identity check.
      std::vector<std::vector<int64_t>> at_one_thread;
      for (const int threads : {1, 4}) {
        serve::ServeConfig serve_config;
        serve_config.backend = backend_name;
        serve_config.ivf = ivf_config;
        serve_config.micro_batch = batch;
        serve_config.cache_capacity = 0;  // Measure scoring, not the cache.
        auto service = serve::RetrievalService::Create(items, serve_config);
        if (!service.ok()) {
          std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
          return 1;
        }
        kernel::SetNumThreads(threads);
        auto results = (*service)->QueryBatch(queries, kTopK);  // Warm-up.
        watch.Restart();
        for (int r = 0; r < kRepeats; ++r) {
          results = (*service)->QueryBatch(queries, kTopK);
        }
        const double ms =
            watch.ElapsedMillis() / (kRepeats * queries.rows());
        kernel::SetNumThreads(1);
        const auto& truth = use_ivf ? truth_ivf : truth_exact;
        if (results != truth) bit_identical = false;
        if (threads == 1) {
          at_one_thread = results;
        } else if (results != at_one_thread) {
          bit_identical = false;
        }
        const double scalar_ms = use_ivf ? per_row_ivf_ms : scalar_exact_ms;
        table.AddRow(
            {use_ivf ? "serve ivf(4/32)" : "serve " + backend_name,
             std::to_string(threads), std::to_string(batch),
             TablePrinter::Num(qps(ms), 0), TablePrinter::Num(ms, 3),
             TablePrinter::Num(RecallAgainst(truth_exact, results), 3),
             TablePrinter::Num(scalar_ms / ms, 2) + "x"});
      }
    }
  }
  table.Print(std::cout);
  std::printf("bit-identical to scalar path at threads {1, 4}: %s\n",
              bit_identical ? "yes" : "NO (BUG)");

  // The probe dial: accuracy/latency trade-off at a fixed batch width.
  std::printf("\n== Probe dial (ivf backend, batch 64, 4 threads) ==\n");
  serve::ServeConfig dial_config;
  dial_config.backend = serve::Backend::kIvf;
  dial_config.ivf = ivf_config;
  dial_config.micro_batch = 64;
  dial_config.cache_capacity = 0;
  auto dial = serve::RetrievalService::Create(items, dial_config);
  if (!dial.ok()) {
    std::fprintf(stderr, "%s\n", dial.status().ToString().c_str());
    return 1;
  }
  TablePrinter dial_table(
      {"probes (of 32 lists)", "QPS", "ms/query", "recall@10"});
  kernel::SetNumThreads(4);
  for (const int64_t probes : {1, 2, 4, 8, 16, 32}) {
    if (!(*dial)->SetProbes(probes).ok()) return 1;
    auto results = (*dial)->QueryBatch(queries, kTopK);  // Warm-up.
    watch.Restart();
    for (int r = 0; r < kRepeats; ++r) {
      results = (*dial)->QueryBatch(queries, kTopK);
    }
    const double ms = watch.ElapsedMillis() / (kRepeats * queries.rows());
    dial_table.AddRow({std::to_string(probes), TablePrinter::Num(qps(ms), 0),
                       TablePrinter::Num(ms, 3),
                       TablePrinter::Num(RecallAgainst(truth_exact, results),
                                         3)});
  }
  kernel::SetNumThreads(1);
  dial_table.Print(std::cout);
  std::printf("\n%s\n", (*dial)->Snapshot().ToString().c_str());
  return bit_identical ? 0 : 1;
}

/// Offered-load sweep against an under-provisioned service: every scoring
/// micro-batch is stalled (armed serve.score.delay, the same fault point
/// the overload tests use) so a handful of clients is already more than
/// capacity, and the admission queue + deadline + degradation machinery is
/// what keeps latency bounded. Emits one table row and one JSON record per
/// offered-load level.
int RunOverload() {
  constexpr int64_t kDelayMs = 4;       // Emulated per-batch scoring cost.
  constexpr double kDeadlineMs = 40.0;  // Per-request budget.
  constexpr int kRequestsPerClient = 40;
  data::GeneratorConfig config;
  config.num_recipes = 4000;
  config.num_classes = 96;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 64);

  serve::ServeConfig serve_config;
  serve_config.backend = serve::Backend::kIvf;
  serve_config.ivf.num_lists = kNumLists;
  serve_config.ivf.num_probes = 8;
  serve_config.ivf.seed = 9;
  serve_config.micro_batch = 1;
  serve_config.cache_capacity = 0;  // Measure the serve path, not repeats.
  serve_config.max_inflight = 2;
  serve_config.max_queue = 4;
  serve_config.degradation.target_ms = static_cast<double>(kDelayMs) + 1.0;
  serve_config.degradation.min_probes = 1;
  serve_config.degradation.window = 8;
  auto service = serve::RetrievalService::Create(items, serve_config);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  std::printf("== Overload sweep ==\n");
  std::printf(
      "(%lld items, ivf 8/%lld probes, %lld ms emulated batch cost, "
      "%.0f ms deadline, %lld in flight + %lld queued)\n",
      static_cast<long long>(items.rows()),
      static_cast<long long>(kNumLists), static_cast<long long>(kDelayMs),
      kDeadlineMs, static_cast<long long>(serve_config.max_inflight),
      static_cast<long long>(serve_config.max_queue));

  TablePrinter table({"clients", "offered", "ok", "shed%", "miss%", "QPS",
                      "probes end", "dial", "health"});
  std::string json = "[\n";
  bool queue_bounded = true;
  for (const int clients : {1, 2, 4, 8, 16}) {
    // Each level starts healthy at full probes with fresh counters.
    if (!(*service)->SetProbes(serve_config.ivf.num_probes).ok()) return 1;
    (*service)->ResetStats();
    fault::Arm(fault::kServeScoreDelay, /*skip=*/kDelayMs);
    std::atomic<int64_t> ok_count{0};
    std::atomic<int64_t> shed_count{0};
    std::atomic<int64_t> miss_count{0};
    // The probe dial's trace, sampled by client 0 after every request and
    // compressed to its change points.
    std::vector<int64_t> dial_trace;
    Stopwatch watch;
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (int iter = 0; iter < kRequestsPerClient; ++iter) {
          serve::QueryOptions options;
          options.deadline_ms = kDeadlineMs;
          const int64_t row =
              (c * kRequestsPerClient + iter) % queries.rows();
          Tensor q = RowOf(queries, row);
          auto result = (*service)->QueryWithOptions(q, kTopK, options);
          if (result.ok()) {
            ok_count.fetch_add(1);
          } else if (result.status().code() == StatusCode::kUnavailable) {
            shed_count.fetch_add(1);
          } else {
            miss_count.fetch_add(1);
          }
          if (c == 0) {
            const int64_t probes = (*service)->probes();
            if (dial_trace.empty() || dial_trace.back() != probes) {
              dial_trace.push_back(probes);
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double elapsed_s = watch.ElapsedSeconds();
    fault::Reset();
    const serve::ServeStats stats = (*service)->Snapshot();
    if (stats.queue_peak > serve_config.max_queue) queue_bounded = false;
    const int64_t offered = clients * kRequestsPerClient;
    const double shed_rate =
        100.0 * static_cast<double>(shed_count.load()) /
        static_cast<double>(offered);
    const double miss_rate =
        100.0 * static_cast<double>(miss_count.load()) /
        static_cast<double>(offered);
    std::string dial;
    for (size_t i = 0; i < dial_trace.size(); ++i) {
      if (i > 0) dial += ">";
      dial += std::to_string(dial_trace[i]);
    }
    table.AddRow({std::to_string(clients), std::to_string(offered),
                  std::to_string(ok_count.load()),
                  TablePrinter::Num(shed_rate, 1),
                  TablePrinter::Num(miss_rate, 1),
                  TablePrinter::Num(
                      static_cast<double>(ok_count.load()) / elapsed_s, 0),
                  std::to_string(stats.probes), dial,
                  serve::HealthStateName(stats.health)});
    char record[512];
    std::snprintf(
        record, sizeof(record),
        "  {\"clients\": %d, \"offered\": %lld, \"ok\": %lld, "
        "\"shed\": %lld, \"deadline_miss\": %lld, \"shed_rate\": %.4f, "
        "\"miss_rate\": %.4f, \"qps\": %.1f, \"queue_peak\": %lld, "
        "\"probes_end\": %lld, \"dial_downs\": %lld, \"dial_ups\": %lld, "
        "\"dial_trace\": \"%s\", \"health\": \"%s\"}%s\n",
        clients, static_cast<long long>(offered),
        static_cast<long long>(ok_count.load()),
        static_cast<long long>(shed_count.load()),
        static_cast<long long>(miss_count.load()), shed_rate / 100.0,
        miss_rate / 100.0,
        static_cast<double>(ok_count.load()) / elapsed_s,
        static_cast<long long>(stats.queue_peak),
        static_cast<long long>(stats.probes),
        static_cast<long long>(stats.probe_dial_downs),
        static_cast<long long>(stats.probe_dial_ups), dial.c_str(),
        serve::HealthStateName(stats.health), clients == 16 ? "" : ",");
    json += record;
  }
  json += "]\n";
  table.Print(std::cout);
  std::printf("queue bounded by max_queue at every level: %s\n",
              queue_bounded ? "yes" : "NO (BUG)");
  std::ofstream out("BENCH_serving_overload.json");
  out << json;
  std::printf("wrote BENCH_serving_overload.json\n");
  return queue_bounded ? 0 : 1;
}

/// Sharded fan-out/fan-in sweep: shard count x injected failure mode
/// (healthy fleet / one replica of every shard killed / one whole shard
/// down / a slow replica hedged around), reporting QPS, fan-out latency
/// percentiles, coverage and the retry/hedge/breaker counters. The healthy
/// rows double as a correctness gate: their merged results must be
/// bit-identical to the unsharded exhaustive service. Writes one JSON
/// record per row to BENCH_serving_shards.json (see DESIGN.md, "Sharded
/// serving and failover").
int RunShards() {
  constexpr int kPasses = 3;
  data::GeneratorConfig config;
  config.num_recipes = 4000;
  config.num_classes = 96;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 128);
  std::printf("== Sharded serving sweep ==\n");
  std::printf("(%lld items of dim %lld, %lld queries/batch, top-%lld, "
              "%d passes per level)\n",
              static_cast<long long>(items.rows()),
              static_cast<long long>(items.cols()),
              static_cast<long long>(queries.rows()),
              static_cast<long long>(kTopK), kPasses);

  // The unsharded exhaustive answer every healthy configuration must
  // reproduce bit for bit.
  serve::ServeConfig flat_config;
  flat_config.backend = serve::Backend::kExhaustive;
  flat_config.cache_capacity = 0;
  auto flat = serve::RetrievalService::Create(items, flat_config);
  if (!flat.ok()) {
    std::fprintf(stderr, "%s\n", flat.status().ToString().c_str());
    return 1;
  }
  auto truth =
      (*flat)->QueryBatchScored(queries, kTopK, serve::QueryOptions{});
  if (!truth.ok()) {
    std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
    return 1;
  }

  struct Mode {
    const char* name;
    int64_t replicas;
    bool kill_replica0;   // serve.shard.fail on replica 0 of every shard.
    bool kill_shard0;     // serve.shard.fail on every replica of shard 0.
    int64_t stall_ms;     // serve.shard.delay on replica 0 of every shard.
    double hedge_ms;
  };
  const Mode modes[] = {
      {"healthy", 1, false, false, 0, 0.0},
      {"replica-killed", 2, true, false, 0, 0.0},
      {"slow-replica+hedge", 2, false, false, 5, 1.0},
      {"shard-down", 1, false, true, 0, 0.0},
  };

  TablePrinter table({"shards", "mode", "ok", "partial", "QPS", "p50 ms",
                      "p95 ms", "coverage", "retries", "hedge f/w",
                      "breaker opens"});
  std::string json = "[\n";
  bool first_record = true;
  bool bit_identical = true;
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    for (const Mode& mode : modes) {
      if (mode.kill_shard0 && shards == 1) continue;  // Nothing to degrade to.
      serve::ShardedServeConfig sharded_config;
      sharded_config.num_shards = shards;
      sharded_config.num_replicas = mode.replicas;
      sharded_config.shard.backend = serve::Backend::kExhaustive;
      sharded_config.shard_timeout_ms = 50.0;
      sharded_config.hedge_ms = mode.hedge_ms;
      sharded_config.retry.backoff_base_ms = 0.5;
      sharded_config.retry.backoff_max_ms = 2.0;
      auto service =
          serve::ShardedRetrievalService::Create(items, sharded_config);
      if (!service.ok()) {
        std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
        return 1;
      }
      fault::Reset();
      for (int64_t s = 0; s < shards; ++s) {
        if (mode.kill_replica0) {
          fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, s, 0));
        }
        if (mode.stall_ms > 0) {
          fault::Arm(fault::ShardReplicaPoint(fault::kServeShardDelay, s, 0),
                     /*skip=*/mode.stall_ms);
        }
      }
      if (mode.kill_shard0) {
        for (int64_t r = 0; r < mode.replicas; ++r) {
          fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 0, r));
        }
      }

      int64_t ok_requests = 0;
      int64_t partial_requests = 0;
      (void)(*service)->QueryBatch(queries, kTopK);  // Warm-up.
      (*service)->ResetStats();
      Stopwatch watch;
      for (int pass = 0; pass < kPasses; ++pass) {
        auto got = (*service)->QueryBatch(queries, kTopK);
        if (!got.ok()) continue;
        ++ok_requests;
        if (got->partial) ++partial_requests;
        if (!got->partial && got->results != truth.value()) {
          bit_identical = false;
        }
      }
      const double elapsed_s = watch.ElapsedSeconds();
      fault::Reset();
      const serve::ShardedServeStats stats = (*service)->Snapshot();
      const double qps =
          elapsed_s > 0.0
              ? static_cast<double>(ok_requests * queries.rows()) / elapsed_s
              : 0.0;
      table.AddRow(
          {std::to_string(shards), mode.name, std::to_string(ok_requests),
           std::to_string(partial_requests), TablePrinter::Num(qps, 0),
           TablePrinter::Num(stats.fanout.PercentileMs(50), 3),
           TablePrinter::Num(stats.fanout.PercentileMs(95), 3),
           TablePrinter::Num(stats.coverage.mean(), 3),
           std::to_string(stats.retries),
           std::to_string(stats.hedges_fired) + "/" +
               std::to_string(stats.hedges_won),
           std::to_string(stats.breaker_opens)});
      char record[512];
      std::snprintf(
          record, sizeof(record),
          "%s  {\"shards\": %lld, \"replicas\": %lld, \"mode\": \"%s\", "
          "\"ok\": %lld, \"partial\": %lld, \"failed\": %lld, "
          "\"qps\": %.1f, \"fanout_p50_ms\": %.4f, \"fanout_p95_ms\": %.4f, "
          "\"coverage_mean\": %.4f, \"retries\": %lld, "
          "\"hedges_fired\": %lld, \"hedges_won\": %lld, "
          "\"timeouts\": %lld, \"breaker_opens\": %lld}",
          first_record ? "" : ",\n", static_cast<long long>(shards),
          static_cast<long long>(mode.replicas), mode.name,
          static_cast<long long>(ok_requests),
          static_cast<long long>(partial_requests),
          static_cast<long long>(stats.failed), qps,
          stats.fanout.PercentileMs(50), stats.fanout.PercentileMs(95),
          stats.coverage.mean(), static_cast<long long>(stats.retries),
          static_cast<long long>(stats.hedges_fired),
          static_cast<long long>(stats.hedges_won),
          static_cast<long long>(stats.timeouts),
          static_cast<long long>(stats.breaker_opens));
      json += record;
      first_record = false;
    }
  }
  json += "\n]\n";
  table.Print(std::cout);
  std::printf("healthy rows bit-identical to the unsharded service: %s\n",
              bit_identical ? "yes" : "NO (BUG)");
  std::ofstream out("BENCH_serving_shards.json");
  out << json;
  std::printf("wrote BENCH_serving_shards.json\n");
  return bit_identical ? 0 : 1;
}

/// Nearest-rank percentile over an ascending latency sample — an observed
/// value, never an interpolated one (util/percentile.h; the old local
/// interpolation reported p95 = 95.05 on {1..100}, a latency no request
/// ever saw).
double SortedPercentile(const std::vector<double>& v, double p) {
  return util::SortedPercentile(v, p);
}

/// Open-loop RPC sweep: a real multi-server TCP topology (three
/// net::ShardServers over contiguous corpus slices, dialled through
/// ConnectShardedService) under a Poisson arrival process, healthy and
/// with one server Terminate()d mid-fleet. Open loop means the arrival
/// schedule is fixed before the level starts — a deterministic seeded
/// exponential stream — and a request's latency is measured from its
/// *scheduled* arrival, so queueing behind a slow fleet is charged to the
/// fleet, not hidden by a stalled client (no coordinated omission).
///
/// Two gates decide the exit code: the healthy topology must answer a
/// full query batch bit-identically to the unsharded exhaustive service
/// (the wire is invisible in the results), and the killed mode must
/// degrade — partial results with honest coverage, zero failed requests,
/// never a crash or hang.
int RunRpc() {
  constexpr int64_t kShards = 3;
  constexpr int kClientThreads = 8;
  constexpr double kDeadlineMs = 250.0;
  constexpr double kLevelSeconds = 1.0;
  data::GeneratorConfig config;
  config.num_recipes = 4000;
  config.num_classes = 96;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 64);

  // The unsharded exhaustive answer the healthy remote topology must
  // reproduce bit for bit.
  serve::ServeConfig flat_config;
  flat_config.backend = serve::Backend::kExhaustive;
  flat_config.cache_capacity = 0;
  auto flat = serve::RetrievalService::Create(items, flat_config);
  if (!flat.ok()) {
    std::fprintf(stderr, "%s\n", flat.status().ToString().c_str());
    return 1;
  }
  auto truth =
      (*flat)->QueryBatchScored(queries, kTopK, serve::QueryOptions{});
  if (!truth.ok()) {
    std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
    return 1;
  }

  // Three real TCP servers, one per contiguous corpus slice.
  std::vector<std::shared_ptr<serve::RetrievalService>> shard_services;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::string> endpoints;
  const int64_t chunk = (items.rows() + kShards - 1) / kShards;
  for (int64_t s = 0; s < kShards; ++s) {
    const int64_t lo = s * chunk;
    const int64_t hi = std::min(lo + chunk, items.rows());
    serve::ServeConfig shard_config;
    shard_config.backend = serve::Backend::kExhaustive;
    shard_config.cache_capacity = 0;
    auto service =
        serve::RetrievalService::Create(SliceRows(items, lo, hi),
                                        shard_config);
    if (!service.ok()) {
      std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
      return 1;
    }
    shard_services.push_back(std::move(service).value());
    servers.push_back(std::make_unique<net::ShardServer>());
    const Status started = servers.back()->Start(shard_services.back(),
                                                 net::ShardServerConfig());
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(servers.back()->port()));
  }

  serve::ShardedServeConfig sharded_config;
  sharded_config.shard_timeout_ms = 200.0;
  sharded_config.retry.retry_max = 1;
  sharded_config.retry.backoff_base_ms = 0.5;
  sharded_config.retry.backoff_max_ms = 2.0;
  sharded_config.breaker.failure_threshold = 2;
  sharded_config.breaker.open_ms = 200.0;
  auto remote = net::ConnectShardedService(endpoints, sharded_config);
  if (!remote.ok()) {
    std::fprintf(stderr, "%s\n", remote.status().ToString().c_str());
    return 1;
  }
  std::printf("== RPC serving sweep (open loop) ==\n");
  std::printf(
      "(%lld items over %lld TCP shard servers, top-%lld, %.0f ms "
      "deadline, %d client threads, %.0fs Poisson arrivals per level)\n",
      static_cast<long long>(items.rows()),
      static_cast<long long>(kShards), static_cast<long long>(kTopK),
      kDeadlineMs, kClientThreads, kLevelSeconds);

  // Gate 1, before anything is killed: the wire must be invisible.
  bool bit_identical = true;
  {
    auto batch = (*remote)->QueryBatch(queries, kTopK);
    if (!batch.ok() || batch->partial ||
        batch->results != truth.value()) {
      bit_identical = false;
    }
  }

  TablePrinter table({"mode", "offered", "ok", "partial", "failed",
                      "achieved", "p50 ms", "p95 ms", "p99 ms",
                      "coverage", "breaker opens"});
  std::string json = "[\n";
  bool first_record = true;
  int64_t killed_partial = 0;
  int64_t killed_failed = 0;
  for (const bool killed : {false, true}) {
    if (killed) {
      // kill -9's in-process twin: RST every connection, close the
      // listener, flush nothing. The fleet must degrade, not fail.
      servers[1]->Terminate();
    }
    for (const int offered : {250, 500, 1000, 2000}) {
      const int64_t requests =
          static_cast<int64_t>(offered * kLevelSeconds);
      // The whole arrival schedule is drawn up front (open loop): request
      // i fires at start + arrival_us[i] no matter how the fleet is doing.
      Rng rng(1234 + static_cast<uint64_t>(offered) * 7 + (killed ? 1 : 0));
      const double mean_gap_us = 1e6 / static_cast<double>(offered);
      std::vector<int64_t> arrival_us(static_cast<size_t>(requests));
      double at = 0.0;
      for (int64_t i = 0; i < requests; ++i) {
        at += -std::log(1.0 - rng.Uniform()) * mean_gap_us;
        arrival_us[static_cast<size_t>(i)] =
            static_cast<int64_t>(std::llround(at));
      }
      (*remote)->ResetStats();
      std::vector<std::vector<double>> latencies(kClientThreads);
      std::vector<int64_t> ok_counts(kClientThreads, 0);
      std::vector<int64_t> partial_counts(kClientThreads, 0);
      std::vector<int64_t> failed_counts(kClientThreads, 0);
      std::vector<double> coverage_sums(kClientThreads, 0.0);
      const auto start =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      std::vector<std::thread> clients;
      for (int t = 0; t < kClientThreads; ++t) {
        clients.emplace_back([&, t] {
          for (int64_t i = t; i < requests; i += kClientThreads) {
            const auto scheduled =
                start + std::chrono::microseconds(
                            arrival_us[static_cast<size_t>(i)]);
            std::this_thread::sleep_until(scheduled);
            const int64_t row = i % queries.rows();
            Tensor q = SliceRows(queries, row, row + 1);
            serve::QueryOptions options;
            options.deadline_ms = kDeadlineMs;
            auto result =
                (*remote)->QueryBatchWithOptions(q, kTopK, options);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - scheduled)
                    .count();
            latencies[static_cast<size_t>(t)].push_back(ms);
            if (!result.ok()) {
              ++failed_counts[static_cast<size_t>(t)];
            } else {
              coverage_sums[static_cast<size_t>(t)] += result->coverage;
              if (result->partial) {
                ++partial_counts[static_cast<size_t>(t)];
              } else {
                ++ok_counts[static_cast<size_t>(t)];
              }
            }
          }
        });
      }
      for (auto& c : clients) c.join();
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::vector<double> all;
      int64_t ok = 0, partial = 0, failed = 0;
      double coverage_sum = 0.0;
      for (int t = 0; t < kClientThreads; ++t) {
        all.insert(all.end(), latencies[static_cast<size_t>(t)].begin(),
                   latencies[static_cast<size_t>(t)].end());
        ok += ok_counts[static_cast<size_t>(t)];
        partial += partial_counts[static_cast<size_t>(t)];
        failed += failed_counts[static_cast<size_t>(t)];
        coverage_sum += coverage_sums[static_cast<size_t>(t)];
      }
      std::sort(all.begin(), all.end());
      const int64_t answered = ok + partial;
      const double coverage_mean =
          answered > 0 ? coverage_sum / static_cast<double>(answered) : 0.0;
      const double achieved =
          elapsed_s > 0.0 ? static_cast<double>(answered) / elapsed_s : 0.0;
      if (killed) {
        killed_partial += partial;
        killed_failed += failed;
      }
      const serve::ShardedServeStats stats = (*remote)->Snapshot();
      const char* mode = killed ? "shard-killed" : "healthy";
      table.AddRow(
          {mode, std::to_string(offered), std::to_string(ok),
           std::to_string(partial), std::to_string(failed),
           TablePrinter::Num(achieved, 0),
           TablePrinter::Num(SortedPercentile(all, 50), 3),
           TablePrinter::Num(SortedPercentile(all, 95), 3),
           TablePrinter::Num(SortedPercentile(all, 99), 3),
           TablePrinter::Num(coverage_mean, 3),
           std::to_string(stats.breaker_opens)});
      char record[512];
      std::snprintf(
          record, sizeof(record),
          "%s  {\"mode\": \"%s\", \"offered_qps\": %d, "
          "\"requests\": %lld, \"ok\": %lld, \"partial\": %lld, "
          "\"failed\": %lld, \"achieved_qps\": %.1f, \"p50_ms\": %.4f, "
          "\"p95_ms\": %.4f, \"p99_ms\": %.4f, \"max_ms\": %.4f, "
          "\"coverage_mean\": %.4f, \"retries\": %lld, "
          "\"timeouts\": %lld, \"breaker_opens\": %lld}",
          first_record ? "" : ",\n", mode, offered,
          static_cast<long long>(requests), static_cast<long long>(ok),
          static_cast<long long>(partial), static_cast<long long>(failed),
          achieved, SortedPercentile(all, 50), SortedPercentile(all, 95),
          SortedPercentile(all, 99), all.empty() ? 0.0 : all.back(),
          coverage_mean, static_cast<long long>(stats.retries),
          static_cast<long long>(stats.timeouts),
          static_cast<long long>(stats.breaker_opens));
      json += record;
      first_record = false;
    }
  }
  json += "\n]\n";
  table.Print(std::cout);
  const bool degraded_cleanly = killed_partial > 0 && killed_failed == 0;
  std::printf("healthy RPC answers bit-identical to the unsharded "
              "service: %s\n",
              bit_identical ? "yes" : "NO (BUG)");
  std::printf("killed mode degraded to partial coverage without a failed "
              "request: %s\n",
              degraded_cleanly ? "yes" : "NO (BUG)");
  std::ofstream out("BENCH_serving_rpc.json");
  out << json;
  std::printf("wrote BENCH_serving_rpc.json\n");
  for (auto& server : servers) server->Stop();
  return bit_identical && degraded_cleanly ? 0 : 1;
}

/// Quantized-scoring sweep: memory footprint x QPS x recall for the int8
/// two-stage backend against the float exhaustive scan, straight through
/// the ScoringBackend seam (no service, no cache — pure scoring). Because
/// the quantized backend's candidate selection is interval-verified, its
/// recall is exactly 1.0 by construction; the bench *checks* that (full
/// (index, score) bit-identity against the exhaustive backend) rather than
/// assuming it, and the exit code gates on bit-identity, the >= 3x scan
/// memory reduction, and the int8 scan beating the float scan's QPS at
/// equal (= perfect) recall. Writes BENCH_serving_quant.json.
int RunQuant() {
  constexpr int64_t kRows = 40000;
  constexpr int64_t kDim = 128;
  constexpr int64_t kQueries = 256;
  constexpr int64_t kBatch = 64;
  constexpr int kThreads = 4;
  Rng rng(1234);
  Tensor items = L2NormalizeRows(Tensor::Randn({kRows, kDim}, rng));
  Tensor queries = SliceRows(items, 0, kQueries);
  std::printf("== Quantized scoring (int8 %s kernel) ==\n",
              kernel::Int8DotIsa());
  std::printf("(%lld items of dim %lld, %lld queries in batches of %lld, "
              "top-%lld, %d threads)\n",
              static_cast<long long>(kRows), static_cast<long long>(kDim),
              static_cast<long long>(kQueries),
              static_cast<long long>(kBatch),
              static_cast<long long>(kTopK), kThreads);

  // Memory: what each backend's scan has to touch per full pass.
  auto quantized_corpus = quant::QuantizeRows(items);
  if (!quantized_corpus.ok()) {
    std::fprintf(stderr, "%s\n",
                 quantized_corpus.status().ToString().c_str());
    return 1;
  }
  const int64_t float_bytes = kRows * kDim * static_cast<int64_t>(
                                                 sizeof(float));
  const int64_t quant_bytes = quant::QuantizedBytes(*quantized_corpus);
  const double mem_reduction = static_cast<double>(float_bytes) /
                               static_cast<double>(quant_bytes);

  serve::BackendConfig backend_config;
  backend_config.items = items;
  auto exhaustive = serve::CreateBackend("exhaustive", backend_config);
  if (!exhaustive.ok()) {
    std::fprintf(stderr, "%s\n", exhaustive.status().ToString().c_str());
    return 1;
  }

  kernel::SetNumThreads(kThreads);
  const auto sweep = [&](serve::ScoringBackend& backend,
                         std::vector<std::vector<serve::ScoredHit>>* hits)
      -> double {
    double total_ms = 0.0;
    for (int r = -1; r < kRepeats; ++r) {  // r == -1 is the warm-up.
      hits->clear();
      Stopwatch watch;
      for (int64_t start = 0; start < kQueries; start += kBatch) {
        Tensor micro({kBatch, kDim});
        std::copy(queries.data() + start * kDim,
                  queries.data() + (start + kBatch) * kDim, micro.data());
        auto result =
            backend.ScoreTopK(serve::QueryBatch{micro}, kTopK, {});
        ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
        for (auto& row : result->hits) hits->push_back(std::move(row));
      }
      if (r >= 0) total_ms += watch.ElapsedMillis();
    }
    return total_ms / (kRepeats * kQueries);
  };

  std::vector<std::vector<serve::ScoredHit>> exact_hits;
  const double exhaustive_ms = sweep(**exhaustive, &exact_hits);
  std::vector<std::vector<int64_t>> exact_ids;
  for (const auto& row : exact_hits) {
    exact_ids.push_back({});
    for (const auto& hit : row) exact_ids.back().push_back(hit.index);
  }

  const auto qps = [](double ms) { return ms > 0.0 ? 1000.0 / ms : 0.0; };
  TablePrinter table({"backend", "rerank", "QPS", "ms/query", "recall@10",
                      "scan MiB", "mem vs float"});
  const auto mib = [](int64_t bytes) {
    return TablePrinter::Num(static_cast<double>(bytes) / (1 << 20), 1);
  };
  table.AddRow({"exhaustive (float)", "-",
                TablePrinter::Num(qps(exhaustive_ms), 0),
                TablePrinter::Num(exhaustive_ms, 3), "1.000",
                mib(float_bytes), "1.00x"});

  std::string json = "[\n";
  char record[512];
  std::snprintf(
      record, sizeof(record),
      "  {\"backend\": \"exhaustive\", \"rerank_factor\": 0, "
      "\"qps\": %.1f, \"ms_per_query\": %.4f, \"recall\": 1.0, "
      "\"scan_bytes\": %lld, \"mem_reduction\": 1.0}",
      qps(exhaustive_ms), exhaustive_ms,
      static_cast<long long>(float_bytes));
  json += record;

  bool bit_identical = true;
  double best_quant_qps = 0.0;
  for (const int64_t rerank : {int64_t{1}, int64_t{2}, int64_t{4},
                               int64_t{8}}) {
    backend_config.rerank_factor = rerank;
    auto quantized = serve::CreateBackend("quantized", backend_config);
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<serve::ScoredHit>> hits;
    const double ms = sweep(**quantized, &hits);
    if (hits != exact_hits) bit_identical = false;
    std::vector<std::vector<int64_t>> ids;
    for (const auto& row : hits) {
      ids.push_back({});
      for (const auto& hit : row) ids.back().push_back(hit.index);
    }
    const double recall = RecallAgainst(exact_ids, ids);
    best_quant_qps = std::max(best_quant_qps, qps(ms));
    table.AddRow({"quantized (int8)", std::to_string(rerank),
                  TablePrinter::Num(qps(ms), 0), TablePrinter::Num(ms, 3),
                  TablePrinter::Num(recall, 3), mib(quant_bytes),
                  TablePrinter::Num(mem_reduction, 2) + "x"});
    std::snprintf(
        record, sizeof(record),
        ",\n  {\"backend\": \"quantized\", \"rerank_factor\": %lld, "
        "\"qps\": %.1f, \"ms_per_query\": %.4f, \"recall\": %.4f, "
        "\"scan_bytes\": %lld, \"mem_reduction\": %.2f}",
        static_cast<long long>(rerank), qps(ms), ms, recall,
        static_cast<long long>(quant_bytes), mem_reduction);
    json += record;
  }
  kernel::SetNumThreads(1);
  json += "\n]\n";
  table.Print(std::cout);

  const bool mem_ok = mem_reduction >= 3.0;
  const bool qps_ok = best_quant_qps > qps(exhaustive_ms);
  std::printf("bit-identical to the exhaustive backend: %s\n",
              bit_identical ? "yes" : "NO (BUG)");
  std::printf("scan memory reduction %.2fx (gate: >= 3x): %s\n",
              mem_reduction, mem_ok ? "ok" : "FAIL");
  std::printf("int8 scan beats float exhaustive QPS at equal recall: %s\n",
              qps_ok ? "yes" : "NO");
  std::ofstream out("BENCH_serving_quant.json");
  out << json;
  std::printf("wrote BENCH_serving_quant.json\n");
  return bit_identical && mem_ok && qps_ok ? 0 : 1;
}

/// Ingest-while-serving sweep over the "mutable" backend: a paced
/// open-loop Add stream (batches of kIngestBatch rows, one WAL sync each)
/// races a paced open-loop query stream while background maintenance
/// seals and merges underneath both. Latencies are measured from each
/// query's *scheduled* arrival, so a seal or merge that stalls the scorer
/// shows up as queue delay instead of silently thinning the offered load.
/// The 0-rows/s cell is the read-only baseline; the exit code gates every
/// active cell's p95 within kIngestP95Budget x that baseline (plus a
/// small absolute floor so a microsecond-level baseline cannot make the
/// gate flaky).
int RunIngest() {
  constexpr int64_t kRows = 20000;
  constexpr int64_t kDim = 128;
  constexpr int64_t kBatch = 16;       // Query rows per micro-batch.
  constexpr int64_t kQueryBatches = 120;
  constexpr double kQueryIntervalMs = 25.0;
  constexpr int64_t kIngestBatch = 8;  // Rows per acknowledged Add batch.
  // One scoring thread: the ingest stream, the background seal/merge
  // thread and the scorer already contend for the machine, and the bench
  // measures that contention rather than hiding it behind parallelism.
  constexpr int kThreads = 1;
  // Gate: every active cell's p95 within this multiple of the read-only
  // baseline, with an absolute floor so a lucky-fast baseline on a noisy
  // shared machine cannot flake the gate. Compaction churn legitimately
  // costs a few x on one core; a seal or merge that blocked queries on the
  // corpus lock would cost hundreds of x and still trip this.
  constexpr double kIngestP95Budget = 15.0;  // x read-only p95.
  constexpr double kIngestP95FloorMs = 50.0;

  Rng rng(4321);
  Tensor items = L2NormalizeRows(Tensor::Randn({kRows, kDim}, rng));
  Tensor queries = SliceRows(items, 0, kBatch * 8);
  // The ingest stream: fresh unit rows, pre-generated so pacing measures
  // the backend, not the generator.
  const int64_t max_ingest_rows =
      static_cast<int64_t>(12000.0 * kQueryBatches * kQueryIntervalMs / 1e3);
  Tensor fresh = L2NormalizeRows(Tensor::Randn({max_ingest_rows, kDim}, rng));

  std::printf("== Ingest-while-serving (mutable backend) ==\n");
  std::printf("(%lld seeded items of dim %lld, %lld-row query batches "
              "every %.0f ms, %lld-row ingest batches, %d threads)\n",
              static_cast<long long>(kRows), static_cast<long long>(kDim),
              static_cast<long long>(kBatch), kQueryIntervalMs,
              static_cast<long long>(kIngestBatch), kThreads);
  kernel::SetNumThreads(kThreads);

  struct Cell {
    int64_t seal_threshold;
    double ingest_rate;  // Rows/s; 0 = the read-only baseline.
    bool enospc_window = false;  // Inject a transient WAL ENOSPC outage.
  };
  const std::vector<Cell> cells = {
      {4096, 0.0},     // Baseline: no mutation, no compaction.
      {4096, 1000.0},  // Gentle: seals every ~4 s of ingest.
      {4096, 3000.0},
      {512, 1000.0},   // Compaction pressure: constant seal + merge churn.
      {512, 3000.0},
      // Disk-full window mid-run: the WAL sheds kResourceExhausted, the
      // ingester backs off and resumes once "space" returns, and the cell
      // still has to hold the query p95 gate with ZERO acked rows lost.
      {512, 1000.0, true},
  };

  TablePrinter table({"seal_thresh", "ingest rows/s", "acked rows/s",
                      "query p50 ms", "p95 ms", "p99 ms", "seals",
                      "merges", "sheds"});
  std::string json = "[\n";
  char record[512];
  double baseline_p95 = 0.0;
  double worst_active_p95 = 0.0;
  bool ingest_ok = true;
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    serve::BackendConfig backend_config;
    backend_config.items = items;
    backend_config.seal_threshold = cell.seal_threshold;
    auto backend = serve::CreateBackend("mutable", backend_config);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 1;
    }

    {
      // Start every cell from the sealed steady state (seeded rows in a
      // segment, empty memtable) and warm the scorer off the measured
      // clock, so cell-to-cell differences are ingest interference, not
      // seeding leftovers.
      auto* mutable_backend =
          static_cast<mutate::MutableBackend*>(backend->get());
      const Status flushed = mutable_backend->corpus()->Flush();
      ADAMINE_CHECK_MSG(flushed.ok(), flushed.ToString());
      Tensor warm({kBatch, kDim});
      std::copy(queries.data(), queries.data() + kBatch * kDim, warm.data());
      auto warmed =
          (*backend)->ScoreTopK(serve::QueryBatch{warm}, kTopK, {});
      ADAMINE_CHECK_MSG(warmed.ok(), warmed.status().ToString());
    }

    if (cell.enospc_window) {
      // A bounded disk-full outage: after ~3 acknowledged batches (the
      // skip budget; each kIngestBatch-row batch is kIngestBatch append
      // hits), the next 12 WAL appends fail with kResourceExhausted, then
      // the point exhausts itself — space "returns" — and acks resume.
      // Seal-path re-log appends may consume some of the budget too; the
      // invariants below hold wherever the window lands.
      fault::Arm(fault::kMutateWalEnospc, /*skip=*/3 * kIngestBatch,
                 /*fire=*/12);
    }

    std::atomic<bool> stop{false};
    std::atomic<int64_t> acked_rows{0};
    std::atomic<int64_t> shed_batches{0};
    std::atomic<bool> ingest_failed{false};
    std::thread ingester;
    const auto start = std::chrono::steady_clock::now();
    if (cell.ingest_rate > 0.0) {
      ingester = std::thread([&] {
        const double interval_ms =
            1e3 * static_cast<double>(kIngestBatch) / cell.ingest_rate;
        int64_t offset = 0;
        for (int64_t tick = 0; !stop.load(); ++tick) {
          const auto arrival =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              tick * interval_ms));
          std::this_thread::sleep_until(arrival);
          if (stop.load()) return;
          if (offset + kIngestBatch > fresh.rows()) return;
          Tensor rows({kIngestBatch, kDim});
          std::copy(fresh.data() + offset * kDim,
                    fresh.data() + (offset + kIngestBatch) * kDim,
                    rows.data());
          offset += kIngestBatch;
          auto* mutable_backend =
              static_cast<mutate::MutableBackend*>(backend->get());
          const auto added = mutable_backend->corpus()->AddBatch(rows);
          if (!added.ok()) {
            // Backpressure (the ENOSPC window, a memtable budget) is the
            // shed-not-fail contract: nothing was acknowledged, the batch
            // rolls back, and the stream keeps pacing. Anything else is a
            // real failure.
            if (added.status().IsTransient()) {
              shed_batches.fetch_add(1);
              continue;
            }
            ingest_failed.store(true);
            return;
          }
          acked_rows.fetch_add(kIngestBatch);
        }
      });
    }

    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(kQueryBatches));
    for (int64_t b = 0; b < kQueryBatches; ++b) {
      const auto arrival =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          b * kQueryIntervalMs));
      std::this_thread::sleep_until(arrival);
      Tensor micro({kBatch, kDim});
      const int64_t q0 = (b * kBatch) % queries.rows();
      std::copy(queries.data() + q0 * kDim,
                queries.data() + (q0 + kBatch) * kDim, micro.data());
      auto result =
          (*backend)->ScoreTopK(serve::QueryBatch{micro}, kTopK, {});
      ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
      const auto done = std::chrono::steady_clock::now();
      latencies.push_back(
          std::chrono::duration<double, std::milli>(done - arrival).count());
    }
    stop.store(true);
    if (ingester.joinable()) ingester.join();
    fault::Reset();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (ingest_failed.load()) {
      std::fprintf(stderr, "ingest stream failed\n");
      return 1;
    }
    // Zero-acked-loss invariant: every row the ingester was acked for is
    // live in the corpus (no deletes in this bench), and shed batches
    // contributed nothing. Holds for every cell; the ENOSPC cell is the
    // one that earns it.
    const int64_t live = (*backend)->size();
    if (live != kRows + acked_rows.load()) {
      std::fprintf(stderr,
                   "acked-row accounting broken: %lld live, expected "
                   "%lld seeded + %lld acked\n",
                   static_cast<long long>(live),
                   static_cast<long long>(kRows),
                   static_cast<long long>(acked_rows.load()));
      return 1;
    }
    if (cell.enospc_window && shed_batches.load() == 0) {
      std::fprintf(stderr,
                   "ENOSPC window cell observed no sheds; the fault never "
                   "fired\n");
      return 1;
    }

    std::sort(latencies.begin(), latencies.end());
    const double p50 = SortedPercentile(latencies, 50);
    const double p95 = SortedPercentile(latencies, 95);
    const double p99 = SortedPercentile(latencies, 99);
    const double acked_rate =
        static_cast<double>(acked_rows.load()) / elapsed_s;
    const auto stats = static_cast<mutate::MutableBackend*>(backend->get())
                           ->corpus()
                           ->GetStats();
    if (cell.ingest_rate == 0.0) {
      baseline_p95 = p95;
    } else {
      worst_active_p95 = std::max(worst_active_p95, p95);
      if (p95 > std::max(kIngestP95Budget * baseline_p95,
                         kIngestP95FloorMs)) {
        ingest_ok = false;
      }
    }
    table.AddRow({std::to_string(cell.seal_threshold),
                  TablePrinter::Num(cell.ingest_rate, 0),
                  TablePrinter::Num(acked_rate, 0),
                  TablePrinter::Num(p50, 3), TablePrinter::Num(p95, 3),
                  TablePrinter::Num(p99, 3), std::to_string(stats.seals),
                  std::to_string(stats.merges),
                  std::to_string(shed_batches.load())});
    std::snprintf(
        record, sizeof(record),
        "%s  {\"seal_threshold\": %lld, \"ingest_rate_target\": %.0f, "
        "\"ingest_rate_acked\": %.0f, \"query_p50_ms\": %.4f, "
        "\"query_p95_ms\": %.4f, \"query_p99_ms\": %.4f, "
        "\"seals\": %lld, \"merges\": %lld, \"live_rows\": %lld, "
        "\"enospc_window\": %s, \"shed_batches\": %lld, "
        "\"wal_transients\": %lld}",
        c == 0 ? "" : ",\n",
        static_cast<long long>(cell.seal_threshold), cell.ingest_rate,
        acked_rate, p50, p95, p99, static_cast<long long>(stats.seals),
        static_cast<long long>(stats.merges),
        static_cast<long long>((*backend)->size()),
        cell.enospc_window ? "true" : "false",
        static_cast<long long>(shed_batches.load()),
        static_cast<long long>(stats.wal_transient_failures));
    json += record;
  }
  kernel::SetNumThreads(1);
  json += "\n]\n";
  table.Print(std::cout);
  std::printf("read-only p95 %.3f ms; worst active-ingest p95 %.3f ms "
              "(gate: <= max(%.0fx baseline, %.1f ms)): %s\n",
              baseline_p95, worst_active_p95, kIngestP95Budget,
              kIngestP95FloorMs, ingest_ok ? "ok" : "FAIL");
  std::ofstream out("BENCH_serving_ingest.json");
  out << json;
  std::printf("wrote BENCH_serving_ingest.json\n");
  return ingest_ok ? 0 : 1;
}

}  // namespace
}  // namespace adamine

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--overload") return adamine::RunOverload();
    if (std::string(argv[i]) == "--shards") return adamine::RunShards();
    if (std::string(argv[i]) == "--rpc") return adamine::RunRpc();
    if (std::string(argv[i]) == "--quant") return adamine::RunQuant();
    if (std::string(argv[i]) == "--ingest") return adamine::RunIngest();
  }
  return adamine::Run();
}
