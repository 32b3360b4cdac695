// Command-line front end for the library: train a scenario on a synthetic
// dataset, checkpoint it, reload it, and serve retrieval queries — the
// workflow a downstream user runs end-to-end.
//
// Usage:
//   example_adamine_cli train   [scenario] [epochs] [checkpoint.bin] [flags]
//   example_adamine_cli eval    [scenario] [epochs] [checkpoint.bin] [flags]
//   example_adamine_cli query   "<ingredient words>" [checkpoint.bin]
//   example_adamine_cli serve   [scenario] [checkpoint.bin] [flags]
//
// Serving flags (serve / query):
//   --backend=NAME             scoring backend: any name registered with
//                              the backend registry (serve/backend.h), e.g.
//                              scalar, exhaustive, ivf, quantized (default
//                              exhaustive)
//   --probes=N                 IVF probe dial (accuracy vs latency)
//   --rerank-factor=N          quantized backend: exact-rerank candidate
//                              floor of N * k rows (default 4); results are
//                              bit-identical to exhaustive at any setting
//   --batch=N                  micro-batch width for GEMM scoring
//   --cache=N                  LRU result-cache capacity (0 disables)
//   --embeddings=PATH          where `serve` exports / reloads the
//                              embedding bundle (io tensor bundle)
//
// Overload-safety flags (serve / query; see DESIGN.md "Overload
// behavior"):
//   --deadline-ms=MS           per-request latency budget; an exceeded
//                              budget returns DEADLINE_EXCEEDED (0 = none)
//   --max-inflight=N           admission control: at most N requests score
//                              concurrently (0 disables admission)
//   --max-queue=N              at most N more wait for a slot; the rest
//                              are shed fast with UNAVAILABLE
//   --degrade-target-ms=MS     IVF backend: when the score-stage p95
//                              exceeds MS, probes dial down automatically
//                              (and back up when healthy; 0 disables)
//   --min-probes=N             floor of the adaptive probe dial
//
// Sharded-serving flags (serve; see DESIGN.md "Sharded serving and
// failover"). With --shards=N > 1 the exported corpus is partitioned
// across N exhaustive-backend shards whose merged answers are
// bit-identical to the unsharded service:
//   --shards=N                 corpus partitions (default 1 = unsharded)
//   --replicas=N               replicas per shard; failover + hedging
//                              target (default 1)
//   --shard-timeout-ms=MS      per-attempt replica budget; slower replicas
//                              count as transient failures (0 = none)
//   --retry-max=N              retry rounds per shard after the first
//   --hedge-ms=MS              fire a duplicate attempt at another replica
//                              after MS without an answer (0 disables)
//   --breaker-failures=N       consecutive failures that open a replica's
//                              circuit breaker
//   --breaker-open-ms=MS       how long an open breaker rejects traffic
//                              before the half-open probe
//   --require-full-coverage    fail requests instead of returning partial
//                              results when shards are down
//
// Network-serving flags (serve; see DESIGN.md "Network serving"). A
// multi-process topology is N `--listen` processes (one per corpus slice)
// plus one `--remote-shards` client that dials them all:
//   --listen=[HOST:]PORT       serve this process's corpus slice over the
//                              wire protocol instead of replaying queries
//                              locally; blocks until SIGINT/SIGTERM, then
//                              drains in-flight requests and exits
//   --shard-index=I            with --listen: this server owns slice I of
//   --shard-count=N            N contiguous corpus slices (defaults 0 of
//                              1 = the whole corpus)
//   --remote-shards=H:P,...    replay the query stream through remote
//                              shard servers — one endpoint per shard, in
//                              shard-index order; per-attempt timeouts,
//                              retries, hedging and breakers apply per the
//                              sharded flags above
//
// Live-mutation flags (serve; see DESIGN.md "Live mutation and crash
// recovery"). The "mutable" backend accepts Add / Delete while serving,
// WAL-acknowledged before the call returns:
//   --wal-dir=DIR              durable home for the mutable backend's WAL,
//                              sealed segments and manifest; reopening the
//                              same DIR recovers the corpus (acknowledged
//                              mutations survive kill -9). Empty = a
//                              throwaway temp dir
//   --ingest                   with --backend=mutable: serve the first
//                              half of the corpus, live-ingest the second
//                              half through the service (printing acked
//                              rows/s), then replay the query stream —
//                              top-1 matches static serving because the
//                              just-ingested rows are immediately
//                              retrievable
//   --memtable-max-rows=N      ingest backpressure (see DESIGN.md,
//   --memtable-max-bytes=B     "Resource pressure and scrubbing"): bound
//                              the mutable backend's memtable; an Add that
//                              would breach a bound sheds with
//                              RESOURCE_EXHAUSTED instead of growing
//                              without limit (0 = unbounded)
//   --max-seal-lag=G           shed when sealing falls more than G
//                              generations behind (0 = unbounded)
//   --admit-wait-ms=MS         block an over-budget Add up to MS for
//                              maintenance to catch up before shedding
//                              (0 = shed immediately); the CLI ingest loop
//                              retries sheds, so throughput self-paces to
//                              what maintenance sustains
//   --scrub-interval-ms=MS     background integrity scrub cadence: re-read
//                              sealed segments, quarantine bit-rot, keep
//                              serving the rest (0 = off)
//
// `serve` loads the checkpoint, embeds the test split, exports the
// embedding bundle, reloads it into a serve::RetrievalService and replays
// the recipe embeddings as a query stream (recipe->image retrieval),
// printing top-1 accuracy and the per-stage ServeStats snapshot.
//
// Crash-safety flags (train / eval):
//   --checkpoint-dir=DIR   write a full training-state checkpoint into DIR
//                          (atomic; survives being killed mid-save)
//   --checkpoint-every=N   checkpoint every N epochs (default 1)
//   --resume               continue from DIR's checkpoint; the resumed run
//                          reaches bit-identical weights vs. uninterrupted
//
// Execution flags (all commands):
//   --threads=N            width of the kernel-layer thread pool. Results
//                          are bit-identical for every N (see DESIGN.md,
//                          "Kernel execution layer"); the default is the
//                          ADAMINE_NUM_THREADS environment variable, then
//                          the hardware concurrency.
//
// `eval` trains (or reuses `train`'s checkpoint if present), then reports
// the paper's MedR/R@K protocol. `query` loads the checkpoint and retrieves
// dishes for a free-text ingredient list. With no arguments: train AdaMine
// for 15 epochs, save to /tmp/adamine_model.bin, evaluate.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/downstream.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "io/checkpoint.h"
#include "io/serialize.h"
#include "net/remote_transport.h"
#include "net/shard_server.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/stopwatch.h"

namespace {

namespace core = adamine::core;
namespace io = adamine::io;
using adamine::Rng;
using adamine::Tensor;

core::PipelineConfig CliPipelineConfig() {
  core::PipelineConfig config;
  config.generator.num_recipes = 2500;
  config.generator.num_classes = 32;
  config.generator.class_zipf_exponent = 0.5;
  config.generator.seed = 77;
  config.model.seed = 11;
  return config;
}

core::Scenario ParseScenario(const std::string& name) {
  if (name == "adamine_ins") return core::Scenario::kAdaMineIns;
  if (name == "adamine_sem") return core::Scenario::kAdaMineSem;
  if (name == "adamine_avg") return core::Scenario::kAdaMineAvg;
  if (name == "adamine_ins_cls") return core::Scenario::kAdaMineInsCls;
  if (name == "adamine_hier") return core::Scenario::kAdaMineHier;
  if (name == "pwc") return core::Scenario::kPwcStar;
  if (name == "pwcpp") return core::Scenario::kPwcPlusPlus;
  return core::Scenario::kAdaMine;
}

int Fail(const adamine::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Split --flags from positional arguments so the flags can go anywhere.
  std::string checkpoint_dir;
  long checkpoint_every = 1;
  long threads = 0;
  bool resume = false;
  std::string backend = "exhaustive";
  long probes = 0;
  long rerank_factor = 4;
  long serve_batch = 32;
  long serve_cache = 1024;
  double deadline_ms = 0.0;
  long max_inflight = 0;
  long max_queue = 0;
  double degrade_target_ms = 0.0;
  long min_probes = 1;
  long shards = 1;
  long replicas = 1;
  double shard_timeout_ms = 0.0;
  long retry_max = 2;
  double hedge_ms = 0.0;
  long breaker_failures = 3;
  double breaker_open_ms = 100.0;
  bool require_full_coverage = false;
  std::string listen_spec;
  std::string remote_shards;
  long shard_index = 0;
  long shard_count = 1;
  std::string wal_dir;
  long memtable_max_rows = 0;
  long memtable_max_bytes = 0;
  long max_seal_lag = 0;
  double admit_wait_ms = 0.0;
  double scrub_interval_ms = 0.0;
  bool ingest = false;
  std::string embeddings_path = "/tmp/adamine_embeddings.bin";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      checkpoint_dir = arg.substr(std::strlen("--checkpoint-dir="));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      checkpoint_every =
          std::atol(arg.c_str() + std::strlen("--checkpoint-every="));
      if (checkpoint_every <= 0) {
        std::fprintf(stderr, "error: --checkpoint-every must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atol(arg.c_str() + std::strlen("--threads="));
      if (threads <= 0) {
        std::fprintf(stderr, "error: --threads must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend = arg.substr(std::strlen("--backend="));
      // ServeConfig::Validate owns the name check: any registered backend
      // a service can host is accepted, and a miss lists every registered
      // backend.
      adamine::serve::ServeConfig named;
      named.backend = backend;
      if (const adamine::Status st = named.Validate(); !st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    } else if (arg.rfind("--probes=", 0) == 0) {
      probes = std::atol(arg.c_str() + std::strlen("--probes="));
    } else if (arg.rfind("--rerank-factor=", 0) == 0) {
      rerank_factor = std::atol(arg.c_str() + std::strlen("--rerank-factor="));
      if (rerank_factor <= 0) {
        std::fprintf(stderr, "error: --rerank-factor must be positive\n");
        return 2;
      }
    } else if (arg.rfind("--batch=", 0) == 0) {
      serve_batch = std::atol(arg.c_str() + std::strlen("--batch="));
    } else if (arg.rfind("--cache=", 0) == 0) {
      serve_cache = std::atol(arg.c_str() + std::strlen("--cache="));
    } else if (arg.rfind("--embeddings=", 0) == 0) {
      embeddings_path = arg.substr(std::strlen("--embeddings="));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atof(arg.c_str() + std::strlen("--deadline-ms="));
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      max_inflight = std::atol(arg.c_str() + std::strlen("--max-inflight="));
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      max_queue = std::atol(arg.c_str() + std::strlen("--max-queue="));
    } else if (arg.rfind("--degrade-target-ms=", 0) == 0) {
      degrade_target_ms =
          std::atof(arg.c_str() + std::strlen("--degrade-target-ms="));
    } else if (arg.rfind("--min-probes=", 0) == 0) {
      min_probes = std::atol(arg.c_str() + std::strlen("--min-probes="));
      if (min_probes <= 0) {
        std::fprintf(stderr, "error: --min-probes must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atol(arg.c_str() + std::strlen("--shards="));
      if (shards <= 0) {
        std::fprintf(stderr, "error: --shards must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atol(arg.c_str() + std::strlen("--replicas="));
      if (replicas <= 0) {
        std::fprintf(stderr, "error: --replicas must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--shard-timeout-ms=", 0) == 0) {
      shard_timeout_ms =
          std::atof(arg.c_str() + std::strlen("--shard-timeout-ms="));
    } else if (arg.rfind("--retry-max=", 0) == 0) {
      retry_max = std::atol(arg.c_str() + std::strlen("--retry-max="));
    } else if (arg.rfind("--hedge-ms=", 0) == 0) {
      hedge_ms = std::atof(arg.c_str() + std::strlen("--hedge-ms="));
    } else if (arg.rfind("--breaker-failures=", 0) == 0) {
      breaker_failures =
          std::atol(arg.c_str() + std::strlen("--breaker-failures="));
    } else if (arg.rfind("--breaker-open-ms=", 0) == 0) {
      breaker_open_ms =
          std::atof(arg.c_str() + std::strlen("--breaker-open-ms="));
    } else if (arg == "--require-full-coverage") {
      require_full_coverage = true;
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(std::strlen("--listen="));
    } else if (arg.rfind("--remote-shards=", 0) == 0) {
      remote_shards = arg.substr(std::strlen("--remote-shards="));
    } else if (arg.rfind("--shard-index=", 0) == 0) {
      shard_index = std::atol(arg.c_str() + std::strlen("--shard-index="));
      if (shard_index < 0) {
        std::fprintf(stderr, "error: --shard-index must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--shard-count=", 0) == 0) {
      shard_count = std::atol(arg.c_str() + std::strlen("--shard-count="));
      if (shard_count <= 0) {
        std::fprintf(stderr, "error: --shard-count must be positive\n");
        return 1;
      }
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      wal_dir = arg.substr(std::strlen("--wal-dir="));
    } else if (arg.rfind("--memtable-max-rows=", 0) == 0) {
      memtable_max_rows =
          std::atol(arg.c_str() + std::strlen("--memtable-max-rows="));
      if (memtable_max_rows < 0) {
        std::fprintf(stderr, "error: --memtable-max-rows must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--memtable-max-bytes=", 0) == 0) {
      memtable_max_bytes =
          std::atol(arg.c_str() + std::strlen("--memtable-max-bytes="));
      if (memtable_max_bytes < 0) {
        std::fprintf(stderr, "error: --memtable-max-bytes must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--max-seal-lag=", 0) == 0) {
      max_seal_lag = std::atol(arg.c_str() + std::strlen("--max-seal-lag="));
      if (max_seal_lag < 0) {
        std::fprintf(stderr, "error: --max-seal-lag must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--admit-wait-ms=", 0) == 0) {
      admit_wait_ms = std::atof(arg.c_str() + std::strlen("--admit-wait-ms="));
      if (admit_wait_ms < 0.0) {
        std::fprintf(stderr, "error: --admit-wait-ms must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--scrub-interval-ms=", 0) == 0) {
      scrub_interval_ms =
          std::atof(arg.c_str() + std::strlen("--scrub-interval-ms="));
      if (scrub_interval_ms < 0.0) {
        std::fprintf(stderr, "error: --scrub-interval-ms must be >= 0\n");
        return 1;
      }
    } else if (arg == "--ingest") {
      ingest = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 1;
    } else {
      args.push_back(arg);
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    return 1;
  }
  if (shard_index >= shard_count) {
    std::fprintf(stderr,
                 "error: --shard-index must be < --shard-count (%ld)\n",
                 shard_count);
    return 1;
  }
  if (!listen_spec.empty() && !remote_shards.empty()) {
    std::fprintf(stderr,
                 "error: --listen and --remote-shards are exclusive (a "
                 "process is a server or a client, not both)\n");
    return 1;
  }
  if (ingest && backend != "mutable") {
    std::fprintf(stderr,
                 "error: --ingest needs a backend that accepts mutation "
                 "(use --backend=mutable)\n");
    return 1;
  }
  if (ingest && (shards > 1 || !listen_spec.empty() ||
                 !remote_shards.empty())) {
    std::fprintf(stderr,
                 "error: --ingest applies to the plain (unsharded, local) "
                 "serve path\n");
    return 1;
  }
  // --listen shuts down via sigwait. The mask must be in place before any
  // thread exists (the pipeline below spawns the kernel pool): a thread
  // with SIGTERM unblocked would take the default disposition and kill the
  // process before the drain runs.
  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  if (!listen_spec.empty()) {
    pthread_sigmask(SIG_BLOCK, &shutdown_set, nullptr);
  }
  const std::string command = !args.empty() ? args[0] : "eval";
  const std::string arg2 = args.size() > 1 ? args[1] : "adamine";
  const int epochs = args.size() > 2 ? std::atoi(args[2].c_str()) : 15;
  // `query` and `serve` take the checkpoint as their third argument;
  // train/eval as the fourth (after the epoch count).
  const char* kDefaultCheckpoint = "/tmp/adamine_model.bin";
  const std::string checkpoint =
      (command == "query" || command == "serve")
          ? (args.size() > 2 ? args[2] : kDefaultCheckpoint)
          : (args.size() > 3 ? args[3] : kDefaultCheckpoint);

  core::PipelineConfig pipeline_config = CliPipelineConfig();
  pipeline_config.kernel.num_threads = static_cast<int>(threads);
  auto pipeline = core::Pipeline::Create(pipeline_config);
  if (!pipeline.ok()) return Fail(pipeline.status());
  auto& pipe = *pipeline.value();

  if (command == "query" || command == "serve") {
    // Rebuild the model architecture and load the checkpointed weights.
    core::ModelConfig model_config = pipe.config().model;
    model_config.vocab_size = pipe.vocab().size();
    model_config.image_dim = pipe.config().generator.image_dim;
    model_config.num_classes = pipe.config().generator.num_classes;
    auto model =
        core::CrossModalModel::Create(model_config, &pipe.word_embeddings());
    if (!model.ok()) return Fail(model.status());
    if (auto st = io::LoadModel(checkpoint, **model); !st.ok()) {
      std::fprintf(stderr, "cannot load %s (run `train` first): %s\n",
                   checkpoint.c_str(), st.ToString().c_str());
      return 1;
    }
    adamine::Stopwatch dataset_embed_watch;
    core::EmbeddedDataset test = core::EmbedDataset(**model, pipe.test_set());
    const double dataset_embed_ms = dataset_embed_watch.ElapsedMillis();

    adamine::serve::ServeConfig serve_config;
    serve_config.backend = backend;
    serve_config.micro_batch = serve_batch;
    serve_config.cache_capacity = serve_cache;
    serve_config.max_inflight = max_inflight;
    serve_config.max_queue = max_queue;
    serve_config.rerank_factor = rerank_factor;
    serve_config.wal_dir = wal_dir;
    serve_config.memtable_max_rows = memtable_max_rows;
    serve_config.memtable_max_bytes = memtable_max_bytes;
    serve_config.max_seal_lag = max_seal_lag;
    serve_config.admit_wait_ms = admit_wait_ms;
    serve_config.scrub_interval_ms = scrub_interval_ms;
    if (serve_config.backend == adamine::serve::Backend::kIvf) {
      serve_config.ivf.num_lists =
          std::min<int64_t>(32, test.image_emb.rows());
      serve_config.ivf.num_probes =
          probes > 0 ? probes : std::min<int64_t>(4, serve_config.ivf.num_lists);
      serve_config.degradation.target_ms = degrade_target_ms;
      serve_config.degradation.min_probes =
          std::min<int64_t>(min_probes, serve_config.ivf.num_probes);
    }
    adamine::serve::QueryOptions query_options;
    query_options.deadline_ms = deadline_ms;

    if (command == "query") {
      auto service = adamine::serve::RetrievalService::Create(
          test.image_emb, serve_config);
      if (!service.ok()) return Fail(service.status());
      adamine::data::EncodedRecipe query;
      query.ingredient_tokens =
          pipe.vocab().Encode(adamine::text::Tokenize(arg2));
      adamine::Stopwatch embed_watch;
      Tensor emb = (*model)->EmbedRecipes({&query}).value();
      emb = emb.Reshape({emb.numel()});
      (*service)->RecordEmbedMillis(embed_watch.ElapsedMillis());
      std::printf("top 5 dishes for \"%s\" (%s backend):\n", arg2.c_str(),
                  backend.c_str());
      const auto& recipes = pipe.splits().test.recipes;
      auto top5 = (*service)->QueryWithOptions(emb, 5, query_options);
      if (!top5.ok()) return Fail(top5.status());
      for (int64_t idx : top5.value()) {
        const auto& r = recipes[static_cast<size_t>(idx)];
        std::printf("  [%s]", r.class_name.c_str());
        for (const auto& ing : r.ingredients) std::printf(" %s", ing.c_str());
        std::printf("\n");
      }
      std::printf("%s", (*service)->Snapshot().ToString().c_str());
      return 0;
    }

    // serve: export the embedding bundle, reload it into the service, and
    // replay the recipe embeddings as a recipe->image query stream.
    if (auto st = io::SaveTensorBundle(
            embeddings_path, {{"image_emb", test.image_emb},
                              {"recipe_emb", test.recipe_emb}});
        !st.ok()) {
      return Fail(st);
    }
    std::printf("embedding bundle (%lld pairs) exported to %s\n",
                static_cast<long long>(test.image_emb.rows()),
                embeddings_path.c_str());

    // --listen: this process becomes one shard server. It reloads the
    // exported bundle, keeps its --shard-index slice of the corpus, and
    // serves it over the wire protocol until SIGINT/SIGTERM (then drains
    // gracefully). N such processes, indices 0..N-1, are the fleet a
    // --remote-shards client dials.
    if (!listen_spec.empty()) {
      auto bundle = io::LoadTensorBundle(embeddings_path);
      if (!bundle.ok()) return Fail(bundle.status());
      Tensor corpus;
      for (const io::NamedTensor& entry : bundle.value()) {
        if (entry.name == "image_emb") corpus = entry.tensor;
      }
      const int64_t chunk =
          (corpus.rows() + shard_count - 1) / shard_count;
      const int64_t lo = std::min<int64_t>(shard_index * chunk,
                                           corpus.rows());
      const int64_t hi = std::min<int64_t>(lo + chunk, corpus.rows());
      if (lo >= hi) {
        std::fprintf(stderr,
                     "error: shard %ld of %ld owns no rows (corpus has "
                     "%lld)\n",
                     shard_index, shard_count,
                     static_cast<long long>(corpus.rows()));
        return 1;
      }
      if (shard_count > 1) {
        corpus = adamine::SliceRows(corpus, lo, hi);
      }
      auto service =
          adamine::serve::RetrievalService::Create(corpus, serve_config);
      if (!service.ok()) return Fail(service.status());

      adamine::net::ShardServerConfig server_config;
      if (listen_spec.find(':') != std::string::npos) {
        auto endpoint = adamine::net::ParseEndpoint(listen_spec);
        if (!endpoint.ok()) return Fail(endpoint.status());
        server_config.host = endpoint->host;
        server_config.port = endpoint->port;
      } else {
        server_config.port = std::atoi(listen_spec.c_str());
      }
      adamine::net::ShardServer server;
      if (auto st = server.Start(
              std::shared_ptr<adamine::serve::RetrievalService>(
                  std::move(service).value()),
              server_config);
          !st.ok()) {
        return Fail(st);
      }
      std::printf(
          "shard %ld/%ld serving rows [%lld, %lld) on %s:%d (%s backend) "
          "— SIGINT/SIGTERM to drain and exit\n",
          shard_index, shard_count, static_cast<long long>(lo),
          static_cast<long long>(hi), server_config.host.c_str(),
          server.port(), backend.c_str());
      std::fflush(stdout);
      int sig = 0;
      sigwait(&shutdown_set, &sig);
      std::printf("signal %d: draining...\n", sig);
      server.Stop();
      const adamine::net::ShardServerStats stats = server.Snapshot();
      std::printf(
          "served %lld requests ok, %lld failed, %lld connections, "
          "%lld garbage frames rejected\n",
          static_cast<long long>(stats.requests_ok),
          static_cast<long long>(stats.requests_failed),
          static_cast<long long>(stats.connections_accepted),
          static_cast<long long>(stats.frames_rejected));
      return 0;
    }

    // --remote-shards: dial one endpoint per shard (in shard-index order)
    // and replay the query stream through the remote fan-out — the same
    // merge and failover machinery as the in-process sharded path, so
    // healthy answers are bit-identical to the unsharded service and a
    // dead server degrades coverage instead of failing requests.
    if (!remote_shards.empty()) {
      std::vector<std::string> endpoints;
      std::string spec = remote_shards;
      while (!spec.empty()) {
        const size_t comma = spec.find(',');
        endpoints.push_back(spec.substr(0, comma));
        spec = comma == std::string::npos ? "" : spec.substr(comma + 1);
      }
      adamine::serve::ShardedServeConfig sharded_config;
      sharded_config.shard_timeout_ms = shard_timeout_ms;
      sharded_config.hedge_ms = hedge_ms;
      sharded_config.retry.retry_max = retry_max;
      sharded_config.breaker.failure_threshold = breaker_failures;
      sharded_config.breaker.open_ms = breaker_open_ms;
      sharded_config.require_full_coverage = require_full_coverage;
      auto sharded =
          adamine::net::ConnectShardedService(endpoints, sharded_config);
      if (!sharded.ok()) return Fail(sharded.status());
      std::printf("connected to %zu remote shards (%lld items, dim %lld)\n",
                  endpoints.size(),
                  static_cast<long long>((*sharded)->size()),
                  static_cast<long long>((*sharded)->dim()));
      auto results = (*sharded)->QueryBatchWithOptions(test.recipe_emb, 10,
                                                       query_options);
      if (!results.ok()) return Fail(results.status());
      int64_t remote_top1 = 0;
      for (size_t i = 0; i < results->results.size(); ++i) {
        if (!results->results[i].empty() &&
            results->results[i][0].index == static_cast<int64_t>(i)) {
          ++remote_top1;
        }
      }
      std::printf("recipe->image top-1: %.1f%% (%lld / %lld)  coverage %.3f"
                  "%s\n",
                  100.0 * remote_top1 / test.recipe_emb.rows(),
                  static_cast<long long>(remote_top1),
                  static_cast<long long>(test.recipe_emb.rows()),
                  results->coverage, results->partial ? " (partial)" : "");
      std::printf("%s", (*sharded)->Snapshot().ToString().c_str());
      return 0;
    }

    // Sharded path: partition the reloaded corpus across --shards
    // fault-tolerant shards and replay the same query stream through the
    // fan-out/fan-in merge.
    if (shards > 1) {
      if (serve_config.backend == adamine::serve::Backend::kIvf) {
        std::fprintf(stderr,
                     "error: --shards requires an exact backend (scalar or "
                     "exhaustive) — the merge re-ranks per-hit scores\n");
        return 1;
      }
      auto bundle = io::LoadTensorBundle(embeddings_path);
      if (!bundle.ok()) return Fail(bundle.status());
      Tensor corpus;
      for (const io::NamedTensor& entry : bundle.value()) {
        if (entry.name == "image_emb") corpus = entry.tensor;
      }
      adamine::serve::ShardedServeConfig sharded_config;
      sharded_config.num_shards = shards;
      sharded_config.num_replicas = replicas;
      sharded_config.shard = serve_config;
      sharded_config.shard_timeout_ms = shard_timeout_ms;
      sharded_config.hedge_ms = hedge_ms;
      sharded_config.retry.retry_max = retry_max;
      sharded_config.breaker.failure_threshold = breaker_failures;
      sharded_config.breaker.open_ms = breaker_open_ms;
      sharded_config.require_full_coverage = require_full_coverage;
      auto sharded = adamine::serve::ShardedRetrievalService::Create(
          corpus, sharded_config);
      if (!sharded.ok()) return Fail(sharded.status());
      std::printf("serving %lld items across %ld shards x %ld replicas\n",
                  static_cast<long long>((*sharded)->size()), shards,
                  replicas);
      auto results = (*sharded)->QueryBatchWithOptions(test.recipe_emb, 10,
                                                       query_options);
      if (!results.ok()) return Fail(results.status());
      int64_t sharded_top1 = 0;
      for (size_t i = 0; i < results->results.size(); ++i) {
        if (!results->results[i].empty() &&
            results->results[i][0].index == static_cast<int64_t>(i)) {
          ++sharded_top1;
        }
      }
      std::printf("recipe->image top-1: %.1f%% (%lld / %lld)  coverage %.3f"
                  "%s\n",
                  100.0 * sharded_top1 / test.recipe_emb.rows(),
                  static_cast<long long>(sharded_top1),
                  static_cast<long long>(test.recipe_emb.rows()),
                  results->coverage, results->partial ? " (partial)" : "");
      std::printf("%s", (*sharded)->Snapshot().ToString().c_str());
      return 0;
    }

    // --ingest: start the mutable service over the first half of the
    // corpus and live-Add the second half through it — every Add is
    // WAL-acknowledged before it returns, and the replayed query stream
    // below retrieves the just-ingested rows (ids are assigned in Add
    // order, so global row i keeps id i and the top-1 check is unchanged).
    adamine::StatusOr<std::unique_ptr<adamine::serve::RetrievalService>>
        service = adamine::Status(adamine::StatusCode::kInternal,
                                  "service not constructed");
    if (ingest) {
      auto bundle = io::LoadTensorBundle(embeddings_path);
      if (!bundle.ok()) return Fail(bundle.status());
      Tensor corpus;
      for (const io::NamedTensor& entry : bundle.value()) {
        if (entry.name == "image_emb") corpus = entry.tensor;
      }
      const int64_t half = corpus.rows() / 2;
      service = adamine::serve::RetrievalService::Create(
          adamine::SliceRows(corpus, 0, half), serve_config);
      if (!service.ok()) return Fail(service.status());
      adamine::Stopwatch ingest_watch;
      int64_t retried_sheds = 0;
      for (int64_t i = half; i < corpus.rows(); ++i) {
        Tensor row({corpus.cols()});
        std::copy(corpus.data() + i * corpus.cols(),
                  corpus.data() + (i + 1) * corpus.cols(), row.data());
        // Backpressure sheds (kResourceExhausted under --memtable-max-* /
        // --max-seal-lag) are transient by contract: wait briefly for
        // maintenance to drain the memtable, then retry the same row — the
        // loop self-paces to what sealing sustains. Any non-transient
        // failure (read-only latch, corruption) is fatal as before.
        adamine::StatusOr<int64_t> id = (*service)->Add(row);
        while (!id.ok() && id.status().IsTransient()) {
          ++retried_sheds;
          usleep(1000);
          id = (*service)->Add(row);
        }
        if (!id.ok()) return Fail(id.status());
        if (*id != i) {
          std::fprintf(stderr, "error: ingested row %lld got id %lld\n",
                       static_cast<long long>(i),
                       static_cast<long long>(*id));
          return 1;
        }
      }
      const double ingest_ms = ingest_watch.ElapsedMillis();
      const int64_t ingested = corpus.rows() - half;
      std::printf(
          "live-ingested %lld rows in %.1f ms (%.0f acked rows/s, "
          "%lld backpressure retries, wal %s)\n",
          static_cast<long long>(ingested), ingest_ms,
          1e3 * static_cast<double>(ingested) / ingest_ms,
          static_cast<long long>(retried_sheds),
          wal_dir.empty() ? "ephemeral" : wal_dir.c_str());
    } else {
      service = adamine::serve::RetrievalService::Load(
          embeddings_path, "image_emb", serve_config);
      if (!service.ok()) return Fail(service.status());
    }
    (*service)->RecordEmbedMillis(dataset_embed_ms);
    std::printf("serving %lld items (%s backend, micro-batch %ld, "
                "cache %ld)\n",
                static_cast<long long>((*service)->size()), backend.c_str(),
                serve_batch, serve_cache);
    // Two passes over the query stream: the second exercises the cache.
    int64_t top1 = 0;
    for (int pass = 0; pass < 2; ++pass) {
      auto results =
          (*service)->QueryBatchWithOptions(test.recipe_emb, 10,
                                            query_options);
      if (!results.ok()) return Fail(results.status());
      if (pass == 0) {
        for (size_t i = 0; i < results.value().size(); ++i) {
          if (!results.value()[i].empty() &&
              results.value()[i][0] == static_cast<int64_t>(i)) {
            ++top1;
          }
        }
      }
    }
    std::printf("recipe->image top-1: %.1f%% (%lld / %lld)\n",
                100.0 * top1 / test.recipe_emb.rows(),
                static_cast<long long>(top1),
                static_cast<long long>(test.recipe_emb.rows()));
    std::printf("%s", (*service)->Snapshot().ToString().c_str());
    return 0;
  }

  // train / eval.
  core::TrainConfig train;
  train.scenario = ParseScenario(arg2);
  train.epochs = epochs > 0 ? epochs : 15;
  train.learning_rate = 1e-3;
  train.val_bag_size = 200;
  train.seed = 13;
  train.checkpoint_dir = checkpoint_dir;
  train.checkpoint_every_n_epochs = checkpoint_every;
  train.resume = resume;
  train.kernel.num_threads = static_cast<int>(threads);
  std::printf("training %s for %lld epochs on %zu pairs%s...\n",
              core::ScenarioName(train.scenario).c_str(),
              static_cast<long long>(train.epochs), pipe.train_set().size(),
              resume ? " (resuming if a checkpoint exists)" : "");
  auto run = pipe.Run(train);
  if (!run.ok()) return Fail(run.status());

  if (auto st = io::SaveModel(checkpoint, *run->model); !st.ok()) {
    return Fail(st);
  }
  std::printf("checkpoint written to %s (%lld parameters)\n",
              checkpoint.c_str(),
              static_cast<long long>(run->model->NumParams()));

  if (command == "eval") {
    Rng rng(5);
    auto result = adamine::eval::EvaluateBags(
        run->test_embeddings.image_emb, run->test_embeddings.recipe_emb,
        250, 5, rng);
    std::printf(
        "image->recipe: MedR %.1f  R@1 %.1f  R@5 %.1f  R@10 %.1f\n"
        "recipe->image: MedR %.1f  R@1 %.1f  R@5 %.1f  R@10 %.1f\n",
        result.image_to_recipe.medr.mean, result.image_to_recipe.r_at_1.mean,
        result.image_to_recipe.r_at_5.mean,
        result.image_to_recipe.r_at_10.mean,
        result.recipe_to_image.medr.mean, result.recipe_to_image.r_at_1.mean,
        result.recipe_to_image.r_at_5.mean,
        result.recipe_to_image.r_at_10.mean);
  }
  return 0;
}
