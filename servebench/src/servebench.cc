// The serving benchmark: one load-generating process that runs the
// serving stack in-process and measures three workloads end to end.
//
//   servebench gen --workload W --seed N --seconds S --dir D
//   servebench run --workload W --seed N --seconds S --trace 0|1
//                         --dir D [--source-id ID] [--spans PATH]
//
// `gen` writes the seeded inputs (corpus bundle, held-out queries, ingest
// rows, the pre-written mutable corpus) into D and exits, so the `run`
// process never holds the generator's dataset and its peak RSS is the
// serving stack's own. `run` sets up, warms up, drives the workload from
// one client thread that sends one request at a time, checks its answers
// against an exact reference and prints a human-readable report whose last
// line is one JSON object (servebench/run.py turns it into the benchmark
// result). With --trace 1 the workload runs twice with the same seed:
// untraced, then with spans around every call into the serving stack's
// public API, followed by the layer probes.
//
// The end-to-end costs are CPU times of the whole process, taken around
// each request and over the window. On a shared host they leave out the
// time the host gives to other guests, which moves wall-clock latency by
// tens of percent from run to run; wall-clock figures are reported beside
// them, without a bound.
//
// The layers are reached only from outside: public entry points, their
// Snapshot()/stats views and the files the mutable corpus writes.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/generator.h"
#include "harness.h"
#include "io/serialize.h"
#include "kernel/gemm.h"
#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "mutate/manifest.h"
#include "mutate/mutable_corpus.h"
#include "net/frame.h"
#include "net/remote_transport.h"
#include "net/shard_server.h"
#include "quant/int8_corpus.h"
#include "serve/backend.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "util/percentile.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
namespace io = adamine::io;
namespace kernel = adamine::kernel;
namespace mutate = adamine::mutate;
namespace net = adamine::net;
namespace quant = adamine::quant;
namespace serve = adamine::serve;
using adamine::Status;
using adamine::StatusOr;
using adamine::Tensor;

constexpr int64_t kDim = 128;
constexpr int64_t kTopK = 10;
constexpr int64_t kClasses = 192;
constexpr int kSetupReps = 15;
constexpr int64_t kWarmupRows = 16;   // Held-out rows after the requests'.
constexpr int64_t kSampleAnswers = 64;
constexpr int64_t kShards = 3;
constexpr int64_t kSealThreshold = 256;
constexpr int64_t kPrewrittenSegments = 3;
constexpr int64_t kWalTailRows = 200;  // Below kSealThreshold: no seal at open.
constexpr size_t kStreamBytes = size_t{64} << 20;

/// One workload's shapes and latency limit. Every workload is a closed
/// loop: one client thread sends the next request as soon as the previous
/// one is answered.
struct Spec {
  const char* name;
  const char* backend;
  int64_t corpus_rows;
  int64_t query_rows;      // Held-out rows the requests draw from.
  int64_t batch_rows;      // Query rows per request.
  int64_t adds_per_query;  // ingest-live: Add+Delete pairs per request.
  double limit_ms;         // Latency limit, sent as deadline_ms.
};

// Corpus sizes: the paper's 10,000-candidate bag, whose int8 codes take
// 1.25 MiB, 3,000 rows per shard, and 2,000 rows for ingest-live, so a
// request's work stays in a core's own caches. Requests that stream through
// the cache and memory other guests share move with the host's load: over
// ten runs on a busy host, ingest-live at 10,000 rows spread 0.23
// (query_cpu_p1_ms), and a single-query exhaustive workload over 10,000
// rows 0.18 to 0.22, so that workload was left out.
constexpr Spec kSpecs[] = {
    {"bulk-quantized", "quantized", 10000, 4096, 64, 0, 2000.0},
    {"rpc-fanout", "exhaustive", 9000, 2048, 64, 0, 2000.0},
    {"ingest-live", "mutable", 2000, 2048, 16, 2, 2000.0},
};

/// Operation records a window may hold: well above what any workload sends.
constexpr int64_t kMaxOpsPerSecond = 5000;

/// ingest-live's Add rows per second of --seconds: more than twice what
/// the parent commit ingests, so the window ends on time, not on rows.
constexpr int64_t kAddRowsPerSecond = 1500;

struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void OrDie(const Status& status, const std::string& what) {
  if (!status.ok()) throw Fatal(what + ": " + status.ToString());
}

template <typename T>
T OrDie(StatusOr<T> value, const std::string& what) {
  OrDie(value.status(), what);
  return std::move(value).value();
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Row i of `m` as a [1, D] tensor (a fresh buffer per request).
Tensor RowOf(const Tensor& m, int64_t i) {
  Tensor row({1, m.cols()});
  std::copy(m.data() + i * m.cols(), m.data() + (i + 1) * m.cols(),
            row.data());
  return row;
}

Tensor RowsOf(const Tensor& m, const std::vector<int64_t>& rows) {
  Tensor out({static_cast<int64_t>(rows.size()), m.cols()});
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy(m.data() + rows[r] * m.cols(),
              m.data() + (rows[r] + 1) * m.cols(),
              out.data() + static_cast<int64_t>(r) * m.cols());
  }
  return out;
}

double Median(std::vector<double> values) { return Summarize(values).p50; }

int64_t DirBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<int64_t>(entry.file_size());
  }
  return bytes;
}

int64_t ManifestGeneration(const std::string& dir) {
  int64_t newest = -1;
  for (const auto& entry : fs::directory_iterator(dir)) {
    newest = std::max(newest, mutate::ParseManifestGeneration(
                                  entry.path().filename().string()));
  }
  return newest;
}

/// Bytes this process has passed to write(2) so far (/proc/self/io).
int64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// Restarts the peak-RSS count at the current resident set: free heap
/// pages kept by earlier set-up repetitions go back to the system first,
/// so the peak reflects one set-up and the run, not allocator retention.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last ResetPeakRss (VmHWM).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    double kb = 0.0;
    if (key == "VmHWM:" && in >> kb) return kb / 1024.0;
    in.ignore(1 << 10, '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The host's CPU time counters (/proc/stat, all CPUs), in ticks.
std::vector<int64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::vector<int64_t> ticks;
  int64_t value = 0;
  while (ticks.size() < 8 && in >> value) ticks.push_back(value);
  ticks.resize(8, 0);
  return ticks;
}

/// Share of this VM's busy CPU time between two CpuTicks() that the host
/// gave to other guests (steal over user..steal, idle and iowait left out).
double StealShare(const std::vector<int64_t>& before,
                  const std::vector<int64_t>& after) {
  int64_t busy = 0;
  for (size_t f = 0; f < 8; ++f) {
    if (f != 3 && f != 4) busy += after[f] - before[f];
  }
  return busy <= 0 ? 0.0
                   : static_cast<double>(after[7] - before[7]) /
                         static_cast<double>(busy);
}

Tensor LoadNamed(const std::string& path, const std::string& name) {
  auto bundle = OrDie(io::LoadTensorBundle(path), "load " + path);
  for (auto& entry : bundle) {
    if (entry.name == name) return entry.tensor;
  }
  throw Fatal("no tensor '" + name + "' in " + path);
}

// ---------------------------------------------------------------------------
// Inputs: generated by `gen`, read back (untimed) by `run`.
// ---------------------------------------------------------------------------

int64_t AddRows(const Spec& spec, int seconds) {
  return spec.adds_per_query > 0 ? kAddRowsPerSecond * seconds : 0;
}

/// L2-normalised RecipeGenerator image features: 192 Zipf-distributed
/// classes, so neighbourhoods are dense as in Recipe1M.
Tensor GenerateRows(uint64_t seed, int64_t rows) {
  adamine::data::GeneratorConfig config;
  config.num_recipes = rows;
  config.num_classes = kClasses;
  config.image_dim = kDim;
  config.seed = seed;
  auto generator =
      OrDie(adamine::data::RecipeGenerator::Create(config), "generator");
  const adamine::data::Dataset dataset = generator.Generate();
  Tensor items({rows, kDim});
  for (int64_t i = 0; i < rows; ++i) {
    const Tensor& image = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(image.data(), image.data() + kDim, items.data() + i * kDim);
  }
  return adamine::L2NormalizeRows(items);
}

void Generate(const Spec& spec, uint64_t seed, int seconds,
              const std::string& dir) {
  const int64_t held_out = spec.query_rows + kWarmupRows;
  const int64_t adds = AddRows(spec, seconds);
  const Tensor all =
      GenerateRows(Mix(seed, 1), spec.corpus_rows + held_out + adds);
  const Tensor items = adamine::SliceRows(all, 0, spec.corpus_rows);
  std::vector<io::NamedTensor> inputs = {
      {"queries", adamine::SliceRows(all, spec.corpus_rows,
                                     spec.corpus_rows + held_out)}};
  if (adds > 0) {
    inputs.push_back({"adds", adamine::SliceRows(all, spec.corpus_rows +
                                                          held_out,
                                                 all.rows())});
  }
  OrDie(io::SaveTensorBundle(dir + "/queries.admb", inputs), "save queries");
  if (std::string(spec.backend) != "mutable") {
    OrDie(io::SaveTensorBundle(dir + "/items.admb", {{"items", items}}),
          "save items");
    return;
  }
  // ingest-live reopens a corpus written beforehand: sealed segments plus
  // an unsealed WAL tail.
  mutate::MutableCorpusConfig config;
  config.dim = kDim;
  config.seal_threshold = int64_t{1} << 40;
  config.background = false;
  auto corpus =
      OrDie(mutate::MutableCorpus::Open(dir + "/pristine", config), "open");
  const int64_t sealed_rows = spec.corpus_rows - kWalTailRows;
  for (int64_t s = 0; s < kPrewrittenSegments; ++s) {
    const int64_t r0 = s * sealed_rows / kPrewrittenSegments;
    const int64_t r1 = (s + 1) * sealed_rows / kPrewrittenSegments;
    OrDie(corpus->AddBatch(adamine::SliceRows(items, r0, r1)).status(),
          "seed segment");
    OrDie(corpus->Flush(), "seal segment");
  }
  OrDie(corpus->AddBatch(adamine::SliceRows(items, sealed_rows,
                                            spec.corpus_rows))
            .status(),
        "seed WAL tail");
}

struct Inputs {
  std::string dir;
  Tensor queries;  // [query_rows + kWarmupRows, D]
  Tensor adds;     // ingest-live: rows to Add, in order.
};

// ---------------------------------------------------------------------------
// Pass results and the measurement plumbing shared by the workloads.
// ---------------------------------------------------------------------------

using Layers = std::map<std::string, double>;

struct PassResult {
  double setup_ms = 0.0;          // Median over kSetupReps.
  std::vector<OpRecord> queries;  // Query requests of the window.
  std::vector<OpRecord> writes;   // ingest-live's Adds and Deletes.
  OpCounts counts;                // Every operation of the window.
  double window_s = 0.0;          // Wall time of the window.
  double window_cpu_ms = 0.0;     // Process CPU time over the window.
  double steal_frac = 0.0;        // Host steal share over the window.
  double peak_rss_mb = 0.0;  // From the last set-up to the window's end.
  Layers layer;       // Per-layer metrics (traced pass, probes).
  std::string error;  // Non-empty when a correctness gate failed.
};

struct RunArgs {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
};

/// Gives `ops` room for every operation of a window and touches it before
/// the peak-RSS count restarts, so the records the load adds do not show
/// in peak_rss_mb (a vector that doubles would, by megabytes).
void ReserveOps(std::vector<OpRecord>* ops, int seconds) {
  ops->assign(static_cast<size_t>(kMaxOpsPerSecond * seconds), OpRecord{});
  ops->clear();
}

/// Runs the load `body` as the pass's timed window, recording its wall
/// time, the process's CPU time, the host's steal share and the peak RSS.
template <typename Body>
void TimeWindow(PassResult* pass, Body body) {
  const std::vector<int64_t> ticks = CpuTicks();
  const double cpu0 = ProcessCpuMs();
  const auto t0 = Clock::now();
  body();
  pass->window_s = MillisBetween(t0, Clock::now()) / 1e3;
  pass->window_cpu_ms = ProcessCpuMs() - cpu0;
  pass->steal_frac = StealShare(ticks, CpuTicks());
  pass->peak_rss_mb = PeakRssMb();
}

/// Runs `teardown` (untimed) then `setup` kSetupReps times; returns the
/// median wall time of `setup` in ms. The last setup's objects serve the
/// run, and the peak-RSS count restarts just before it.
template <typename Teardown, typename Setup>
double TimeSetups(Tracer* tracer, Teardown teardown, Setup setup) {
  std::vector<double> ms;
  for (int r = 0; r < kSetupReps; ++r) {
    teardown();
    if (r == kSetupReps - 1) ResetPeakRss();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup");
      setup(span.id());
    }
    ms.push_back(MillisBetween(t0, Clock::now()));
  }
  return Median(ms);
}

/// The first answer seen for sampled query rows, kept for the correctness
/// gate. Id-only answers carry score 0 and are compared by id.
class AnswerLog {
 public:
  void Record(int64_t row, const std::vector<int64_t>& ids) {
    std::vector<serve::ScoredHit> hits;
    for (int64_t id : ids) hits.push_back({id, 0.0f});
    Record(row, std::move(hits));
  }
  void Record(int64_t row, std::vector<serve::ScoredHit> hits) {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int64_t>(answers_.size()) < kSampleAnswers) {
      answers_.emplace(row, std::move(hits));
    }
  }
  std::map<int64_t, std::vector<serve::ScoredHit>> answers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return answers_;
  }

 private:
  mutable std::mutex mu_;
  std::map<int64_t, std::vector<serve::ScoredHit>> answers_;
};

/// Exact answers for `queries` from the scalar reference backend over
/// `items`; ids are mapped through `ids` when given (row i has id ids[i]).
std::vector<std::vector<serve::ScoredHit>> ScalarAnswers(
    const Tensor& items, const Tensor& queries,
    const std::vector<int64_t>* ids = nullptr) {
  serve::BackendConfig config;
  config.items = items;
  auto scalar = OrDie(serve::CreateBackend("scalar", config), "scalar");
  auto result = OrDie(
      scalar->ScoreTopK(serve::QueryBatch{queries}, nullptr, kTopK, {}),
      "scalar scoring");
  if (ids != nullptr) {
    for (auto& row : result.hits) {
      for (auto& hit : row) hit.index = (*ids)[static_cast<size_t>(hit.index)];
    }
  }
  return result.hits;
}

bool SameIds(const std::vector<serve::ScoredHit>& a,
             const std::vector<serve::ScoredHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index) return false;
  }
  return true;
}

/// Gate: the run's sampled answers (by id, or by id and score bits when
/// `scored`) and `rescored` (ids and score bits of the sample rows served
/// again after the window) equal `exact`, all for the rows of `log`.
void CompareAnswers(const std::map<int64_t, std::vector<serve::ScoredHit>>& log,
                    const std::vector<std::vector<serve::ScoredHit>>& exact,
                    const std::vector<std::vector<serve::ScoredHit>>* rescored,
                    bool scored, std::string* error) {
  if (log.empty()) {
    *error = "no answers were sampled";
    return;
  }
  size_t i = 0;
  for (const auto& [row, hits] : log) {
    const bool same = scored ? hits == exact[i] : SameIds(hits, exact[i]);
    if (!same) {
      *error = "answer for query row " + std::to_string(row) +
               " differs from the exact reference";
      return;
    }
    if (rescored != nullptr && (*rescored)[i] != exact[i]) {
      *error = "re-scored answer for query row " + std::to_string(row) +
               " differs from the exact reference (ids or score bits)";
      return;
    }
    ++i;
  }
}

std::vector<int64_t> LoggedRows(
    const std::map<int64_t, std::vector<serve::ScoredHit>>& log) {
  std::vector<int64_t> rows;
  for (const auto& entry : log) rows.push_back(entry.first);
  return rows;
}

/// Sampled-answer gate for a single RetrievalService over `items`.
void CheckService(serve::RetrievalService& service, const Tensor& items,
                  const Tensor& queries, const AnswerLog& log,
                  std::string* error) {
  const auto answers = log.answers();
  if (answers.empty()) {
    *error = "no answers were sampled";
    return;
  }
  const Tensor sample = RowsOf(queries, LoggedRows(answers));
  const auto rescored = OrDie(
      service.QueryBatchScored(sample, kTopK, {}), "re-score sample");
  CompareAnswers(answers, ScalarAnswers(items, sample), &rescored,
                 /*scored=*/false, error);
}

/// Query-request percentiles from the request spans.
void RequestSpanLayers(const std::vector<Span>& requests, Layers* layer) {
  std::vector<double> ms;
  for (const Span& span : requests) ms.push_back(span.duration_ms());
  const LatencySummary s = Summarize(ms);
  (*layer)["serve.request_ms.p50"] = s.p50;
  (*layer)["serve.request_ms.p99"] = s.p99;
}

/// serve.* metrics from a Snapshot and every request span of the pass.
/// Each request is scored by `parallel` services at once (the shards of a
/// fan-out), so its overhead subtracts their mean score and rank time.
void ServeStatsLayers(const serve::ServeStats& stats,
                      const std::vector<Span>& requests, double parallel,
                      Layers* layer) {
  double span_ms = 0.0;
  for (const Span& span : requests) span_ms += span.duration_ms();
  const double n = std::max<double>(1.0, static_cast<double>(requests.size()));
  (*layer)["serve.score_ms.mean"] = stats.score.mean_ms();
  (*layer)["serve.rank_ms.mean"] = stats.rank.mean_ms();
  (*layer)["serve.overhead_ms.mean"] =
      (span_ms - (stats.score.total_ms + stats.rank.total_ms) / parallel) / n;
  (*layer)["serve.dispatches_per_miss"] =
      stats.cache_misses == 0 ? 0.0
                              : static_cast<double>(stats.batches) /
                                    static_cast<double>(stats.cache_misses);
  (*layer)["serve.cache_hit_ratio"] = stats.cache_hit_rate();
  (*layer)["serve.shed"] = static_cast<double>(stats.shed);
  (*layer)["serve.deadline_misses"] =
      static_cast<double>(stats.deadline_misses + stats.queue_timeouts);
}

/// io.load_ms and io.load_mb_per_s from the set-up's bundle-load spans.
void LoadLayers(const Tracer& tracer, const std::string& bundle,
                Layers* layer) {
  std::vector<double> ms;
  for (const Span& span : tracer.Named("io.load")) {
    ms.push_back(span.duration_ms());
  }
  const double load_ms = Median(ms);
  (*layer)["io.load_ms"] = load_ms;
  (*layer)["io.load_mb_per_s"] =
      static_cast<double>(fs::file_size(bundle)) / 1e6 / (load_ms / 1e3);
}

/// Repeats `body` for at least `min_reps` runs and `min_ms` milliseconds,
/// each inside span `name`; returns the median run in ms.
template <typename Body>
double ProbeMs(Tracer* tracer, const char* name, Body body, int min_reps = 5,
               double min_ms = 200.0) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         MillisBetween(start, Clock::now()) < min_ms) {
    ScopedSpan span(tracer, name);
    const auto t0 = Clock::now();
    body();
    ms.push_back(MillisBetween(t0, Clock::now()));
  }
  return Median(ms);
}

/// GFLOP/s of one kernel::Gemm of m query rows against `items` [N, D]
/// (trans_b), the exhaustive and mutable backends' scoring call.
double ProbeGemmGflops(Tracer* tracer, const char* name, const Tensor& items,
                       const Tensor& queries, int64_t m) {
  const int64_t n = items.rows();
  std::vector<float> out(static_cast<size_t>(m * n));
  const double ms = ProbeMs(tracer, name, [&] {
    kernel::Gemm(queries.data(), kDim, false, items.data(), kDim, true, m, n,
                 kDim, out.data());
  });
  return 2.0 * static_cast<double>(m * n * kDim) / (ms * 1e6);
}

/// Streaming-copy bandwidth over the kernel pool, STREAM-copy convention
/// (bytes read + bytes written per second), on two 64 MiB buffers.
double ProbeStreamGbps(Tracer* tracer) {
  std::vector<char> src(kStreamBytes, 1);
  std::vector<char> dst(kStreamBytes, 0);
  constexpr int64_t kChunk = int64_t{1} << 20;
  const double ms = ProbeMs(tracer, "machine.stream", [&] {
    kernel::ParallelFor(static_cast<int64_t>(kStreamBytes), kChunk,
                        [&](int64_t begin, int64_t end) {
                          std::memcpy(dst.data() + begin, src.data() + begin,
                                      static_cast<size_t>(end - begin));
                        });
  });
  return 2.0 * static_cast<double>(kStreamBytes) / (ms * 1e6);
}

/// Nearest-rank percentile `p` of the process CPU time per query request.
double QueryCpuMs(const PassResult& pass, double p) {
  std::vector<double> cpu;
  for (const OpRecord& op : pass.queries) cpu.push_back(op.cpu_ms);
  if (cpu.empty()) return 0.0;
  std::sort(cpu.begin(), cpu.end());
  return adamine::util::SortedPercentile(cpu, p);
}

int64_t AnsweredRows(const PassResult& pass) {
  int64_t rows = 0;
  for (const OpRecord& op : pass.queries) {
    if (op.cause == Cause::kOk) rows += op.rows;
  }
  return rows;
}

// ---------------------------------------------------------------------------
// bulk-quantized: 64-row batches of unique queries against `quantized`.
// ---------------------------------------------------------------------------

PassResult RunBulkQuantized(const RunArgs& run, const Inputs& in,
                            Tracer* tracer) {
  const Spec& spec = *run.spec;
  PassResult pass;
  ReserveOps(&pass.queries, run.seconds);
  serve::ServeConfig config;
  config.backend = serve::Backend::kQuantized;
  std::unique_ptr<serve::RetrievalService> service;
  Tensor items;
  pass.setup_ms = TimeSetups(
      tracer, [&] { service.reset(); },
      [&](int64_t parent) {
        {
          ScopedSpan load(tracer, "io.load", -1, parent);
          items = LoadNamed(in.dir + "/items.admb", "items");
        }
        ScopedSpan create(tracer, "serve.create", -1, parent);
        service = OrDie(serve::RetrievalService::Create(items, config),
                        "create service");
      });
  service->QueryBatch(adamine::SliceRows(in.queries, spec.query_rows,
                                         spec.query_rows + kWarmupRows),
                      kTopK);
  service->ResetStats();

  // Batch j holds rows (j * 64 + r) mod query_rows: a cycle four times the
  // cache's 1024 entries, so every row is evicted before it comes back.
  AnswerLog log;
  const auto send = [&](int64_t j) {
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < spec.batch_rows; ++r) {
      rows.push_back((j * spec.batch_rows + r) % spec.query_rows);
    }
    const Tensor batch = RowsOf(in.queries, rows);
    serve::QueryOptions options;
    options.deadline_ms = spec.limit_ms;
    auto result = [&] {
      ScopedSpan span(tracer, "serve.request", j);
      return service->QueryBatchWithOptions(batch, kTopK, options);
    }();
    if (result.ok() && j % 4 == 0) log.Record(rows[0], result.value()[0]);
    OpRecord op;
    op.cause = Classify(result.status());
    op.rows = spec.batch_rows;
    return op;
  };
  TimeWindow(&pass, [&] {
    RunClosedLoop(run.seconds, Clock::now(), send, &pass.queries);
  });

  if (tracer != nullptr) {
    const std::vector<Span> requests = tracer->Named("serve.request");
    const serve::ServeStats stats = service->Snapshot();
    RequestSpanLayers(requests, &pass.layer);
    ServeStatsLayers(stats, requests, 1.0, &pass.layer);
    LoadLayers(*tracer, in.dir + "/items.admb", &pass.layer);
    // The exhaustive backend's single-query call, at this corpus's size.
    pass.layer["kernel.gemm_gflops.m1"] = ProbeGemmGflops(
        tracer, "kernel.gemm.m1", items, in.queries, 1);

    quant::QuantizedCorpus codes;
    pass.layer["quant.quantize_ms"] =
        ProbeMs(tracer, "quant.quantize", [&] {
          codes = OrDie(quant::QuantizeRows(items), "quantize");
        }, 3, 0.0);
    const auto query = OrDie(quant::QuantizeRows(RowOf(in.queries, 0)),
                             "quantize query");
    std::vector<int32_t> dots(static_cast<size_t>(codes.rows));
    const double scan_ms = ProbeMs(tracer, "kernel.int8_scan", [&] {
      kernel::Int8ScanRows(codes.codes.data(), codes.rows, codes.dim,
                           query.codes.data(), dots.data());
    });
    const double scan_gbps =
        static_cast<double>(codes.rows * codes.dim) / (scan_ms * 1e6);
    pass.layer["kernel.int8_scan_gbps"] = scan_gbps;
    pass.layer["machine.stream_gbps"] = ProbeStreamGbps(tracer);
    pass.layer["kernel.int8_scan_roofline_frac"] =
        scan_gbps / pass.layer["machine.stream_gbps"];
    // Score time per query row, from the service's own score stage.
    const double score_ms_per_row =
        stats.cache_misses == 0
            ? 0.0
            : stats.score.total_ms / static_cast<double>(stats.cache_misses);
    pass.layer["quant.scan_share"] =
        score_ms_per_row > 0.0 ? scan_ms / score_ms_per_row : 0.0;
  }
  CheckService(*service, items, in.queries, log, &pass.error);
  return pass;
}

// ---------------------------------------------------------------------------
// rpc-fanout: three loopback ShardServers behind a sharded service.
// ---------------------------------------------------------------------------

/// Maps a request's query buffer to its request id and span: the sharded
/// service hands every shard a copy of the caller's tensor, and tensor
/// copies share their buffer, so the data pointer names the request.
class RequestRegistry {
 public:
  void Add(const float* key, int64_t request, int64_t span) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = {request, span};
  }
  void Remove(const float* key) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(key);
  }
  std::pair<int64_t, int64_t> Find(const float* key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? std::pair<int64_t, int64_t>{-1, -1} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<const float*, std::pair<int64_t, int64_t>> map_;
};

/// A benchmark-owned ShardTransport decorator: one "net.shard_rtt" span
/// per QueryScored, a child of the request that caused it.
class TracingTransport : public serve::ShardTransport {
 public:
  TracingTransport(std::shared_ptr<serve::ShardTransport> inner,
                   Tracer* tracer, const RequestRegistry* registry)
      : inner_(std::move(inner)), tracer_(tracer), registry_(registry) {}

  StatusOr<std::vector<std::vector<serve::ScoredHit>>> QueryScored(
      const Tensor& queries, int64_t k, TimePoint deadline) override {
    const auto [request, parent] = registry_->Find(queries.data());
    ScopedSpan span(tracer_, "net.shard_rtt", request, parent);
    return inner_->QueryScored(queries, k, deadline);
  }
  int64_t size() const override { return inner_->size(); }
  std::string description() const override { return inner_->description(); }

 private:
  std::shared_ptr<serve::ShardTransport> inner_;
  Tracer* tracer_;
  const RequestRegistry* registry_;
};

struct Fleet {
  std::vector<std::shared_ptr<serve::RetrievalService>> services;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::shared_ptr<net::RemoteShardTransport>> transports;
  std::unique_ptr<serve::ShardedRetrievalService> sharded;

  void Stop() {
    sharded.reset();
    transports.clear();
    for (auto& server : servers) server->Stop();
    servers.clear();
    services.clear();
  }
};

void RpcLayers(const Fleet& fleet, const Tracer& tracer, Layers* layer) {
  const std::vector<Span> requests = tracer.Named("serve.request");
  RequestSpanLayers(requests, layer);
  std::unordered_map<int64_t, std::vector<Span>> shard_spans;
  std::vector<double> rtt;
  for (const Span& span : tracer.Named("net.shard_rtt")) {
    if (span.request < 0) continue;  // Warm-up.
    shard_spans[span.request].push_back(span);
    rtt.push_back(span.duration_ms());
  }
  std::vector<double> self_ms, skew_ms;
  for (const Span& request : requests) {
    const auto& children = shard_spans[request.request];
    if (children.empty()) continue;
    self_ms.push_back(SelfTimeMs(request, children));
    double lo = children[0].duration_ms(), hi = lo;
    for (const Span& child : children) {
      lo = std::min(lo, child.duration_ms());
      hi = std::max(hi, child.duration_ms());
    }
    skew_ms.push_back(hi - lo);
  }
  (*layer)["serve.fanout_self_ms.p50"] = Summarize(self_ms).p50;
  (*layer)["serve.shard_skew_ms.p99"] = Summarize(skew_ms).p99;
  const LatencySummary rtt_summary = Summarize(rtt);
  (*layer)["net.shard_rtt_ms.p50"] = rtt_summary.p50;
  (*layer)["net.shard_rtt_ms.p99"] = rtt_summary.p99;

  // The shard services' own stages, summed over the fleet.
  serve::ServeStats total;
  for (const auto& service : fleet.services) {
    const serve::ServeStats stats = service->Snapshot();
    total.batches += stats.batches;
    total.shed += stats.shed;
    total.deadline_misses += stats.deadline_misses;
    total.queue_timeouts += stats.queue_timeouts;
    total.score.count += stats.score.count;
    total.score.total_ms += stats.score.total_ms;
    total.rank.count += stats.rank.count;
    total.rank.total_ms += stats.rank.total_ms;
  }
  ServeStatsLayers(total, requests, static_cast<double>(fleet.services.size()),
                   layer);
  const double server_ms =
      total.batches == 0 ? 0.0
                         : (total.score.total_ms + total.rank.total_ms) /
                               static_cast<double>(total.batches);
  (*layer)["net.server_ms.mean"] = server_ms;
  (*layer)["net.wire_ms.mean"] = rtt_summary.mean - server_ms;

  const serve::ShardedServeStats sharded = fleet.sharded->Snapshot();
  (*layer)["serve.shard_retries"] = static_cast<double>(sharded.retries);
  (*layer)["serve.shard_timeouts"] = static_cast<double>(sharded.timeouts);
  (*layer)["serve.breaker_opens"] = static_cast<double>(sharded.breaker_opens);
  int64_t hits = 0, dials = 0, rejected = 0, failed = 0;
  for (const auto& transport : fleet.transports) {
    const net::ShardChannelStats channel = transport->ChannelSnapshot();
    hits += channel.pool_hits;
    dials += channel.dials;
  }
  for (const auto& server : fleet.servers) {
    const net::ShardServerStats stats = server->Snapshot();
    rejected += stats.frames_rejected;
    failed += stats.requests_failed;
  }
  (*layer)["net.pool_hit_ratio"] =
      hits + dials == 0 ? 0.0 : static_cast<double>(hits) / (hits + dials);
  (*layer)["net.frames_rejected"] = static_cast<double>(rejected);
  (*layer)["net.requests_failed"] = static_cast<double>(failed);
}

/// ADRP frame costs at the workload's shapes: a B x D query request and
/// its B x k-hit response, encoded, then reassembled (CRC check) and
/// decoded.
void ProbeFrames(Tracer* tracer, const Tensor& queries, Layers* layer) {
  constexpr int kCalls = 2000;
  net::QueryRequest request;
  request.request_id = 7;
  request.k = kTopK;
  request.deadline_ms = 100.0;
  request.queries = queries;
  net::QueryResponse response;
  response.request_id = 7;
  response.results.resize(static_cast<size_t>(queries.rows()));
  for (auto& hits : response.results) {
    for (int64_t i = 0; i < kTopK; ++i) {
      hits.push_back({i, 1.0f / static_cast<float>(i + 1)});
    }
  }
  std::string request_bytes, response_bytes;
  const double encode_ms = ProbeMs(tracer, "net.frame_encode", [&] {
    for (int c = 0; c < kCalls; ++c) {
      request_bytes = net::EncodeQueryRequest(request);
      response_bytes = net::EncodeQueryResponse(response);
    }
  });
  const auto decode = [](const std::string& bytes, auto decoder) {
    net::FrameAssembler assembler;
    assembler.Append(bytes.data(), bytes.size());
    net::Frame frame;
    OrDie(assembler.Next(&frame), "frame");
    OrDie(decoder(frame.payload), "decode");
  };
  const double decode_ms = ProbeMs(tracer, "net.frame_decode", [&] {
    for (int c = 0; c < kCalls; ++c) {
      decode(request_bytes, net::DecodeQueryRequest);
      decode(response_bytes, net::DecodeQueryResponse);
    }
  });
  (*layer)["net.frame_encode_us"] = encode_ms * 1e3 / kCalls;
  (*layer)["net.frame_decode_us"] = decode_ms * 1e3 / kCalls;
}

PassResult RunRpcFanout(const RunArgs& run, const Inputs& in, Tracer* tracer) {
  const Spec& spec = *run.spec;
  PassResult pass;
  ReserveOps(&pass.queries, run.seconds);
  serve::ServeConfig shard_config;  // exhaustive
  RequestRegistry registry;
  Fleet fleet;
  Tensor items;
  pass.setup_ms = TimeSetups(
      tracer, [&] { fleet.Stop(); },
      [&](int64_t parent) {
        {
          ScopedSpan load(tracer, "io.load", -1, parent);
          items = LoadNamed(in.dir + "/items.admb", "items");
        }
        const int64_t rows = items.rows();
        for (int64_t s = 0; s < kShards; ++s) {
          {
            ScopedSpan create(tracer, "serve.create", -1, parent);
            fleet.services.push_back(OrDie(
                serve::RetrievalService::Create(
                    adamine::SliceRows(items, s * rows / kShards,
                                       (s + 1) * rows / kShards),
                    shard_config),
                "create shard"));
          }
          ScopedSpan start(tracer, "net.start", -1, parent);
          fleet.servers.push_back(std::make_unique<net::ShardServer>());
          OrDie(fleet.servers.back()->Start(fleet.services.back(),
                                            net::ShardServerConfig()),
                "start shard server");
        }
        std::vector<std::vector<std::shared_ptr<serve::ShardTransport>>> shards;
        for (const auto& server : fleet.servers) {
          ScopedSpan dial(tracer, "net.connect", -1, parent);
          fleet.transports.push_back(OrDie(
              net::RemoteShardTransport::Connect("127.0.0.1", server->port()),
              "connect"));
          std::shared_ptr<serve::ShardTransport> transport =
              fleet.transports.back();
          if (tracer != nullptr) {
            transport = std::make_shared<TracingTransport>(transport, tracer,
                                                           &registry);
          }
          shards.push_back({transport});
        }
        fleet.sharded = OrDie(serve::ShardedRetrievalService::
                                  CreateFromTransports(std::move(shards), kDim,
                                                       {}),
                              "assemble fleet");
      });
  for (int64_t w = 0; w < kWarmupRows; ++w) {
    OrDie(fleet.sharded->Query(RowOf(in.queries, spec.query_rows + w), kTopK)
              .status(),
          "warm-up");
  }
  fleet.sharded->ResetStats();
  for (const auto& service : fleet.services) service->ResetStats();

  AnswerLog log;
  const auto send = [&](int64_t i) {
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < spec.batch_rows; ++r) {
      rows.push_back((i * spec.batch_rows + r) % spec.query_rows);
    }
    const Tensor batch = RowsOf(in.queries, rows);
    serve::QueryOptions options;
    options.deadline_ms = spec.limit_ms;
    auto result = [&] {
      ScopedSpan span(tracer, "serve.request", i);
      if (tracer != nullptr) registry.Add(batch.data(), i, span.id());
      auto got = fleet.sharded->QueryBatchWithOptions(batch, kTopK, options);
      if (tracer != nullptr) registry.Remove(batch.data());
      return got;
    }();
    OpRecord op;
    op.cause = Classify(result.status(), result.ok() && result->partial);
    op.rows = spec.batch_rows;
    if (op.cause == Cause::kOk && i % 8 == 0) {
      log.Record(rows[0], result->results[0]);
    }
    return op;
  };
  TimeWindow(&pass, [&] {
    RunClosedLoop(run.seconds, Clock::now(), send, &pass.queries);
  });

  if (tracer != nullptr) {
    RpcLayers(fleet, *tracer, &pass.layer);
    pass.layer["kernel.gemm_gflops.m16"] = ProbeGemmGflops(
        tracer, "kernel.gemm.m16",
        adamine::SliceRows(items, 0, items.rows() / kShards), in.queries, 16);
    ProbeFrames(tracer, adamine::SliceRows(in.queries, 0, spec.batch_rows),
                &pass.layer);
  }
  fleet.Stop();

  // Gate: the fleet's answers (ids and score bits) equal an unsharded
  // exhaustive service's over the same rows.
  const auto answers = log.answers();
  auto unsharded = OrDie(serve::RetrievalService::Create(items, shard_config),
                         "unsharded service");
  const auto exact = OrDie(unsharded->QueryBatchScored(
                               RowsOf(in.queries, LoggedRows(answers)), kTopK,
                               {}),
                           "unsharded scoring");
  CompareAnswers(answers, exact, nullptr, /*scored=*/true, &pass.error);
  return pass;
}

// ---------------------------------------------------------------------------
// ingest-live: durable single-row Adds beside 16-row query batches on the
// mutable backend.
// ---------------------------------------------------------------------------

/// Samples the mutable backend's pressure gauges while the load runs; a
/// fall in memtable rows is a seal (the workload never deletes).
class PressureSampler {
 public:
  explicit PressureSampler(serve::RetrievalService* service)
      : service_(service), thread_([this] { Loop(); }) {}
  ~PressureSampler() { Stop(); }
  PressureSampler(const PressureSampler&) = delete;
  PressureSampler& operator=(const PressureSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  int64_t seals() const { return seals_; }
  int64_t mem_rows_peak() const { return mem_rows_peak_; }
  int64_t seal_lag_peak() const { return seal_lag_peak_; }

 private:
  void Loop() {
    int64_t last = -1;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return stop_; })) {
      const serve::MutationPressure p = service_->Snapshot().mutation;
      if (last >= 0 && p.mem_rows < last) ++seals_;
      last = p.mem_rows;
      mem_rows_peak_ = std::max(mem_rows_peak_, p.mem_rows);
      seal_lag_peak_ = std::max(seal_lag_peak_, p.seal_lag);
    }
  }

  serve::RetrievalService* service_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t seals_ = 0;
  int64_t mem_rows_peak_ = 0;
  int64_t seal_lag_peak_ = 0;
  std::thread thread_;  // Last: started after the fields it uses.
};

/// Every live row of a flushed corpus, ordered by id.
struct CorpusRows {
  std::vector<int64_t> ids;
  Tensor rows;
  int64_t largest_segment = 0;
};

CorpusRows FlushAndRead(const std::string& dir, int64_t expected_rows,
                        std::string* error) {
  mutate::MutableCorpusConfig config;
  config.dim = kDim;
  config.background = false;
  auto corpus = OrDie(mutate::MutableCorpus::Open(dir, config), "reopen");
  if (corpus->live_rows() != expected_rows) {
    *error = "recovered " + std::to_string(corpus->live_rows()) +
             " live rows, expected " + std::to_string(expected_rows) +
             " (recovered rows + acked Adds - acked Deletes)";
  }
  OrDie(corpus->Flush(), "flush");
  const auto snapshot = corpus->snapshot();
  std::vector<std::pair<int64_t, const float*>> rows;
  CorpusRows out;
  for (const auto& segment : snapshot->sealed) {
    out.largest_segment = std::max(out.largest_segment, segment->size());
    for (int64_t r = 0; r < segment->size(); ++r) {
      const int64_t id = segment->ids[static_cast<size_t>(r)];
      if (!snapshot->deleted(id)) {
        rows.emplace_back(id, segment->rows.data() + r * kDim);
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  out.rows = Tensor({static_cast<int64_t>(rows.size()), kDim});
  for (size_t i = 0; i < rows.size(); ++i) {
    out.ids.push_back(rows[i].first);
    std::copy(rows[i].second, rows[i].second + kDim,
              out.rows.data() + static_cast<int64_t>(i) * kDim);
  }
  return out;
}

PassResult RunIngestLive(const RunArgs& run, const Inputs& in,
                         Tracer* tracer) {
  const Spec& spec = *run.spec;
  PassResult pass;
  std::vector<OpRecord> ops;  // Adds, Deletes and queries, in send order.
  ReserveOps(&ops, run.seconds);
  const std::string pristine = in.dir + "/pristine";
  const std::string live = in.dir + "/live";
  serve::ServeConfig config;
  config.backend = serve::Backend::kMutable;
  config.wal_dir = live;
  config.seal_threshold = kSealThreshold;
  // A recovered corpus is the source of truth; Create still needs one
  // valid row to learn the dimension from.
  const Tensor any_row = RowOf(in.queries, 0);
  std::unique_ptr<serve::RetrievalService> service;
  pass.setup_ms = TimeSetups(
      tracer,
      [&] {
        service.reset();
        fs::remove_all(live);
        fs::copy(pristine, live, fs::copy_options::recursive);
      },
      [&](int64_t parent) {
        ScopedSpan recover(tracer, "mutate.recover", -1, parent);
        service = OrDie(serve::RetrievalService::Create(any_row, config),
                        "recover corpus");
      });
  const int64_t recovered = service->size();
  for (int64_t w = 0; w < kWarmupRows; w += spec.batch_rows) {
    service->QueryBatch(adamine::SliceRows(in.queries, spec.query_rows + w,
                                           spec.query_rows + w +
                                               spec.batch_rows),
                        kTopK);
  }
  service->ResetStats();

  const auto query = [&](int64_t j) {
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < spec.batch_rows; ++r) {
      rows.push_back((j * spec.batch_rows + r) % spec.query_rows);
    }
    const Tensor batch = RowsOf(in.queries, rows);
    serve::QueryOptions options;
    options.deadline_ms = spec.limit_ms;
    auto result = [&] {
      ScopedSpan span(tracer, "serve.request", j);
      return service->QueryBatchWithOptions(batch, kTopK, options);
    }();
    OpRecord op;
    op.cause = Classify(result.status());
    op.rows = spec.batch_rows;
    return op;
  };
  const auto add = [&](int64_t a) {
    const Tensor row = RowOf(in.adds, a);
    auto id = [&] {
      ScopedSpan span(tracer, "mutate.add", a);
      return service->Add(row);
    }();
    OpRecord op;
    op.cause = Classify(id.status());
    op.rows = 1;
    return op;
  };
  // The a-th Delete retires id a, the oldest live row (ids are assigned in
  // order, the recovered corpus holding 0 .. recovered-1), so the live
  // corpus stays at its recovered size however many rows a run ingests.
  const auto retire = [&](int64_t a) {
    const Status status = [&] {
      ScopedSpan span(tracer, "mutate.delete", a);
      return service->Delete(a);
    }();
    OpRecord op;
    op.cause = Classify(status);
    op.rows = 1;
    return op;
  };
  // The loop repeats a cycle of adds_per_query pairs of a durable Add and
  // a Delete, then one query batch. The window ends early if the generated
  // rows run out.
  const int64_t cycle = 2 * spec.adds_per_query + 1;
  const int64_t generation_before = ManifestGeneration(live);
  const int64_t written_before = WrittenBytes();
  std::unique_ptr<PressureSampler> sampler;
  if (tracer != nullptr) sampler = std::make_unique<PressureSampler>(service.get());
  TimeWindow(&pass, [&] {
    RunClosedLoop(run.seconds, Clock::now(), [&](int64_t i) {
      const int64_t at = i % cycle;
      const int64_t a = i / cycle * spec.adds_per_query + at / 2;
      if (at == cycle - 1) return query(i / cycle);
      return at % 2 == 0 ? add(a) : retire(a);
    }, &ops, in.adds.rows() / spec.adds_per_query * cycle);
  });
  if (sampler) sampler->Stop();
  int64_t acked = 0, retired = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t at = static_cast<int64_t>(i) % cycle;
    if (at == cycle - 1) {
      pass.queries.push_back(ops[i]);
      continue;
    }
    pass.writes.push_back(ops[i]);
    if (ops[i].cause == Cause::kOk) ++(at % 2 == 0 ? acked : retired);
  }

  if (service->size() != recovered + acked - retired) {
    pass.error = "serving " + std::to_string(service->size()) +
                 " rows after the run, expected " +
                 std::to_string(recovered) + " recovered + " +
                 std::to_string(acked) + " acked Adds - " +
                 std::to_string(retired) + " acked Deletes";
  }
  if (tracer != nullptr) {
    const std::vector<Span> requests = tracer->Named("serve.request");
    const serve::ServeStats stats = service->Snapshot();
    RequestSpanLayers(requests, &pass.layer);
    ServeStatsLayers(stats, requests, 1.0, &pass.layer);
    std::vector<double> add_ms;
    for (const Span& span : tracer->Named("mutate.add")) {
      add_ms.push_back(span.duration_ms());
    }
    const LatencySummary add_summary = Summarize(add_ms);
    pass.layer["mutate.add_ms.p50"] = add_summary.p50;
    pass.layer["mutate.add_ms.p99"] = add_summary.p99;
    const int64_t generations = ManifestGeneration(live) - generation_before;
    pass.layer["mutate.seals"] = static_cast<double>(sampler->seals());
    pass.layer["mutate.merges"] =
        static_cast<double>(std::max<int64_t>(0, generations - sampler->seals()));
    pass.layer["mutate.mem_rows.peak"] =
        static_cast<double>(sampler->mem_rows_peak());
    pass.layer["mutate.seal_lag.peak"] =
        static_cast<double>(sampler->seal_lag_peak());
    pass.layer["mutate.write_amp"] =
        acked == 0 ? 0.0
                   : static_cast<double>(WrittenBytes() - written_before) /
                         static_cast<double>(acked * kDim *
                                             static_cast<int64_t>(sizeof(float)));
    pass.layer["mutate.recovery_ms_per_mb"] =
        pass.setup_ms / (static_cast<double>(DirBytes(pristine)) / 1e6);
    pass.layer["mutate.sheds"] =
        static_cast<double>(stats.mutation.backpressure_sheds);
  }
  service.reset();

  // Gate: reopen, flush, and compare sampled answers with the scalar
  // reference over the surviving rows.
  std::string error;
  const CorpusRows corpus =
      FlushAndRead(live, recovered + acked - retired, &error);
  if (pass.error.empty()) pass.error = error;
  service = OrDie(serve::RetrievalService::Create(any_row, config), "reopen");
  std::vector<int64_t> sample;
  for (int64_t r = 0; r < kSampleAnswers; ++r) sample.push_back(r);
  const Tensor sample_rows = RowsOf(in.queries, sample);
  const auto served =
      OrDie(service->QueryBatchScored(sample_rows, kTopK, {}), "re-score");
  const auto exact = ScalarAnswers(corpus.rows, sample_rows, &corpus.ids);
  if (served != exact && pass.error.empty()) {
    pass.error = "answers over the flushed corpus differ from the scalar "
                 "reference (ids or score bits)";
  }
  if (tracer != nullptr) {
    pass.layer["kernel.gemm_gflops.m16"] = ProbeGemmGflops(
        tracer, "kernel.gemm.m16",
        adamine::SliceRows(corpus.rows, 0, corpus.largest_segment),
        in.queries, 16);
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonObject(const Layers& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += Quoted(key) + ": " + Number(value);
  }
  return out + "}";
}

void FinishCounts(PassResult* pass) {
  pass->counts.Merge(CountOps(pass->queries));
  pass->counts.Merge(CountOps(pass->writes));
}

/// The end-to-end metrics of an untraced pass. The CPU time is taken at
/// the 1st percentile: a busy host inflates most requests by tens of
/// percent, and the fastest ones much less (see servebench/README.md).
Layers EndToEnd(const PassResult& pass) {
  return {
      {"query_cpu_p1_ms", QueryCpuMs(pass, 1.0)},
      {"setup_s", pass.setup_ms / 1e3},
      {"peak_rss_mb", pass.peak_rss_mb},
  };
}

void PrintLatency(const char* label, const std::vector<OpRecord>& ops,
                  double limit_ms) {
  if (ops.empty()) return;
  const LatencySummary s = Summarize(LatenciesWithMisses(ops, limit_ms));
  std::vector<double> cpu;
  int64_t misses = 0;
  for (const OpRecord& op : ops) {
    cpu.push_back(op.cpu_ms);
    if (op.cause != Cause::kOk || op.latency_ms > limit_ms) ++misses;
  }
  std::printf(
      "  %-8s n=%lld wall p50=%.3f ms p99=%.3f ms max=%.3f ms "
      "beyond_p99=%lld limit_misses=%lld (limit %.0f ms) cpu p50=%.3f ms "
      "| %s\n",
      label, static_cast<long long>(s.count), s.p50, s.p99, s.max,
      static_cast<long long>(s.beyond_p99), static_cast<long long>(misses),
      limit_ms, Summarize(cpu).p50, CountOps(ops).ToString().c_str());
}

void PrintPass(const char* label, const Spec& spec, const PassResult& pass) {
  std::printf(
      "%s pass: setup %.3f ms (median of %d) | window %.2f s, cpu %.2f s, "
      "steal %.3f | %s | gate %s\n",
      label, pass.setup_ms, kSetupReps, pass.window_s,
      pass.window_cpu_ms / 1e3, pass.steal_frac,
      pass.counts.ToString().c_str(),
      pass.error.empty() ? "ok" : pass.error.c_str());
  PrintLatency("queries", pass.queries, spec.limit_ms);
  PrintLatency("writes", pass.writes, spec.limit_ms);
}

std::string Fingerprint(const Spec& spec, const RunArgs& run, bool trace,
                        const std::string& source_id) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"source\": %s, \"cpu\": %s, \"nproc\": %d, \"int8_isa\": %s, "
      "\"pool_threads\": %d, \"build_type\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %d, \"trace\": %d, \"backend\": %s, "
      "\"corpus_rows\": %lld, \"dim\": %lld, \"k\": %lld, "
      "\"query_rows\": %lld, \"batch_rows\": %lld, \"loop\": \"closed\", "
      "\"clients\": 1, \"adds_per_query\": %lld, \"limit_ms\": %s}",
      Quoted(source_id).c_str(), Quoted(CpuModel()).c_str(), Nproc(),
      Quoted(kernel::Int8DotIsa()).c_str(), kernel::NumThreads(),
      Quoted(SERVEBENCH_BUILD_TYPE).c_str(), Quoted(spec.name).c_str(),
      static_cast<unsigned long long>(run.seed), run.seconds, trace ? 1 : 0,
      Quoted(spec.backend).c_str(), static_cast<long long>(spec.corpus_rows),
      static_cast<long long>(kDim), static_cast<long long>(kTopK),
      static_cast<long long>(spec.query_rows),
      static_cast<long long>(spec.batch_rows),
      static_cast<long long>(spec.adds_per_query),
      Number(spec.limit_ms).c_str());
  return buf;
}

using PassFn = PassResult (*)(const RunArgs&, const Inputs&, Tracer*);

PassFn PassOf(const Spec& spec) {
  const std::string name = spec.name;
  if (name == "bulk-quantized") return RunBulkQuantized;
  if (name == "rpc-fanout") return RunRpcFanout;
  return RunIngestLive;
}

int Run(const RunArgs& run, const std::string& dir, bool trace,
        const std::string& source_id, const std::string& spans_path) {
  const Spec& spec = *run.spec;
  Inputs in;
  in.dir = dir;
  in.queries = LoadNamed(dir + "/queries.admb", "queries");
  if (spec.adds_per_query > 0) {
    in.adds = LoadNamed(dir + "/queries.admb", "adds");
  }

  // A one-thread kernel pool, pinned and started before anything is timed:
  // scoring runs on the thread that sends the request.
  kernel::SetNumThreads(1);
  kernel::ParallelFor(1 << 16, 1 << 10, [](int64_t, int64_t) {});
  const std::string fingerprint = Fingerprint(spec, run, trace, source_id);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  const PassFn pass_fn = PassOf(spec);
  PassResult untraced = pass_fn(run, in, nullptr);
  FinishCounts(&untraced);
  PrintPass("untraced", spec, untraced);
  const Layers e2e = EndToEnd(untraced);
  OpCounts counts = untraced.counts;
  std::string error = untraced.error;

  Layers layer;
  if (trace) {
    Tracer tracer(Clock::now());
    PassResult traced = pass_fn(run, in, &tracer);
    FinishCounts(&traced);
    PrintPass("traced", spec, traced);
    counts.Merge(traced.counts);
    if (error.empty()) error = traced.error;
    layer = traced.layer;
    // Wall-clock figures of the untraced pass, unbounded: on a shared host
    // they move with the CPU time the host gives to other guests.
    const LatencySummary wall =
        Summarize(LatenciesWithMisses(untraced.queries, spec.limit_ms));
    layer["e2e.query_ms.p50"] = wall.p50;
    layer["e2e.query_ms.p99"] = wall.p99;
    layer["e2e.rows_per_s"] =
        static_cast<double>(AnsweredRows(untraced)) / untraced.window_s;
    // Mean cost, with cache hits, writes and background work: it follows
    // the host's load more than the median does, so it has no bound.
    layer["e2e.rows_per_cpu_s"] = static_cast<double>(AnsweredRows(untraced)) /
                                  (untraced.window_cpu_ms / 1e3);
    layer["machine.steal_frac"] = untraced.steal_frac;
    layer["e2e.query_cpu_ms.p50"] = QueryCpuMs(untraced, 50.0);
    layer["trace.overhead_frac"] =
        (QueryCpuMs(traced, 1.0) - e2e.at("query_cpu_p1_ms")) /
        e2e.at("query_cpu_p1_ms");
    if (!spans_path.empty()) OrDie(tracer.WriteTsv(spans_path), "spans");
  } else {
    for (const auto& [key, value] : e2e) {
      std::printf("  %-16s %s\n", key.c_str(), Number(value).c_str());
    }
  }
  for (const auto& [key, value] : layer) {
    std::printf("  %-34s %s\n", key.c_str(), Number(value).c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"error\": %s, \"e2e\": %s, \"layer\": %s, \"fingerprint\": %s}\n",
      error.empty() ? "true" : "false",
      static_cast<long long>(counts.attempted),
      static_cast<long long>(counts.failed()), Quoted(error).c_str(),
      trace ? "{}" : JsonObject(e2e).c_str(), JsonObject(layer).c_str(),
      fingerprint.c_str());
  return error.empty() ? 0 : 1;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench gen|run --workload W "
                         "--seed N --seconds S --dir D [--trace 0|1]\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const Spec* spec = FindSpec(flags["--workload"]);
  if (spec == nullptr || flags["--dir"].empty() || flags["--seed"].empty() ||
      flags["--seconds"].empty()) {
    std::fprintf(stderr, "servebench: need a known --workload, "
                         "--seed, --seconds and --dir\n");
    return 2;
  }
  RunArgs run;
  run.spec = spec;
  run.seed = std::stoull(flags["--seed"]);
  run.seconds = std::stoi(flags["--seconds"]);
  if (mode == "gen") {
    Generate(*spec, run.seed, run.seconds, flags["--dir"]);
    return 0;
  }
  if (mode == "run") {
    return Run(run, flags["--dir"], flags["--trace"] == "1",
               flags["--source-id"], flags["--spans"]);
  }
  std::fprintf(stderr, "servebench: unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
