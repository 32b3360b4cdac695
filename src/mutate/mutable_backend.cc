#include "mutate/mutable_backend.h"

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "kernel/topk.h"
#include "util/stopwatch.h"

namespace adamine::mutate {

namespace {

void RemoveDirRecursive(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

MutableBackend::MutableBackend(std::unique_ptr<MutableCorpus> corpus,
                               std::string owned_dir)
    : corpus_(std::move(corpus)), owned_dir_(std::move(owned_dir)) {}

MutableBackend::~MutableBackend() {
  corpus_.reset();  // Stops the maintenance thread before the dir goes.
  if (!owned_dir_.empty()) RemoveDirRecursive(owned_dir_);
}

StatusOr<int64_t> MutableBackend::Add(const Tensor& row) {
  return corpus_->Add(row);
}

Status MutableBackend::Delete(int64_t id) { return corpus_->Delete(id); }

serve::MutationPressure MutableBackend::pressure() const {
  const MutableCorpus::Stats stats = corpus_->GetStats();
  serve::MutationPressure pressure;
  pressure.mem_rows = stats.mem_rows;
  pressure.mem_bytes = stats.mem_bytes;
  pressure.seal_lag = stats.seal_lag;
  pressure.backpressure_sheds = stats.backpressure_sheds;
  pressure.wal_transient_failures = stats.wal_transient_failures;
  pressure.scrubs = stats.scrubs;
  pressure.quarantined_segments = stats.quarantined_segments;
  pressure.quarantined_rows = stats.quarantined_rows;
  pressure.last_scrub_unix_ms = stats.last_scrub_unix_ms;
  pressure.read_only = stats.read_only;
  return pressure;
}

StatusOr<serve::TopKResult> MutableBackend::ScoreTopKImpl(
    const serve::QueryBatch& batch, int64_t k,
    const serve::QueryOptions& /*options*/) {
  const std::shared_ptr<const CorpusSnapshot> snap = corpus_->snapshot();
  const int64_t b = batch.queries.rows();
  const int64_t d = snap->dim;
  serve::TopKResult out;
  Stopwatch watch;
  // One GEMM per sealed segment and per memtable chunk's filled prefix. The
  // per-element accumulation order is the scalar reference chain, so these
  // scores carry reference bits.
  struct Block {
    const int64_t* ids;
    int64_t rows;
    Tensor sims;  // [b, rows]
  };
  std::vector<Block> blocks;
  const auto score = [&](const float* rows_data, const int64_t* ids,
                         int64_t rows) {
    if (rows <= 0) return;
    Tensor sims({b, rows});
    kernel::Gemm(batch.queries.data(), d, false, rows_data, d, true, b, rows,
                 d, sims.data());
    blocks.push_back(Block{ids, rows, std::move(sims)});
  };
  for (const auto& segment : snap->sealed) {
    score(segment->rows.data(), segment->ids.data(), segment->size());
  }
  for (size_t c = 0; c < snap->mem.size(); ++c) {
    const int64_t first = static_cast<int64_t>(c) * MemChunk::kRows;
    score(snap->mem[c]->data.data(), snap->mem[c]->ids.data(),
          std::min(MemChunk::kRows, snap->mem_rows - first));
  }
  out.score_ms = watch.ElapsedMillis();
  watch.Restart();
  out.hits.resize(static_cast<size_t>(b));
  const auto deleted = [&snap](int64_t id) { return snap->deleted(id); };
  kernel::ParallelFor(b, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
    kernel::TopK top(k);
    for (int64_t i = i0; i < i1; ++i) {
      for (const Block& block : blocks) {
        top.Push(block.sims.data() + i * block.rows, block.ids, block.rows,
                 deleted);
      }
      out.hits[static_cast<size_t>(i)] = top.Take();
    }
  });
  out.rank_ms = watch.ElapsedMillis();
  return out;
}

StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateMutableBackend(
    const serve::BackendConfig& config) {
  MutableCorpusConfig corpus_config;
  corpus_config.dim = config.items.cols();
  corpus_config.seal_threshold = config.seal_threshold;
  corpus_config.memtable_max_rows = config.memtable_max_rows;
  corpus_config.memtable_max_bytes = config.memtable_max_bytes;
  corpus_config.max_seal_lag = config.max_seal_lag;
  corpus_config.admit_wait_ms = config.admit_wait_ms;
  corpus_config.scrub_interval_ms = config.scrub_interval_ms;
  std::string dir = config.wal_dir;
  std::string owned_dir;
  if (dir.empty()) {
    const char* base = ::getenv("TMPDIR");
    if (base == nullptr || *base == '\0') base = "/tmp";
    std::string templ = std::string(base) + "/adamine-mutable-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::Internal("cannot create an ephemeral corpus dir under " +
                              std::string(base));
    }
    dir = owned_dir = buf.data();
  }
  auto corpus = MutableCorpus::Open(dir, corpus_config);
  if (!corpus.ok()) {
    if (!owned_dir.empty()) RemoveDirRecursive(owned_dir);
    return corpus.status();
  }
  // A fresh corpus (no id ever assigned) is seeded with the item rows in
  // order, so ids equal the static backends' row indices and the golden
  // harness can diff it against the scalar oracle directly. A recovered
  // corpus is the source of truth; the items are ignored.
  if (corpus.value()->snapshot()->next_id == 0 && config.items.rows() > 0) {
    auto seeded = corpus.value()->AddBatch(config.items);
    if (!seeded.ok()) {
      corpus.value().reset();
      if (!owned_dir.empty()) RemoveDirRecursive(owned_dir);
      return seeded.status();
    }
  }
  return std::unique_ptr<serve::ScoringBackend>(new MutableBackend(
      std::move(corpus.value()), std::move(owned_dir)));
}

}  // namespace adamine::mutate
