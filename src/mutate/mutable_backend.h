#ifndef ADAMINE_MUTATE_MUTABLE_BACKEND_H_
#define ADAMINE_MUTATE_MUTABLE_BACKEND_H_

#include <memory>
#include <string>

#include "mutate/mutable_corpus.h"
#include "serve/backend.h"

namespace adamine::mutate {

/// The "mutable" scoring backend: a MutableCorpus behind the ScoringBackend
/// seam. Each sealed segment and each memtable chunk's filled prefix is
/// scored with one GEMM, and every block's scores go to one kernel::TopK
/// per query, ranked by (score desc, global id asc) with tombstoned rows
/// skipped — bit-identical to the scalar reference over the surviving rows
/// at every thread count, so the golden-diff harness covers it like any
/// static backend.
///
/// Mutations (Add / Delete / epoch) are forwarded to the corpus; queries
/// score against the snapshot current at entry, never a half-sealed state.
class MutableBackend final : public serve::ScoringBackend {
 public:
  /// `owned_dir` non-empty means the backend created an ephemeral corpus
  /// directory (BackendConfig::wal_dir was empty) and deletes it on
  /// destruction; a caller-provided wal_dir is persistent and left alone.
  MutableBackend(std::unique_ptr<MutableCorpus> corpus,
                 std::string owned_dir);
  ~MutableBackend() override;

  const char* name() const override { return "mutable"; }
  int64_t size() const override { return corpus_->live_rows(); }
  int64_t dim() const override { return corpus_->dim(); }
  int64_t epoch() const override { return corpus_->epoch(); }

  StatusOr<int64_t> Add(const Tensor& row) override;
  Status Delete(int64_t id) override;
  serve::MutationPressure pressure() const override;

  /// The hosted corpus, for callers that drive seals / merges explicitly
  /// (tests, the ingest bench).
  MutableCorpus* corpus() { return corpus_.get(); }

 protected:
  StatusOr<serve::TopKResult> ScoreTopKImpl(
      const serve::QueryBatch& batch, const serve::Filter* filter, int64_t k,
      const serve::QueryOptions& options) override;

 private:
  std::unique_ptr<MutableCorpus> corpus_;
  std::string owned_dir_;
};

/// Factory behind the registry's "mutable" entry (registered in
/// serve/backend.cc with the other built-ins). An empty
/// BackendConfig::wal_dir gets a fresh ephemeral directory; a fresh corpus
/// (no ids ever assigned) is seeded with the config's item rows in order,
/// ids 0..N-1, while a recovered corpus is the source of truth and the
/// items are ignored.
StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateMutableBackend(
    const serve::BackendConfig& config);

}  // namespace adamine::mutate

#endif  // ADAMINE_MUTATE_MUTABLE_BACKEND_H_
