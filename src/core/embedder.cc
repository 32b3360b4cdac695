#include "core/embedder.h"

#include <algorithm>

#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace adamine::core {

namespace {

/// RAII: disables requires_grad on every parameter for the scope, so eval
/// forward passes skip all backward bookkeeping, then restores flags.
class FrozenScope {
 public:
  explicit FrozenScope(CrossModalModel& model) : model_(model) {
    for (const auto& p : model.Params()) {
      flags_.push_back(p.var.requires_grad());
      p.var.node()->requires_grad = false;
    }
  }
  ~FrozenScope() {
    auto params = model_.Params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].var.node()->requires_grad = flags_[i];
    }
  }
  FrozenScope(const FrozenScope&) = delete;
  FrozenScope& operator=(const FrozenScope&) = delete;

 private:
  CrossModalModel& model_;
  std::vector<bool> flags_;
};

}  // namespace

EmbeddedDataset EmbedDataset(CrossModalModel& model,
                             const std::vector<data::EncodedRecipe>& recipes,
                             int64_t chunk_size) {
  ADAMINE_CHECK(!recipes.empty());
  ADAMINE_CHECK_GT(chunk_size, 0);
  FrozenScope frozen(model);

  const int64_t n = static_cast<int64_t>(recipes.size());
  const int64_t latent = model.config().latent_dim;
  const int64_t image_dim = model.config().image_dim;
  EmbeddedDataset out;
  out.image_emb = Tensor({n, latent});
  out.recipe_emb = Tensor({n, latent});
  out.labels.reserve(recipes.size());
  out.true_classes.reserve(recipes.size());
  for (const auto& r : recipes) {
    out.labels.push_back(r.label);
    out.true_classes.push_back(r.true_class);
  }

  for (int64_t start = 0; start < n; start += chunk_size) {
    const int64_t end = std::min(n, start + chunk_size);
    const int64_t b = end - start;
    Tensor images({b, image_dim});
    std::vector<const data::EncodedRecipe*> batch;
    batch.reserve(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      const auto& r = recipes[static_cast<size_t>(start + i)];
      ADAMINE_CHECK_EQ(r.image.numel(), image_dim);
      std::copy(r.image.data(), r.image.data() + image_dim,
                images.data() + i * image_dim);
      batch.push_back(&r);
    }
    Tensor img_emb = model.EmbedImages(images).value();
    Tensor rec_emb = model.EmbedRecipes(batch).value();
    std::copy(img_emb.data(), img_emb.data() + img_emb.numel(),
              out.image_emb.data() + start * latent);
    std::copy(rec_emb.data(), rec_emb.data() + rec_emb.numel(),
              out.recipe_emb.data() + start * latent);
  }
  return out;
}

RetrievalIndex::RetrievalIndex(Tensor items) : items_(std::move(items)) {
  ADAMINE_CHECK_EQ(items_.ndim(), 2);
}

std::vector<int64_t> RetrievalIndex::Query(const Tensor& query,
                                           int64_t k) const {
  ADAMINE_CHECK_EQ(query.numel(), items_.cols());
  const int64_t n = items_.rows();
  const int64_t d = items_.cols();
  std::vector<float> sims(static_cast<size_t>(n));
  // The reference dot, so this scalar path stays bit-identical to the
  // serving layer's batched GEMM scoring.
  for (int64_t i = 0; i < n; ++i) {
    sims[static_cast<size_t>(i)] =
        kernel::DotAscending(items_.data() + i * d, query.data(), d);
  }
  kernel::TopK top(k);
  top.Push(sims.data(), n, /*base_id=*/0);
  std::vector<int64_t> ids;
  for (const kernel::ScoredHit& hit : top.Take()) ids.push_back(hit.index);
  return ids;
}

}  // namespace adamine::core
