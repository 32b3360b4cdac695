#ifndef ADAMINE_CORE_EMBEDDER_H_
#define ADAMINE_CORE_EMBEDDER_H_

#include <cstdint>
#include <vector>

#include "core/model.h"
#include "data/dataset.h"

namespace adamine::core {

/// A dataset pushed through both branches of a model: aligned rows of unit
/// image / recipe embeddings plus the labels needed for evaluation.
struct EmbeddedDataset {
  Tensor image_emb;   // [N, latent_dim]
  Tensor recipe_emb;  // [N, latent_dim]
  std::vector<int64_t> labels;        // Visible labels (-1 = unlabeled).
  std::vector<int64_t> true_classes;  // Generator ground truth.
};

/// Embeds every pair of `recipes` in chunks (no gradients are recorded:
/// parameters are temporarily frozen for the forward passes).
EmbeddedDataset EmbedDataset(CrossModalModel& model,
                             const std::vector<data::EncodedRecipe>& recipes,
                             int64_t chunk_size = 256);

}  // namespace adamine::core

#endif  // ADAMINE_CORE_EMBEDDER_H_
