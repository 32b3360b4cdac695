// Ingredient->Image (the paper's Table 4 use case): map a single ingredient
// word into the shared latent space — completed with the mean instruction
// embedding of the training set — and retrieve pizza images that visually
// contain it ("what can I cook with what's in my fridge?").
//
// Because the data is synthetic, ground truth is available: we report how
// often the retrieved pizzas' recipes really contain the queried ingredient
// versus the base rate among all pizzas.

#include <cstdio>
#include <string>
#include <vector>

#include "core/downstream.h"
#include "tensor/ops.h"
#include "core/pipeline.h"
#include "serve/retrieval_service.h"

namespace {

using adamine::Tensor;
namespace core = adamine::core;
namespace data = adamine::data;
namespace serve = adamine::serve;

core::PipelineConfig Config() {
  core::PipelineConfig config;
  config.generator.num_recipes = 2500;
  config.generator.num_classes = 32;
  config.generator.class_zipf_exponent = 0.5;  // Curated named dishes only.
  config.generator.seed = 21;
  config.model.seed = 3;
  return config;
}

}  // namespace

int main() {
  std::printf("== Ingredient -> Image (Table 4 use case) ==\n");
  auto pipeline = core::Pipeline::Create(Config());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto& pipe = *pipeline.value();

  core::TrainConfig train;
  train.scenario = core::Scenario::kAdaMine;
  train.epochs = 20;
  train.learning_rate = 1e-3;
  train.val_bag_size = 200;
  train.seed = 4;
  std::printf("training AdaMine on %zu pairs...\n", pipe.train_set().size());
  auto run = pipe.Run(train);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  // Candidate pool: pizza images from the test set.
  const data::Inventory& inventory = pipe.generator().inventory();
  const int64_t pizza = inventory.ClassId("pizza");
  const auto& emb = run->test_embeddings;
  std::vector<int64_t> pizza_rows;
  for (size_t i = 0; i < emb.true_classes.size(); ++i) {
    if (emb.true_classes[i] == pizza) {
      pizza_rows.push_back(static_cast<int64_t>(i));
    }
  }
  std::printf("candidate pool: %zu pizza images in the test set\n",
              pizza_rows.size());
  Tensor pizza_emb = adamine::GatherRows(emb.image_emb, pizza_rows);
  auto index = serve::RetrievalService::Create(pizza_emb, serve::ServeConfig());
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  Tensor mean_instr =
      core::MeanInstructionFeature(*run->model, pipe.train_set());
  const auto& test_recipes = pipe.splits().test.recipes;

  const int64_t top_k = 10;
  for (const std::string ingredient :
       {"mushrooms", "pineapple", "olives", "pepperoni", "strawberries"}) {
    Tensor query = core::EmbedIngredientQuery(*run->model, pipe.vocab(),
                                              ingredient, mean_instr);
    auto top = (*index)->Query(query, top_k);
    const int64_t gid = inventory.IngredientId(ingredient);
    int64_t hits = 0;
    int64_t base = 0;
    for (int64_t row : pizza_rows) {
      if (test_recipes[static_cast<size_t>(row)].HasIngredient(gid)) ++base;
    }
    for (int64_t idx : top) {
      const int64_t row = pizza_rows[static_cast<size_t>(idx)];
      if (test_recipes[static_cast<size_t>(row)].HasIngredient(gid)) ++hits;
    }
    std::printf(
        "  '%s' within class pizza: %lld/%lld of top-%lld contain it "
        "(base rate %.0f%%)\n",
        ingredient.c_str(), static_cast<long long>(hits),
        static_cast<long long>(top_k), static_cast<long long>(top_k),
        100.0 * base / static_cast<double>(pizza_rows.size()));
  }
  return 0;
}
