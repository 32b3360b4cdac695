// Removing-ingredient task (the paper's Table 5): take a tofu saute recipe
// containing broccoli, retrieve its nearest images, then delete broccoli
// from the ingredient list and instructions and retrieve again. The
// retrieved images should stop containing broccoli — useful for dietary
// restrictions. Ground truth ingredient presence comes from the generator.

#include <cstdio>
#include <string>
#include <vector>

#include "core/downstream.h"
#include "core/pipeline.h"
#include "serve/retrieval_service.h"

namespace {

namespace core = adamine::core;
namespace data = adamine::data;
namespace serve = adamine::serve;
using adamine::Tensor;

core::PipelineConfig Config() {
  core::PipelineConfig config;
  config.generator.num_recipes = 2500;
  config.generator.num_classes = 32;
  config.generator.class_zipf_exponent = 0.5;
  config.generator.seed = 22;
  config.model.seed = 5;
  return config;
}

void Report(const char* label, const std::vector<int64_t>& top,
            const std::vector<data::Recipe>& recipes, int64_t gid) {
  std::printf("  %s top-%zu images:", label, top.size());
  int64_t with = 0;
  for (int64_t idx : top) {
    const bool has = recipes[static_cast<size_t>(idx)].HasIngredient(gid);
    with += has;
    std::printf(" %s%s", recipes[static_cast<size_t>(idx)].class_name.c_str(),
                has ? "[broccoli]" : "");
  }
  std::printf("  -> %lld/%zu with broccoli\n", static_cast<long long>(with),
              top.size());
}

}  // namespace

int main() {
  std::printf("== Removing-ingredient task (Table 5 use case) ==\n");
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
  train.seed = 6;
  std::printf("training AdaMine on %zu pairs...\n", pipe.train_set().size());
  auto run = pipe.Run(train);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  const data::Inventory& inventory = pipe.generator().inventory();
  const int64_t broccoli = inventory.IngredientId("broccoli");
  const auto& test_recipes = pipe.splits().test.recipes;

  // Find a broccoli recipe in the test set, preferring the paper's tofu
  // saute.
  const data::Recipe* query = nullptr;
  for (const auto& r : test_recipes) {
    if (r.HasIngredient(broccoli) &&
        (query == nullptr || r.class_name == "tofu_saute")) {
      query = &r;
      if (r.class_name == "tofu_saute") break;
    }
  }
  if (query == nullptr) {
    std::fprintf(stderr, "no broccoli recipe in the test split\n");
    return 1;
  }
  std::printf("query recipe (%s): ", query->class_name.c_str());
  for (const auto& ing : query->ingredients) std::printf("%s ", ing.c_str());
  std::printf("\n");

  auto index = serve::RetrievalService::Create(run->test_embeddings.image_emb,
                                              serve::ServeConfig());
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto embed = [&](const data::Recipe& recipe) {
    data::EncodedRecipe encoded = data::EncodeRecipe(recipe, pipe.vocab());
    Tensor emb = run->model->EmbedRecipes({&encoded}).value();
    return emb.Reshape({emb.numel()});
  };

  Report("with broccoli   ", (*index)->Query(embed(*query), 4),
         test_recipes, broccoli);
  data::Recipe modified = core::RemoveIngredient(*query, "broccoli");
  Report("without broccoli", (*index)->Query(embed(modified), 4),
         test_recipes, broccoli);
  return 0;
}
