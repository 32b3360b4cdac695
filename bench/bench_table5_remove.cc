// Reproduces Table 5: the removing-ingredient task. For every test recipe
// containing broccoli, retrieve the top-4 images for the original recipe
// and for the recipe with broccoli deleted from the ingredient list and
// instructions. Paper shape: the original query's neighbours contain
// broccoli, the modified query's neighbours do not. We report the mean
// broccoli-presence rate in the top-4 before and after, over all such
// queries (the paper shows one example strip; ground truth lets us
// aggregate).

#include <cstdio>

#include <iostream>

#include "bench_common.h"
#include "core/downstream.h"
#include "serve/retrieval_service.h"

namespace adamine {
namespace {

namespace core = adamine::core;

int Run() {
  auto pipeline = core::Pipeline::Create(bench::CuratedPipelineConfig());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto& pipe = *pipeline.value();
  std::printf("== Table 5: removing-ingredient task (broccoli) ==\n");

  auto run = pipe.Run(bench::StandardTrainConfig(core::Scenario::kAdaMine));
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  const data::Inventory& inventory = pipe.generator().inventory();
  const int64_t broccoli = inventory.IngredientId("broccoli");
  const auto& test_recipes = pipe.splits().test.recipes;
  auto index = serve::RetrievalService::Create(run->test_embeddings.image_emb,
                                              serve::ServeConfig());
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  constexpr int64_t kTopK = 4;
  auto presence_rate = [&](const data::Recipe& recipe) {
    data::EncodedRecipe encoded = data::EncodeRecipe(recipe, pipe.vocab());
    Tensor emb = run->model->EmbedRecipes({&encoded}).value();
    emb = emb.Reshape({emb.numel()});
    int64_t with = 0;
    for (int64_t idx : (*index)->Query(emb, kTopK)) {
      if (test_recipes[static_cast<size_t>(idx)].HasIngredient(broccoli)) {
        ++with;
      }
    }
    return static_cast<double>(with) / kTopK;
  };

  double before = 0.0;
  double after = 0.0;
  int64_t queries = 0;
  int64_t pool_with = 0;
  for (const auto& r : test_recipes) {
    if (r.HasIngredient(broccoli)) ++pool_with;
  }
  for (const auto& r : test_recipes) {
    if (!r.HasIngredient(broccoli)) continue;
    before += presence_rate(r);
    after += presence_rate(core::RemoveIngredient(r, "broccoli"));
    ++queries;
  }
  if (queries == 0) {
    std::fprintf(stderr, "no broccoli recipes in the test split\n");
    return 1;
  }
  before = 100.0 * before / static_cast<double>(queries);
  after = 100.0 * after / static_cast<double>(queries);
  const double base =
      100.0 * pool_with / static_cast<double>(test_recipes.size());

  TablePrinter table({"Query", "broccoli in top-4"});
  table.AddRow({"original recipe (with broccoli)",
                TablePrinter::Num(before, 1) + "%"});
  table.AddRow({"modified recipe (broccoli removed)",
                TablePrinter::Num(after, 1) + "%"});
  table.AddRow({"candidate-pool base rate", TablePrinter::Num(base, 1) + "%"});
  table.Print(std::cout);
  std::printf("(%lld broccoli queries; paper: top row full of broccoli, "
              "bottom row free of it)\n",
              static_cast<long long>(queries));
  return 0;
}

}  // namespace
}  // namespace adamine

int main() { return adamine::Run(); }
