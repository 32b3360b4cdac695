// Reproduces Table 4: Ingredient->Image within the class pizza. A query is
// built from a single ingredient word plus the mean instruction embedding
// of the training set (the paper's protocol), projected into the latent
// space, and matched against the pizza images of the test set. Because the
// generator provides ground truth, we report the ingredient-presence rate
// in the top-K against the base rate — the quantitative version of the
// paper's image strips (searching "pineapple" inside pizza returns
// pineapple pizzas, "strawberries" returns fruit pizzas).

#include <cstdio>

#include <iostream>

#include "bench_common.h"
#include "core/downstream.h"
#include "serve/retrieval_service.h"
#include "tensor/ops.h"

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
  std::printf("== Table 4: ingredient-to-image within class pizza ==\n");

  auto run = pipe.Run(bench::StandardTrainConfig(core::Scenario::kAdaMine));
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  const data::Inventory& inventory = pipe.generator().inventory();
  const int64_t pizza = inventory.ClassId("pizza");
  const auto& emb = run->test_embeddings;
  const auto& test_recipes = pipe.splits().test.recipes;
  std::vector<int64_t> pizza_rows;
  for (size_t i = 0; i < emb.true_classes.size(); ++i) {
    if (emb.true_classes[i] == pizza) {
      pizza_rows.push_back(static_cast<int64_t>(i));
    }
  }
  std::printf("(%zu pizza images in the candidate pool)\n\n",
              pizza_rows.size());
  auto index = serve::RetrievalService::Create(
      GatherRows(emb.image_emb, pizza_rows), serve::ServeConfig());
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  Tensor mean_instr =
      core::MeanInstructionFeature(*run->model, pipe.train_set());

  constexpr int64_t kTopK = 20;
  TablePrinter table({"Ingredient", "top-20 presence", "base rate", "lift"});
  double total_lift = 0.0;
  const std::vector<std::string> ingredients = {
      "mushrooms", "pineapple", "olives", "pepperoni", "strawberries"};
  for (const std::string& ingredient : ingredients) {
    Tensor query = core::EmbedIngredientQuery(*run->model, pipe.vocab(),
                                              ingredient, mean_instr);
    const int64_t gid = inventory.IngredientId(ingredient);
    int64_t hits = 0;
    for (int64_t idx : (*index)->Query(query, kTopK)) {
      const int64_t row = pizza_rows[static_cast<size_t>(idx)];
      if (test_recipes[static_cast<size_t>(row)].HasIngredient(gid)) ++hits;
    }
    int64_t base = 0;
    for (int64_t row : pizza_rows) {
      if (test_recipes[static_cast<size_t>(row)].HasIngredient(gid)) ++base;
    }
    const double top_rate =
        100.0 * hits / static_cast<double>(std::min<int64_t>(
                           kTopK, static_cast<int64_t>(pizza_rows.size())));
    const double base_rate =
        100.0 * base / static_cast<double>(pizza_rows.size());
    const double lift = base_rate > 0 ? top_rate / base_rate : 0.0;
    total_lift += lift;
    table.AddRow({ingredient, TablePrinter::Num(top_rate, 0) + "%",
                  TablePrinter::Num(base_rate, 0) + "%",
                  TablePrinter::Num(lift, 2) + "x"});
  }
  table.Print(std::cout);
  std::printf("mean lift over base rate: %.2fx (paper: retrieved strips "
              "visibly contain the queried ingredient)\n",
              total_lift / static_cast<double>(ingredients.size()));
  return 0;
}

}  // namespace
}  // namespace adamine

int main() { return adamine::Run(); }
