// Reproduces Table 2: qualitative recipe->image retrieval. For a handful of
// recipe queries, shows the classes of the top-5 retrieved images under
// full AdaMine versus AdaMine_ins, marking the true match, same-class items
// and different-class items (the paper's green/blue/red colouring). Paper
// shape: both models retrieve the match near the top, but AdaMine's
// remaining neighbours are semantically coherent (same class / shared key
// ingredients) far more often.

#include <cstdio>

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "serve/retrieval_service.h"

namespace adamine {
namespace {

namespace core = adamine::core;

struct ModelRun {
  std::string name;
  core::Pipeline::RunResult run;
  std::unique_ptr<serve::RetrievalService> images;  // Test image index.
};

int Run() {
  auto pipeline = core::Pipeline::Create(bench::CuratedPipelineConfig());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto& pipe = *pipeline.value();
  std::printf("== Table 2: recipe-to-image qualitative comparison ==\n");
  std::printf("markers: [MATCH] true pair, [same] same class, "
              "[DIFF] different class\n\n");

  std::vector<ModelRun> models;
  for (auto scenario :
       {core::Scenario::kAdaMine, core::Scenario::kAdaMineIns}) {
    auto run = pipe.Run(bench::StandardTrainConfig(scenario));
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    auto images = serve::RetrievalService::Create(
        run->test_embeddings.image_emb, serve::ServeConfig());
    if (!images.ok()) {
      std::fprintf(stderr, "%s\n", images.status().ToString().c_str());
      return 1;
    }
    models.push_back({core::ScenarioName(scenario), std::move(*run),
                      std::move(images).value()});
  }

  const auto& test_recipes = pipe.splits().test.recipes;
  // Pick 4 query recipes from distinct, well-known classes.
  std::vector<int64_t> queries;
  for (const char* wanted :
       {"salad", "roast_chicken", "pizza", "brownies"}) {
    for (size_t i = 0; i < test_recipes.size(); ++i) {
      if (test_recipes[i].class_name == wanted) {
        queries.push_back(static_cast<int64_t>(i));
        break;
      }
    }
  }

  int same_class_adamine = 0;
  int same_class_ins = 0;
  for (int64_t q : queries) {
    const auto& recipe = test_recipes[static_cast<size_t>(q)];
    std::printf("query [%s]:", recipe.class_name.c_str());
    for (const auto& ing : recipe.ingredients) std::printf(" %s", ing.c_str());
    std::printf("\n");
    for (const ModelRun& model : models) {
      Tensor query_emb({model.run.test_embeddings.recipe_emb.cols()});
      const float* src = model.run.test_embeddings.recipe_emb.data() +
                         q * query_emb.numel();
      std::copy(src, src + query_emb.numel(), query_emb.data());
      std::printf("  %-12s top-5:", model.name.c_str());
      for (int64_t idx : model.images->Query(query_emb, 5)) {
        const auto& hit = test_recipes[static_cast<size_t>(idx)];
        const char* marker =
            idx == q ? "[MATCH]"
                     : (hit.true_class == recipe.true_class ? "[same]"
                                                            : "[DIFF]");
        if (idx != q && hit.true_class == recipe.true_class) {
          (model.name == "AdaMine" ? same_class_adamine : same_class_ins)++;
        }
        std::printf(" %s%s", hit.class_name.c_str(), marker);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("semantically coherent (same-class) non-match results: "
              "AdaMine %d vs AdaMine_ins %d (of %zu top-5 slots)\n",
              same_class_adamine, same_class_ins, queries.size() * 5);
  return 0;
}

}  // namespace
}  // namespace adamine

int main() { return adamine::Run(); }
