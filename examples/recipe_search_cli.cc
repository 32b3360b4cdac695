// Free-text recipe search: tokenizes an ingredient list and instructions
// from the command line, embeds them with a trained AdaMine model, and
// retrieves the closest dishes (shown by class and ingredients) from the
// test set. Demonstrates the full public API: tokenizer -> vocabulary ->
// model -> retrieval index.
//
// Usage:
//   example_recipe_search_cli "tomato, mozzarella, basil" ...
//                             "preheat the oven. add the tomato. serve."
// With no arguments a default query is used.

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serve/retrieval_service.h"
#include "text/tokenizer.h"

namespace {

namespace core = adamine::core;
namespace data = adamine::data;
namespace serve = adamine::serve;
namespace text = adamine::text;
using adamine::Tensor;

core::PipelineConfig Config() {
  core::PipelineConfig config;
  config.generator.num_recipes = 2500;
  config.generator.num_classes = 32;
  config.generator.class_zipf_exponent = 0.5;
  config.generator.seed = 23;
  config.model.seed = 8;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ingredients_text =
      argc > 1 ? argv[1] : "pizza_dough tomato_sauce mozzarella olives";
  const std::string instructions_text =
      argc > 2 ? argv[2]
               : "preheat the oven and bake. add the tomato_sauce and "
                 "mozzarella. serve and enjoy.";

  std::printf("== Recipe search ==\nquery ingredients:  %s\n"
              "query instructions: %s\n",
              ingredients_text.c_str(), instructions_text.c_str());

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
  train.seed = 9;
  std::printf("training AdaMine on %zu pairs...\n", pipe.train_set().size());
  auto run = pipe.Run(train);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  // Encode the free-text query.
  data::EncodedRecipe query;
  query.ingredient_tokens =
      pipe.vocab().Encode(text::Tokenize(ingredients_text));
  for (const auto& sentence : text::SplitSentences(instructions_text)) {
    query.instruction_sentences.push_back(pipe.vocab().Encode(sentence));
  }
  Tensor query_emb = run->model->EmbedRecipes({&query}).value();
  query_emb = query_emb.Reshape({query_emb.numel()});

  // Retrieve the nearest dishes by their *image* embeddings (cross-modal).
  auto index = serve::RetrievalService::Create(run->test_embeddings.image_emb,
                                              serve::ServeConfig());
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const auto& test_recipes = pipe.splits().test.recipes;
  std::printf("top 5 dishes by image embedding:\n");
  for (int64_t idx : (*index)->Query(query_emb, 5)) {
    const auto& r = test_recipes[static_cast<size_t>(idx)];
    std::printf("  [%s]", r.class_name.c_str());
    for (const auto& ing : r.ingredients) std::printf(" %s", ing.c_str());
    std::printf("\n");
  }
  return 0;
}
