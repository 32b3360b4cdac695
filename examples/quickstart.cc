// Quickstart: generate a synthetic Recipe1M-like dataset, pretrain word
// vectors, train the AdaMine cross-modal model, evaluate retrieval, and run
// one image->recipe and one recipe->image query.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/example_quickstart

#include <cstdio>

#include "core/pipeline.h"
#include "eval/metrics.h"
#include "serve/retrieval_service.h"
#include "util/stopwatch.h"

namespace {

using adamine::Rng;
using adamine::Stopwatch;
using adamine::Tensor;

adamine::core::PipelineConfig QuickConfig() {
  adamine::core::PipelineConfig config;
  config.generator.num_recipes = 1500;
  config.generator.num_classes = 16;
  config.generator.seed = 42;
  config.word2vec.epochs = 3;
  config.model.word_dim = 24;
  config.model.ingredient_hidden = 24;
  config.model.word_hidden = 24;
  config.model.sentence_hidden = 32;
  config.model.latent_dim = 32;
  config.model.seed = 7;
  return config;
}

}  // namespace

int main() {
  Stopwatch total;
  std::printf("== AdaMine quickstart ==\n");

  std::printf("[1/4] generating synthetic Recipe1M-like data + word2vec...\n");
  Stopwatch phase;
  auto pipeline = adamine::core::Pipeline::Create(QuickConfig());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline error: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }
  auto& pipe = *pipeline.value();
  std::printf("      %lld train / %lld val / %lld test pairs, vocab %lld"
              " (%.1fs)\n",
              static_cast<long long>(pipe.train_set().size()),
              static_cast<long long>(pipe.val_set().size()),
              static_cast<long long>(pipe.test_set().size()),
              static_cast<long long>(pipe.vocab().size()),
              phase.ElapsedSeconds());

  std::printf("[2/4] training AdaMine (instance + semantic, adaptive)...\n");
  phase.Restart();
  adamine::core::TrainConfig train;
  train.scenario = adamine::core::Scenario::kAdaMine;
  train.epochs = 12;
  train.batch_size = 100;
  train.learning_rate = 1e-3;
  train.val_bag_size = 200;
  train.seed = 1;
  auto run = pipe.Run(train);
  if (!run.ok()) {
    std::fprintf(stderr, "training error: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  for (const auto& epoch : run->history) {
    std::printf(
        "      epoch %2lld  L_ins %.4f  L_sem %.4f  active %.0f%%/%.0f%%"
        "  val MedR %.1f  (%.1fs)\n",
        static_cast<long long>(epoch.epoch), epoch.instance_loss,
        epoch.semantic_loss, 100 * epoch.active_fraction_ins,
        100 * epoch.active_fraction_sem, epoch.val_medr, epoch.seconds);
  }
  std::printf("      trained in %.1fs\n", phase.ElapsedSeconds());

  std::printf("[3/4] evaluating cross-modal retrieval on the test set...\n");
  const auto& emb = run->test_embeddings;
  Rng bag_rng(5);
  auto result = adamine::eval::EvaluateBags(emb.image_emb, emb.recipe_emb,
                                            200, 5, bag_rng);
  std::printf("      image->recipe: MedR %.1f  R@1 %.1f  R@5 %.1f  R@10 %.1f\n",
              result.image_to_recipe.medr.mean,
              result.image_to_recipe.r_at_1.mean,
              result.image_to_recipe.r_at_5.mean,
              result.image_to_recipe.r_at_10.mean);
  std::printf("      recipe->image: MedR %.1f  R@1 %.1f  R@5 %.1f  R@10 %.1f\n",
              result.recipe_to_image.medr.mean,
              result.recipe_to_image.r_at_1.mean,
              result.recipe_to_image.r_at_5.mean,
              result.recipe_to_image.r_at_10.mean);

  std::printf("[4/4] one query of each direction...\n");
  auto recipe_index = adamine::serve::RetrievalService::Create(
      emb.recipe_emb, adamine::serve::ServeConfig());
  if (!recipe_index.ok()) {
    std::fprintf(stderr, "serving error: %s\n",
                 recipe_index.status().ToString().c_str());
    return 1;
  }
  Tensor query_img({emb.image_emb.cols()});
  std::copy(emb.image_emb.data(), emb.image_emb.data() + query_img.numel(),
            query_img.data());
  auto top = (*recipe_index)->Query(query_img, 3);
  const auto& test_recipes = pipe.splits().test.recipes;
  std::printf("      image of '%s' -> recipes:",
              test_recipes[0].class_name.c_str());
  for (int64_t idx : top) {
    std::printf(" %s%s", test_recipes[static_cast<size_t>(idx)].class_name.c_str(),
                idx == 0 ? "(match)" : "");
  }
  std::printf("\n      total %.1fs\n", total.ElapsedSeconds());
  return 0;
}
