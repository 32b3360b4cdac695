// Integration tests of the training loop and the end-to-end pipeline at
// miniature scale: a few dozen pairs and a handful of epochs, checking that
// every scenario runs, that learning actually reduces validation MedR, and
// that the paper's structural knobs (freezing schedule, model selection)
// behave.

#include "core/trainer.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/embedder.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "tensor/ops.h"

namespace adamine::core {
namespace {

PipelineConfig TinyPipelineConfig() {
  PipelineConfig config;
  config.generator.num_recipes = 260;
  config.generator.num_classes = 8;
  config.generator.seed = 5;
  config.word2vec.epochs = 1;
  config.model.word_dim = 8;
  config.model.ingredient_hidden = 6;
  config.model.word_hidden = 6;
  config.model.sentence_hidden = 8;
  config.model.latent_dim = 12;
  config.model.seed = 2;
  return config;
}

TrainConfig TinyTrainConfig(Scenario scenario) {
  TrainConfig config;
  config.scenario = scenario;
  config.epochs = 3;
  config.batch_size = 32;
  config.learning_rate = 2e-3;
  config.val_bag_size = 30;
  config.val_num_bags = 2;
  config.seed = 4;
  return config;
}

TEST(TrainConfigTest, Validation) {
  TrainConfig config = TinyTrainConfig(Scenario::kAdaMine);
  EXPECT_TRUE(config.Validate().ok());
  config.epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TinyTrainConfig(Scenario::kAdaMine);
  config.neg_margin = 0.1f;
  config.pos_margin = 0.3f;  // pos >= neg is invalid.
  EXPECT_FALSE(config.Validate().ok());
  config = TinyTrainConfig(Scenario::kAdaMine);
  config.freeze_fraction = 1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(TrainConfigTest, ValidationCoversEveryErrorPath) {
  const TrainConfig good = TinyTrainConfig(Scenario::kAdaMine);
  ASSERT_TRUE(good.Validate().ok());
  auto broken = [&good](auto mutate) {
    TrainConfig config = good;
    mutate(config);
    return !config.Validate().ok();
  };
  EXPECT_TRUE(broken([](TrainConfig& c) { c.epochs = -1; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.batch_size = 1; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.learning_rate = 0.0; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.margin = 0.0f; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.lambda = -0.1f; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.lambda_category = -0.1f; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.pos_margin = -0.1f; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.neg_margin = c.pos_margin; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.cls_weight = -1.0; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.freeze_fraction = -0.5; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.clip_norm = -1.0; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.val_bag_size = 1; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.val_num_bags = 0; }));
  // Crash-safety knobs.
  EXPECT_TRUE(broken([](TrainConfig& c) { c.checkpoint_every_n_epochs = 0; }));
  EXPECT_TRUE(broken([](TrainConfig& c) { c.resume = true; }));  // No dir.
  EXPECT_TRUE(broken([](TrainConfig& c) { c.nonfinite_budget = 0; }));
  TrainConfig resumable = good;
  resumable.checkpoint_dir = "/tmp/ckpt";
  resumable.resume = true;
  EXPECT_TRUE(resumable.Validate().ok());
}

TEST(PipelineConfigTest, ValidationCoversFractionErrorPaths) {
  const PipelineConfig good = TinyPipelineConfig();
  ASSERT_TRUE(good.Validate().ok());
  auto broken = [&good](auto mutate) {
    PipelineConfig config = good;
    mutate(config);
    return !config.Validate().ok();
  };
  EXPECT_TRUE(broken([](PipelineConfig& c) { c.train_fraction = 0.0; }));
  EXPECT_TRUE(broken([](PipelineConfig& c) { c.val_fraction = -0.1; }));
  EXPECT_TRUE(broken([](PipelineConfig& c) {
    c.train_fraction = 0.9;
    c.val_fraction = 0.2;  // No room left for the test split.
  }));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(broken([nan](PipelineConfig& c) { c.train_fraction = nan; }));
  EXPECT_TRUE(broken([nan](PipelineConfig& c) { c.val_fraction = nan; }));
  EXPECT_TRUE(broken([](PipelineConfig& c) {
    c.val_fraction = std::numeric_limits<double>::infinity();
  }));
}

TEST(ScenarioNameTest, AllNamed) {
  EXPECT_EQ(ScenarioName(Scenario::kAdaMine), "AdaMine");
  EXPECT_EQ(ScenarioName(Scenario::kAdaMineIns), "AdaMine_ins");
  EXPECT_EQ(ScenarioName(Scenario::kAdaMineSem), "AdaMine_sem");
  EXPECT_EQ(ScenarioName(Scenario::kAdaMineAvg), "AdaMine_avg");
  EXPECT_EQ(ScenarioName(Scenario::kAdaMineInsCls), "AdaMine_ins+cls");
  EXPECT_EQ(ScenarioName(Scenario::kPwcStar), "PWC*");
  EXPECT_EQ(ScenarioName(Scenario::kPwcPlusPlus), "PWC++");
  EXPECT_EQ(ScenarioName(Scenario::kAdaMineHier), "AdaMine_hier");
}

TEST(PipelineTest, CreateBuildsConsistentState) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  EXPECT_EQ(pipe.train_set().size() + pipe.val_set().size() +
                pipe.test_set().size(),
            260u);
  EXPECT_GT(pipe.vocab().size(), 20);
  EXPECT_EQ(pipe.word_embeddings().rows(), pipe.vocab().size());
  EXPECT_EQ(pipe.word_embeddings().cols(), 8);
}

TEST(PipelineTest, RejectsBadFractions) {
  PipelineConfig config = TinyPipelineConfig();
  config.train_fraction = 0.9;
  config.val_fraction = 0.2;
  EXPECT_FALSE(Pipeline::Create(config).ok());
}

TEST(TrainerTest, EveryScenarioRuns) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  for (Scenario scenario :
       {Scenario::kAdaMine, Scenario::kAdaMineIns, Scenario::kAdaMineSem,
        Scenario::kAdaMineAvg, Scenario::kAdaMineInsCls, Scenario::kPwcStar,
        Scenario::kPwcPlusPlus, Scenario::kAdaMineHier}) {
    auto run = pipe.Run(TinyTrainConfig(scenario));
    ASSERT_TRUE(run.ok()) << ScenarioName(scenario);
    EXPECT_EQ(run->history.size(), 3u);
    EXPECT_EQ(run->test_embeddings.image_emb.rows(),
              static_cast<int64_t>(pipe.test_set().size()));
  }
}

TEST(TrainerTest, TextAblationsRun) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  auto ingr = pipe.Run(TinyTrainConfig(Scenario::kAdaMine), true, false);
  ASSERT_TRUE(ingr.ok());
  auto instr = pipe.Run(TinyTrainConfig(Scenario::kAdaMine), false, true);
  ASSERT_TRUE(instr.ok());
}

TEST(TrainerTest, LearningImprovesOverInitialisation) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  TrainConfig config = TinyTrainConfig(Scenario::kAdaMineIns);
  config.epochs = 8;
  auto run = pipe.Run(config);
  ASSERT_TRUE(run.ok());
  // Validation MedR after training must beat the first epoch's.
  const double first = run->history.front().val_medr;
  double best = first;
  for (const auto& e : run->history) best = std::min(best, e.val_medr);
  EXPECT_LT(best, first);
}

TEST(TrainerTest, ActiveFractionDecaysUnderAdaptiveMining) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  TrainConfig config = TinyTrainConfig(Scenario::kAdaMineIns);
  config.epochs = 8;
  auto run = pipe.Run(config);
  ASSERT_TRUE(run.ok());
  // The curriculum of Eq. 4-5: informative triplets become rarer.
  EXPECT_LT(run->history.back().active_fraction_ins,
            run->history.front().active_fraction_ins);
}

TEST(TrainerTest, ValidationStatsPopulated) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  auto run = pipe.Run(TinyTrainConfig(Scenario::kAdaMine));
  ASSERT_TRUE(run.ok());
  for (const auto& epoch : run->history) {
    EXPECT_GE(epoch.val_medr, 1.0);
    EXPECT_GE(epoch.seconds, 0.0);
    EXPECT_GE(epoch.active_fraction_ins, 0.0);
    EXPECT_LE(epoch.active_fraction_ins, 1.0);
  }
}

TEST(EmbedDatasetTest, ShapesAndLabels) {
  auto pipeline = Pipeline::Create(TinyPipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  auto& pipe = *pipeline.value();
  auto run = pipe.Run(TinyTrainConfig(Scenario::kAdaMineIns));
  ASSERT_TRUE(run.ok());
  EmbeddedDataset emb = EmbedDataset(*run->model, pipe.test_set());
  EXPECT_EQ(emb.image_emb.rows(), emb.recipe_emb.rows());
  EXPECT_EQ(emb.labels.size(), pipe.test_set().size());
  // Unit rows.
  Tensor norms = RowNorms(emb.image_emb);
  for (int64_t i = 0; i < norms.numel(); ++i) {
    EXPECT_NEAR(norms[i], 1.0f, 1e-4);
  }
  // Chunked embedding must equal one-shot embedding.
  EmbeddedDataset chunked = EmbedDataset(*run->model, pipe.test_set(), 7);
  for (int64_t i = 0; i < emb.image_emb.numel(); ++i) {
    EXPECT_EQ(chunked.image_emb[i], emb.image_emb[i]);
  }
}

}  // namespace
}  // namespace adamine::core
