#include <gtest/gtest.h>

#include <algorithm>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_stage.h"
#include "pcss/core/experiment.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/pointnet2.h"
#include "pcss/train/trainer.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::models::PointNet2Config;
using pcss::models::PointNet2Seg;
using pcss::tensor::Rng;

namespace {

/// End-to-end pipeline on PointNet++: train -> attack -> defend ->
/// transfer. One fixture so the (CPU-expensive) training happens once.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new IndoorSceneGenerator({.num_points = 144});
    PointNet2Config config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.c1 = 12;
    config.c2 = 16;
    config.head = 16;
    Rng init_a(31);
    model_a_ = new PointNet2Seg(config, init_a);
    Rng init_b(32);
    model_b_ = new PointNet2Seg(config, init_b);

    pcss::train::TrainConfig tc;
    tc.iterations = 120;
    tc.scene_pool = 5;
    tc.seed = 55;
    pcss::train::train_model(
        *model_a_, [](Rng& rng) { return gen_->generate(rng); }, tc);
    tc.seed = 66;  // independently trained twin for transfer
    pcss::train::train_model(
        *model_b_, [](Rng& rng) { return gen_->generate(rng); }, tc);

    Rng eval_rng(91);
    cloud_ = new pcss::data::PointCloud(gen_->generate(eval_rng));
  }

  static void TearDownTestSuite() {
    delete model_a_;
    delete model_b_;
    delete gen_;
    delete cloud_;
  }

  static IndoorSceneGenerator* gen_;
  static PointNet2Seg* model_a_;
  static PointNet2Seg* model_b_;
  static pcss::data::PointCloud* cloud_;
};

IndoorSceneGenerator* PipelineTest::gen_ = nullptr;
PointNet2Seg* PipelineTest::model_a_ = nullptr;
PointNet2Seg* PipelineTest::model_b_ = nullptr;
pcss::data::PointCloud* PipelineTest::cloud_ = nullptr;

TEST_F(PipelineTest, TrainedModelsBeatChance) {
  const auto pa = model_a_->predict(*cloud_);
  const auto pb = model_b_->predict(*cloud_);
  const double acc_a = evaluate_segmentation(pa, cloud_->labels, 13).accuracy;
  const double acc_b = evaluate_segmentation(pb, cloud_->labels, 13).accuracy;
  EXPECT_GT(acc_a, 0.45);
  EXPECT_GT(acc_b, 0.45);
}

TEST_F(PipelineTest, AttackThenDefendPipeline) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 25;
  const AttackResult adv = AttackEngine(*model_a_, config).run(*cloud_);
  const double adv_acc =
      evaluate_segmentation(adv.predictions, cloud_->labels, 13).accuracy;

  const auto clean_pred = model_a_->predict(*cloud_);
  const double clean_acc =
      evaluate_segmentation(clean_pred, cloud_->labels, 13).accuracy;
  ASSERT_LT(adv_acc, clean_acc);

  // SOR removes some perturbed points; accuracy on the defended cloud
  // should not be lower than the undefended adversarial accuracy by much
  // (defense never makes things dramatically worse).
  DefensePipeline sor;
  sor.add(make_sor_stage(2, 1.0f, 1.0f));
  Rng unused(0);  // SOR is deterministic; the pipeline never draws
  const DefenseReport report = run_defended(*model_a_, sor, adv.perturbed, 13, unused);
  EXPECT_LE(report.outcome.cloud.size(), adv.perturbed.size());
  EXPECT_GE(report.metrics.accuracy, 0.0);
}

TEST_F(PipelineTest, AdversarialSampleTransfersAcrossSeeds) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 25;
  const AttackResult adv = AttackEngine(*model_a_, config).run(*cloud_);
  const auto self = evaluate_segmentation(adv.predictions, cloud_->labels, 13);
  // A transferred sample is scored through the identity pipeline.
  Rng unused(0);
  const auto transferred =
      run_defended(*model_b_, DefensePipeline{}, adv.perturbed, 13, unused).metrics;
  const auto clean_b =
      run_defended(*model_b_, DefensePipeline{}, *cloud_, 13, unused).metrics;
  // Transfer is weaker than the white-box attack but should still hurt.
  EXPECT_LT(transferred.accuracy, clean_b.accuracy + 1e-9);
  EXPECT_GE(transferred.accuracy, self.accuracy - 1e-9);
}

TEST_F(PipelineTest, AttackCasesAggregation) {
  std::vector<pcss::data::PointCloud> clouds;
  Rng rng(101);
  for (int i = 0; i < 2; ++i) clouds.push_back(gen_->generate(rng));
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 6;
  const auto records = attack_cases(*model_a_, clouds, config, /*use_l0_distance=*/false);
  ASSERT_EQ(records.size(), 2u);
  const auto agg = aggregate_cases(records);
  EXPECT_LE(agg.best.accuracy, agg.worst.accuracy);
  EXPECT_GE(agg.avg.distance, 0.0);
  const auto clean = clean_metrics(*model_a_, clouds);
  EXPECT_GT(clean.accuracy, agg.avg.accuracy - 1.0);  // sanity: finite values
}

}  // namespace
