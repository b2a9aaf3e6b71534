#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/optim.h"

using namespace pcss::core;
namespace ops = pcss::tensor::ops;
using pcss::data::IndoorClass;
using pcss::data::IndoorSceneGenerator;
using pcss::models::ModelInput;
using pcss::models::ResGCNConfig;
using pcss::models::ResGCNSeg;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;

namespace {

/// Small trained ResGCN shared by the attack tests (trained once; these
/// tests need a model whose clean accuracy is well above chance).
class AttackFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new IndoorSceneGenerator({.num_points = 160});
    Rng init(21);
    ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 16;
    config.blocks = 2;
    model_ = new ResGCNSeg(config, init);

    Rng scenes(91);
    std::vector<pcss::data::PointCloud> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(gen_->generate(scenes));
    pcss::tensor::optim::Adam opt(model_->parameters(), 0.02f);
    for (int it = 0; it < 150; ++it) {
      const auto& cloud = pool[static_cast<size_t>(it) % pool.size()];
      ModelInput input = ModelInput::plain(cloud);
      Tensor logits = model_->forward(input, true);
      Tensor loss = ops::nll_loss_masked(ops::log_softmax_rows(logits), cloud.labels, {});
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
    Rng eval_rng(777);
    // Like the paper's scene selection, require enough window points so
    // the object-hiding tests have a workable X_T.
    eval_cloud_ = new pcss::data::PointCloud(gen_->generate_with_class(
        eval_rng, static_cast<int>(IndoorClass::kWindow), 8));
  }

  static void TearDownTestSuite() {
    delete model_;
    delete gen_;
    delete eval_cloud_;
    model_ = nullptr;
    gen_ = nullptr;
    eval_cloud_ = nullptr;
  }

  static double clean_accuracy(const pcss::data::PointCloud& cloud) {
    const auto pred = model_->predict(cloud);
    return evaluate_segmentation(pred, cloud.labels, 13).accuracy;
  }

  static IndoorSceneGenerator* gen_;
  static ResGCNSeg* model_;
  static pcss::data::PointCloud* eval_cloud_;
};

IndoorSceneGenerator* AttackFixture::gen_ = nullptr;
ResGCNSeg* AttackFixture::model_ = nullptr;
pcss::data::PointCloud* AttackFixture::eval_cloud_ = nullptr;

TEST_F(AttackFixture, ModelLearnedSomething) {
  EXPECT_GT(clean_accuracy(*eval_cloud_), 0.5);
}

TEST_F(AttackFixture, BoundedColorAttackRespectsEpsilonEverywhere) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.field = AttackField::kColor;
  config.steps = 8;
  config.epsilon = 0.05f;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  for (std::int64_t i = 0; i < eval_cloud_->size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      const float d = result.perturbed.colors[static_cast<size_t>(i)][a] -
                      eval_cloud_->colors[static_cast<size_t>(i)][a];
      EXPECT_LE(std::abs(d), config.epsilon + 1e-5f);
      EXPECT_GE(result.perturbed.colors[static_cast<size_t>(i)][a], 0.0f);
      EXPECT_LE(result.perturbed.colors[static_cast<size_t>(i)][a], 1.0f);
    }
  }
  // Coordinates untouched under a color attack.
  EXPECT_EQ(result.l0_coord, 0);
}

// Property sweep: the epsilon invariant holds for every epsilon.
class EpsilonSweep : public AttackFixture,
                     public ::testing::WithParamInterface<float> {};

TEST_P(EpsilonSweep, PerturbationNeverExceedsBound) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  config.epsilon = GetParam();
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < eval_cloud_->size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      max_abs = std::max(max_abs,
                         std::abs(result.perturbed.colors[static_cast<size_t>(i)][a] -
                                  eval_cloud_->colors[static_cast<size_t>(i)][a]));
    }
  }
  EXPECT_LE(max_abs, GetParam() + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Bounds, EpsilonSweep, ::testing::Values(0.01f, 0.05f, 0.15f));

TEST_F(AttackFixture, DegradationAttackDropsAccuracy) {
  const double clean = clean_accuracy(*eval_cloud_);
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 20;
  config.epsilon = 0.25f;
  config.step_size = 0.02f;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  const double attacked =
      evaluate_segmentation(result.predictions, eval_cloud_->labels, 13).accuracy;
  EXPECT_LT(attacked, clean - 0.15) << "clean=" << clean << " attacked=" << attacked;
}

TEST_F(AttackFixture, UnboundedAttackDropsAccuracyAndKeepsColorsValid) {
  const double clean = clean_accuracy(*eval_cloud_);
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 30;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  const double attacked =
      evaluate_segmentation(result.predictions, eval_cloud_->labels, 13).accuracy;
  EXPECT_LT(attacked, clean - 0.15);
  for (const auto& c : result.perturbed.colors) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(c[a], 0.0f);
      EXPECT_LE(c[a], 1.0f);
    }
  }
}

TEST_F(AttackFixture, ObjectHidingRaisesPsr) {
  // The paper's canonical pair: hide windows as wall (both lie on the
  // wall plane, so color is the deciding feature).
  const int source = static_cast<int>(IndoorClass::kWindow);
  const int target = static_cast<int>(IndoorClass::kWall);
  const auto mask = mask_for_class(eval_cloud_->labels, source);
  ASSERT_GE(std::count(mask.begin(), mask.end(), std::uint8_t{1}), 8);

  const double base_psr = point_success_rate(model_->predict(*eval_cloud_), mask, target);

  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 60;
  config.target_class = target;
  config.target_mask = mask;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  const double psr = point_success_rate(result.predictions, mask, target);
  EXPECT_GT(psr, base_psr + 0.2) << "base=" << base_psr << " attacked=" << psr;
}

TEST_F(AttackFixture, HidingOnlyPerturbsTargetedPoints) {
  const int source = static_cast<int>(IndoorClass::kWall);
  const auto mask = mask_for_class(eval_cloud_->labels, source);
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  config.target_class = static_cast<int>(IndoorClass::kCeiling);
  config.target_mask = mask;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  for (std::int64_t i = 0; i < eval_cloud_->size(); ++i) {
    if (mask[static_cast<size_t>(i)]) continue;
    for (int a = 0; a < 3; ++a) {
      EXPECT_FLOAT_EQ(result.perturbed.colors[static_cast<size_t>(i)][a],
                      eval_cloud_->colors[static_cast<size_t>(i)][a])
          << "non-targeted point " << i << " was perturbed";
    }
  }
}

TEST_F(AttackFixture, CoordinateAttackLeavesColorsAlone) {
  AttackConfig config;
  config.field = AttackField::kCoordinate;
  config.norm = AttackNorm::kBounded;
  config.steps = 6;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  EXPECT_EQ(result.l0_color, 0);
  for (std::int64_t i = 0; i < eval_cloud_->size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      const float d = result.perturbed.positions[static_cast<size_t>(i)][a] -
                      eval_cloud_->positions[static_cast<size_t>(i)][a];
      EXPECT_LE(std::abs(d), config.coord_epsilon + 1e-5f);
    }
  }
}

TEST_F(AttackFixture, MinImpactScheduleShrinksL0) {
  // With restoration active, many targeted points should end unperturbed.
  AttackConfig config;
  config.field = AttackField::kCoordinate;
  config.norm = AttackNorm::kBounded;
  config.steps = 12;
  config.min_impact_fraction = 0.1f;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  EXPECT_LT(result.l0_coord, eval_cloud_->size());
  EXPECT_GT(result.l0_coord, 0);
}

TEST_F(AttackFixture, BothFieldsPerturbsBoth) {
  AttackConfig config;
  config.field = AttackField::kBoth;
  config.norm = AttackNorm::kBounded;
  config.steps = 6;
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  EXPECT_GT(result.l0_color, 0);
  EXPECT_GT(result.l0_coord, 0);
}

TEST_F(AttackFixture, ConvergenceStopsEarly) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 40;
  config.epsilon = 0.3f;
  config.step_size = 0.03f;
  config.success_accuracy = 0.5f;  // generous: reached quickly
  const AttackResult result = AttackEngine(*model_, config).run(*eval_cloud_);
  EXPECT_LT(result.steps_used, 40);
}

TEST_F(AttackFixture, RandomNoiseBaselineMatchesTargetL2) {
  const AttackResult result = random_noise_baseline(*model_, *eval_cloud_, 2.5, 42);
  EXPECT_NEAR(result.l2_color, 2.5, 0.6);  // clamping can shave a little
  EXPECT_EQ(result.l0_coord, 0);
}

TEST_F(AttackFixture, RandomNoiseWeakerThanOptimizedAttack) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 25;
  const AttackResult adv = AttackEngine(*model_, config).run(*eval_cloud_);
  const AttackResult noise =
      random_noise_baseline(*model_, *eval_cloud_, adv.l2_color, 43);
  const double adv_acc =
      evaluate_segmentation(adv.predictions, eval_cloud_->labels, 13).accuracy;
  const double noise_acc =
      evaluate_segmentation(noise.predictions, eval_cloud_->labels, 13).accuracy;
  EXPECT_LT(adv_acc, noise_acc) << "optimized attack must beat random noise at equal L2";
}

TEST_F(AttackFixture, ConfigValidation) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  EXPECT_THROW(AttackEngine(*model_, config).run(*eval_cloud_), std::invalid_argument)
      << "hiding without target class/mask must be rejected";
  config.target_class = 2;
  EXPECT_THROW(AttackEngine(*model_, config).run(*eval_cloud_), std::invalid_argument);
  config.target_mask.assign(3, 1);  // wrong size
  EXPECT_THROW(AttackEngine(*model_, config).run(*eval_cloud_), std::invalid_argument);
}

TEST(AttackEnums, ToStringCoverage) {
  EXPECT_STREQ(to_string(AttackObjective::kObjectHiding), "object-hiding");
  EXPECT_STREQ(to_string(AttackObjective::kPerformanceDegradation),
               "performance-degradation");
  EXPECT_STREQ(to_string(AttackNorm::kBounded), "norm-bounded");
  EXPECT_STREQ(to_string(AttackNorm::kUnbounded), "norm-unbounded");
  EXPECT_STREQ(to_string(AttackField::kColor), "color");
  EXPECT_STREQ(to_string(AttackField::kCoordinate), "coordinate");
  EXPECT_STREQ(to_string(AttackField::kBoth), "both");
}

TEST(MeasurePerturbation, CountsAndNorms) {
  pcss::data::PointCloud a;
  a.push_back({0, 0, 0}, {0.5f, 0.5f, 0.5f}, 0);
  a.push_back({1, 0, 0}, {0.5f, 0.5f, 0.5f}, 0);
  pcss::data::PointCloud b = a;
  b.colors[0][0] = 0.8f;
  b.positions[1][2] = 0.4f;
  AttackResult r;
  measure_perturbation(a, b, r);
  EXPECT_EQ(r.l0_color, 1);
  EXPECT_EQ(r.l0_coord, 1);
  EXPECT_NEAR(r.l2_color, 0.3, 1e-5);
  EXPECT_NEAR(r.l2_coord, 0.4, 1e-5);
}

}  // namespace
