// AttackEngine contract tests: plan replay vs eager vs batched runs and
// the step budget across all 8 paper configurations, the stall-triggered
// restart, batched determinism under different thread counts, config
// validation, the shared-delta mode, and the progress observer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/obs/metrics.h"

using namespace pcss::core;
using pcss::data::IndoorClass;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;

namespace {

/// Untrained tiny ResGCN: gradients flow regardless of training, which
/// is all the engine contract tests need; keeping it untrained makes the
/// whole file run in seconds.
class EngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new IndoorSceneGenerator({.num_points = 160});
    Rng init(31);
    pcss::models::ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 8;
    config.blocks = 1;
    model_ = new pcss::models::ResGCNSeg(config, init);
    Rng scene_rng(77);
    cloud_ = new pcss::data::PointCloud(gen_->generate_with_class(
        scene_rng, static_cast<int>(IndoorClass::kWindow), 8));
    clouds_ = new std::vector<PointCloud>();
    Rng batch_rng(78);
    for (int i = 0; i < 3; ++i) clouds_->push_back(gen_->generate(batch_rng));
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete model_;
    delete cloud_;
    delete clouds_;
    gen_ = nullptr;
    model_ = nullptr;
    cloud_ = nullptr;
    clouds_ = nullptr;
  }

  static IndoorSceneGenerator* gen_;
  static pcss::models::ResGCNSeg* model_;
  static pcss::data::PointCloud* cloud_;
  static std::vector<PointCloud>* clouds_;
};

IndoorSceneGenerator* EngineFixture::gen_ = nullptr;
pcss::models::ResGCNSeg* EngineFixture::model_ = nullptr;
pcss::data::PointCloud* EngineFixture::cloud_ = nullptr;
std::vector<PointCloud>* EngineFixture::clouds_ = nullptr;

void expect_bit_identical(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.perturbed.size(), b.perturbed.size());
  EXPECT_EQ(a.steps_used, b.steps_used);
  for (std::int64_t i = 0; i < a.perturbed.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      // Exact float equality: both runs must execute the same
      // arithmetic in the same order.
      EXPECT_EQ(a.perturbed.colors[static_cast<size_t>(i)][axis],
                b.perturbed.colors[static_cast<size_t>(i)][axis])
          << "color mismatch at point " << i;
      EXPECT_EQ(a.perturbed.positions[static_cast<size_t>(i)][axis],
                b.perturbed.positions[static_cast<size_t>(i)][axis])
          << "position mismatch at point " << i;
    }
  }
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.l0_color, b.l0_color);
  EXPECT_EQ(a.l0_coord, b.l0_coord);
}

// ---------------------------------------------------------------------------
// Equivalence: all 8 objective x norm x field configurations.
// ---------------------------------------------------------------------------

class EngineEquivalence
    : public EngineFixture,
      public ::testing::WithParamInterface<
          std::tuple<AttackObjective, AttackNorm, AttackField>> {};

AttackConfig equivalence_config(AttackObjective objective, AttackNorm norm, AttackField field,
                                 const PointCloud& cloud) {
  AttackConfig config;
  config.objective = objective;
  config.norm = norm;
  config.field = field;
  config.steps = 4;
  config.cw_steps = 6;
  if (objective == AttackObjective::kObjectHiding) {
    config.target_class = static_cast<int>(IndoorClass::kWall);
    config.target_mask = mask_for_class(cloud.labels, static_cast<int>(IndoorClass::kWindow));
  }
  return config;
}

TEST_P(EngineEquivalence, PlanReplayMatchesEagerAndBatchBitExactly) {
  const auto [objective, norm, field] = GetParam();
  const AttackEngine engine(*model_, equivalence_config(objective, norm, field, *cloud_));

  const auto& replays = pcss::obs::metrics::counter("plan.replays");
  const std::uint64_t replays0 = replays.value();
  const AttackResult planned = engine.run(*cloud_);
  // Only color-field attacks replay; coordinate attacks stay eager.
  if (field == AttackField::kColor) {
    EXPECT_GT(replays.value(), replays0) << "the plan-on run must replay";
  }
  expect_bit_identical(planned, engine.run(*cloud_, {.plan = false}));
  const std::vector<PointCloud> one{*cloud_};
  expect_bit_identical(planned, engine.run_batch(one).front());
}

TEST_P(EngineEquivalence, RunsTheWholeBudgetWithoutSuccessThreshold) {
  const auto [objective, norm, field] = GetParam();
  const AttackConfig config = equivalence_config(objective, norm, field, *cloud_);
  const AttackResult result = AttackEngine(*model_, config).run(*cloud_);
  EXPECT_EQ(result.steps_used, norm == AttackNorm::kBounded ? config.steps : config.cw_steps);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, EngineEquivalence,
    ::testing::Combine(::testing::Values(AttackObjective::kPerformanceDegradation,
                                         AttackObjective::kObjectHiding),
                       ::testing::Values(AttackNorm::kBounded, AttackNorm::kUnbounded),
                       ::testing::Values(AttackField::kColor, AttackField::kCoordinate)));

// ---------------------------------------------------------------------------
// Batched execution: determinism and seed derivation.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, RunBatchDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;

  const AttackEngine engine(*model_, config);
  const auto seq = engine.run_batch(*clouds_, {.threads = 1});
  const auto par = engine.run_batch(*clouds_, {.threads = 2});

  ASSERT_EQ(seq.size(), clouds_->size());
  ASSERT_EQ(par.size(), clouds_->size());
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    expect_bit_identical(seq[i], par[i]);
  }
}

TEST_F(EngineFixture, RunBatchDerivesPerCloudSeeds) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  config.seed = 1234;
  const AttackEngine engine(*model_, config);
  const auto batch = engine.run_batch(*clouds_);
  for (size_t i = 0; i < clouds_->size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    const AttackResult solo = engine.run((*clouds_)[i], config.seed + i);
    expect_bit_identical(batch[i], solo);
  }
}

TEST_F(EngineFixture, RunBatchUnboundedDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 4;

  const AttackEngine engine(*model_, config);
  const auto seq = engine.run_batch(*clouds_, {.threads = 1});
  const auto par = engine.run_batch(*clouds_, {.threads = 2});
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    expect_bit_identical(seq[i], par[i]);
  }
}

TEST_F(EngineFixture, StalledUnboundedRunRandomRestarts) {
  // Patience 1 restarts after every step whose gain does not improve;
  // patience cw_steps + 1 can never fire. Any restart re-noises the
  // variables from the RNG, so the two runs must part ways.
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 12;
  config.stall_patience = 1;
  std::vector<double> restarting_gains, steady_gains;
  const AttackResult restarting = AttackEngine(*model_, config).run(
      *cloud_, {.observer = [&](const AttackProgress& p) { restarting_gains.push_back(p.gain); }});
  config.stall_patience = config.cw_steps + 1;
  const AttackResult steady = AttackEngine(*model_, config).run(
      *cloud_, {.observer = [&](const AttackProgress& p) { steady_gains.push_back(p.gain); }});
  EXPECT_NE(restarting_gains, steady_gains);
  EXPECT_NE(restarting.perturbed.colors, steady.perturbed.colors);
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(AttackConfigValidate, CollectsEveryProblemAtOnce) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.norm = AttackNorm::kBounded;
  config.steps = 0;
  config.epsilon = -0.1f;
  config.min_impact_fraction = -1.0f;
  config.target_class = 99;  // out of range for 13 classes
  // target_mask left empty: a fifth problem.
  const auto errors = config.validate(/*num_classes=*/13);
  EXPECT_EQ(errors.size(), 5u) << ::testing::PrintToString(errors);
}

TEST(AttackConfigValidate, ReportsEveryNonFiniteFloatOnce) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const AttackNorm norm : {AttackNorm::kBounded, AttackNorm::kUnbounded}) {
    AttackConfig config;
    config.norm = norm;
    config.field = AttackField::kBoth;
    config.epsilon = nan;
    config.coord_epsilon = -inf;
    config.step_size = inf;
    config.adam_lr = nan;
    config.lambda1 = inf;
    config.lambda2 = nan;
    config.min_impact_fraction = -inf;
    config.success_accuracy = inf;
    config.success_psr = nan;
    const auto errors = config.validate(13);
    EXPECT_EQ(errors.size(), 9u) << ::testing::PrintToString(errors);
    for (const auto& e : errors) EXPECT_NE(e.find("must be finite"), std::string::npos) << e;
  }
}

TEST(AttackConfigValidate, AcceptsTheDefaults) {
  EXPECT_TRUE(AttackConfig{}.validate().empty());
  AttackConfig unbounded;
  unbounded.norm = AttackNorm::kUnbounded;
  EXPECT_TRUE(unbounded.validate(13).empty());
}

TEST(AttackConfigValidate, ChecksMaskSizeAgainstCloud) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.target_class = 1;
  config.target_mask.assign(10, 1);
  EXPECT_TRUE(config.validate(13, 10).empty());
  EXPECT_EQ(config.validate(13, 11).size(), 1u);
}

TEST_F(EngineFixture, ConstructorThrowsListingAllErrors) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = -5;
  config.adam_lr = 0.0f;
  try {
    const AttackEngine engine(*model_, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("cw_steps"), std::string::npos) << message;
    EXPECT_NE(message.find("adam_lr"), std::string::npos) << message;
  }
}

TEST_F(EngineFixture, RunRejectsMismatchedMask) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.target_class = 2;
  config.target_mask.assign(3, 1);  // wrong size for the fixture cloud
  const AttackEngine engine(*model_, config);
  EXPECT_THROW(engine.run(*cloud_), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shared-delta ("universal") mode.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, RunSharedDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.steps = 4;
  const AttackEngine engine(*model_, config);
  const SharedDeltaResult seq = engine.run_shared(*clouds_, {.threads = 1});
  const SharedDeltaResult par = engine.run_shared(*clouds_, {.threads = 2});
  EXPECT_EQ(seq.color_delta, par.color_delta);
  EXPECT_EQ(seq.accuracy_after, par.accuracy_after);
  EXPECT_EQ(seq.steps_used, par.steps_used);
}

TEST_F(EngineFixture, RunSharedRejectsMisalignedClouds) {
  auto clouds = *clouds_;
  IndoorSceneGenerator small({.num_points = 16});
  Rng rng(5);
  clouds.push_back(small.generate(rng));
  const AttackEngine engine(*model_, AttackConfig{});
  EXPECT_THROW(engine.run_shared(clouds), std::invalid_argument);
  EXPECT_THROW(engine.run_shared({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observability and parameter-flag hygiene.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, ObserverSeesEveryStep) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  const AttackEngine engine(*model_, config);
  // Plan on: step 0 runs eagerly (and is captured), later steps replay;
  // plan off: every step is eager. Both must report every step.
  for (const bool plan : {true, false}) {
    SCOPED_TRACE(plan ? "plan" : "eager");
    const auto& replays = pcss::obs::metrics::counter("plan.replays");
    const std::uint64_t replays0 = replays.value();
    std::vector<int> steps_seen;
    ExecPolicy policy;
    policy.plan = plan;
    policy.observer = [&](const AttackProgress& p) {
      EXPECT_EQ(p.cloud_index, 0u);
      steps_seen.push_back(p.step);
    };
    const AttackResult result = engine.run(*cloud_, policy);
    ASSERT_EQ(static_cast<int>(steps_seen.size()), result.steps_used);
    for (int s = 0; s < result.steps_used; ++s) {
      EXPECT_EQ(steps_seen[static_cast<size_t>(s)], s);
    }
    // Every step after the captured one replays.
    const std::uint64_t want = plan ? static_cast<std::uint64_t>(result.steps_used - 1) : 0;
    EXPECT_EQ(replays.value() - replays0, want);
  }
}

TEST_F(EngineFixture, ModelParamGradsRestoredAfterRun) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 2;
  const AttackEngine engine(*model_, config);
  (void)engine.run(*cloud_);
  for (auto& p : model_->parameters()) {
    EXPECT_TRUE(p.requires_grad()) << "engine must restore parameter grad flags";
  }
}

}  // namespace
