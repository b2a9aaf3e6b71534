// Parameterized property tests: invariants that must hold across sweeps
// of shapes, seeds, ks, conventions, and all 8 attack configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <tuple>

#include "gradcheck.h"
#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_stage.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/data/outdoor.h"
#include "pcss/models/assembler.h"
#include "pcss/models/resgcn.h"
#include "pcss/pointcloud/io.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/pointcloud/sampling.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/optim.h"
#include "temp_dir.h"

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
using namespace pcss::pointcloud;

namespace {

// ---------------------------------------------------------------------------
// Tensor-op algebraic properties across shapes.
// ---------------------------------------------------------------------------

class OpShapes : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  Tensor random(std::uint64_t seed, float lo = -2.0f, float hi = 2.0f) const {
    const auto [n, c] = GetParam();
    Rng rng(seed);
    return Tensor::uniform({n, c}, rng, lo, hi);
  }
};

TEST_P(OpShapes, AddCommutes) {
  Tensor a = random(1), b = random(2);
  Tensor ab = ops::add(a, b), ba = ops::add(b, a);
  for (std::int64_t i = 0; i < ab.numel(); ++i) EXPECT_FLOAT_EQ(ab.at(i), ba.at(i));
}

TEST_P(OpShapes, SubIsAddNeg) {
  Tensor a = random(3), b = random(4);
  Tensor s = ops::sub(a, b), an = ops::add(a, ops::scale(b, -1.0f));
  for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_NEAR(s.at(i), an.at(i), 1e-6f);
}

TEST_P(OpShapes, ReluIdempotent) {
  Tensor a = random(5);
  Tensor r1 = ops::relu(a), r2 = ops::relu(r1);
  for (std::int64_t i = 0; i < r1.numel(); ++i) EXPECT_FLOAT_EQ(r1.at(i), r2.at(i));
}

TEST_P(OpShapes, SquareMatchesMulSelf) {
  Tensor a = random(6);
  Tensor s = ops::square(a), m = ops::mul(a, a);
  for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_FLOAT_EQ(s.at(i), m.at(i));
}

TEST_P(OpShapes, SliceOfConcatRecoversInputs) {
  Tensor a = random(7), b = random(8);
  const auto [n, c] = GetParam();
  Tensor cat = ops::concat_cols(a, b);
  Tensor sa = ops::slice_cols(cat, 0, c), sb = ops::slice_cols(cat, c, 2 * c);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(sa.at(i), a.at(i));
    EXPECT_FLOAT_EQ(sb.at(i), b.at(i));
  }
}

TEST_P(OpShapes, RowSumMatchesMatmulOnes) {
  const auto [n, c] = GetParam();
  Tensor a = random(9);
  Tensor ones = Tensor::full({c, 1}, 1.0f);
  Tensor rs = ops::row_sum(a), mm = ops::matmul(a, ones);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_NEAR(rs.at(i), mm.at(i), 1e-4f);
}

TEST_P(OpShapes, LogSoftmaxShiftInvariant) {
  Tensor a = random(10);
  Tensor shifted = ops::add_scalar(a, 7.5f);
  Tensor la = ops::log_softmax_rows(a), ls = ops::log_softmax_rows(shifted);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_NEAR(la.at(i), ls.at(i), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpShapes,
                         ::testing::Values(std::pair{1, 2}, std::pair{3, 5},
                                           std::pair{16, 4}, std::pair{7, 13},
                                           std::pair{64, 3}));

// ---------------------------------------------------------------------------
// Segment-op properties across k.
// ---------------------------------------------------------------------------

class SegmentK : public ::testing::TestWithParam<int> {};

TEST_P(SegmentK, MaxDominatesMean) {
  const int k = GetParam();
  Rng rng(20 + static_cast<std::uint64_t>(k));
  Tensor x = Tensor::uniform({6 * k, 4}, rng, -3, 3);
  Tensor mx = ops::segment_max(x, k);
  Tensor mn = ops::scale(ops::segment_sum(x, k), 1.0f / static_cast<float>(k));
  for (std::int64_t i = 0; i < mx.numel(); ++i) EXPECT_GE(mx.at(i), mn.at(i) - 1e-5f);
}

TEST_P(SegmentK, SoftmaxWeightsSumToOne) {
  const int k = GetParam();
  Rng rng(40 + static_cast<std::uint64_t>(k));
  Tensor x = Tensor::uniform({4 * k, 3}, rng, -5, 5);
  Tensor y = ops::segment_softmax(x, k);
  for (int seg = 0; seg < 4; ++seg) {
    for (int ch = 0; ch < 3; ++ch) {
      float s = 0.0f;
      for (int r = 0; r < k; ++r) s += y.at((seg * k + r) * 3 + ch);
      EXPECT_NEAR(s, 1.0f, 1e-4f);
    }
  }
}

TEST_P(SegmentK, SumMatchesGroupLoop) {
  const int k = GetParam();
  Rng rng(60 + static_cast<std::uint64_t>(k));
  Tensor x = Tensor::uniform({3 * k, 2}, rng, -1, 1);
  Tensor sm = ops::segment_sum(x, k);
  for (int seg = 0; seg < 3; ++seg) {
    for (int ch = 0; ch < 2; ++ch) {
      double expect = 0.0;
      for (int r = 0; r < k; ++r) expect += x.at((seg * k + r) * 2 + ch);
      EXPECT_NEAR(sm.at(seg * 2 + ch), expect, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SegmentK, ::testing::Values(1, 2, 5, 12));

// ---------------------------------------------------------------------------
// Hinge-loss semantics (the paper's Eq. 10/11) on random logits.
// ---------------------------------------------------------------------------

class HingeSeeds : public ::testing::TestWithParam<int> {};

TEST_P(HingeSeeds, UntargetedZeroIffAllMisclassified) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::int64_t n = 12, c = 5;
  Tensor logits = Tensor::uniform({n, c}, rng, -1, 1);
  std::vector<int> labels(static_cast<size_t>(n));
  for (auto& l : labels) l = static_cast<int>(rng.randint(0, c - 1));
  const float loss = ops::hinge_margin_loss(logits, labels, {}, false).item();
  const auto pred = ops::argmax_rows(logits);
  bool any_correct = false;
  for (std::int64_t i = 0; i < n; ++i) any_correct |= pred[static_cast<size_t>(i)] == labels[static_cast<size_t>(i)];
  if (any_correct) {
    EXPECT_GT(loss, 0.0f);
  } else {
    EXPECT_FLOAT_EQ(loss, 0.0f);
  }
}

TEST_P(HingeSeeds, TargetedZeroIffAllHitTarget) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const std::int64_t n = 12, c = 5;
  Tensor logits = Tensor::uniform({n, c}, rng, -1, 1);
  std::vector<int> targets(static_cast<size_t>(n), 2);
  const float loss = ops::hinge_margin_loss(logits, targets, {}, true).item();
  const auto pred = ops::argmax_rows(logits);
  bool all_hit = true;
  for (int p : pred) all_hit &= p == 2;
  if (all_hit) {
    EXPECT_FLOAT_EQ(loss, 0.0f);
  } else {
    EXPECT_GT(loss, 0.0f);
  }
}

TEST_P(HingeSeeds, MaskedLossNeverExceedsUnmasked) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  const std::int64_t n = 10, c = 4;
  Tensor logits = Tensor::uniform({n, c}, rng, -1, 1);
  std::vector<int> labels(static_cast<size_t>(n));
  std::vector<std::uint8_t> mask(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int>(rng.randint(0, c - 1));
    mask[static_cast<size_t>(i)] = rng.uniform() < 0.5f ? 1 : 0;
  }
  if (std::count(mask.begin(), mask.end(), std::uint8_t{1}) == 0) mask[0] = 1;
  const float full = ops::hinge_margin_loss(logits, labels, {}, false).item();
  const float masked = ops::hinge_margin_loss(logits, labels, mask, false).item();
  EXPECT_LE(masked, full + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HingeSeeds, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Smoothness penalty properties.
// ---------------------------------------------------------------------------

TEST(SmoothnessProps, ZeroForCoincidentPoints) {
  Tensor x = Tensor::full({4, 3}, 0.7f);
  const std::vector<std::int64_t> nbr{1, 2, 3, 0, 0, 1, 2, 3};
  EXPECT_NEAR(ops::smoothness_penalty(x, nbr, 2).item(), 0.0f, 1e-4f);
}

TEST(SmoothnessProps, ScalesLinearlyWithUniformScale) {
  Rng rng(7);
  Tensor x = Tensor::uniform({6, 3}, rng, 0, 1);
  const auto pts = [&] {
    std::vector<Vec3> v(6);
    for (int i = 0; i < 6; ++i) v[static_cast<size_t>(i)] = {x.at(i * 3), x.at(i * 3 + 1), x.at(i * 3 + 2)};
    return v;
  }();
  const auto nbr = knn_self(pts, 2, false);
  const float s1 = ops::smoothness_penalty(x, nbr, 2).item();
  const float s3 = ops::smoothness_penalty(ops::scale(x, 3.0f), nbr, 2).item();
  EXPECT_NEAR(s3, 3.0f * s1, 1e-2f * s3);
}

// ---------------------------------------------------------------------------
// Sampling sweeps.
// ---------------------------------------------------------------------------

class FpsSweep : public ::testing::TestWithParam<int> {};

TEST_P(FpsSweep, FpsSpreadsBetterThanRandom) {
  // FPS maximizes the minimum pairwise distance; a random sample of the
  // same size should have min-distance no larger (with margin for luck).
  const int m = GetParam();
  Rng rng(static_cast<std::uint64_t>(m));
  std::vector<Vec3> pts(256);
  for (auto& p : pts) p = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
  auto min_dist = [&](const std::vector<std::int64_t>& sel) {
    float best = 1e9f;
    for (size_t i = 0; i < sel.size(); ++i) {
      for (size_t j = i + 1; j < sel.size(); ++j) {
        best = std::min(best, squared_distance(pts[static_cast<size_t>(sel[i])],
                                               pts[static_cast<size_t>(sel[j])]));
      }
    }
    return best;
  };
  const float fps = min_dist(farthest_point_sample(pts, m));
  Rng rng2(99);
  const float rnd = min_dist(random_sample(256, m, rng2));
  EXPECT_GE(fps, rnd);
}

INSTANTIATE_TEST_SUITE_P(Ms, FpsSweep, ::testing::Values(4, 16, 64));

// ---------------------------------------------------------------------------
// Generator sweeps: invariants across sizes and seeds.
// ---------------------------------------------------------------------------

class GeneratorSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeneratorSweep, IndoorValidAtAllSizes) {
  const auto [points, seed] = GetParam();
  pcss::data::IndoorSceneGenerator gen({.num_points = points});
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto cloud = gen.generate(rng);
  EXPECT_EQ(cloud.size(), points);
  EXPECT_NO_THROW(cloud.validate());
  for (int l : cloud.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, pcss::data::kIndoorNumClasses);
  }
}

TEST_P(GeneratorSweep, OutdoorValidAtAllSizes) {
  const auto [points, seed] = GetParam();
  pcss::data::OutdoorSceneGenerator gen({.num_points = points});
  Rng rng(static_cast<std::uint64_t>(seed) + 5000);
  const auto cloud = gen.generate(rng);
  EXPECT_EQ(cloud.size(), points);
  EXPECT_NO_THROW(cloud.validate());
  for (int l : cloud.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, pcss::data::kOutdoorNumClasses);
  }
}

INSTANTIATE_TEST_SUITE_P(SizesSeeds, GeneratorSweep,
                         ::testing::Combine(::testing::Values(64, 256, 1024),
                                            ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Assembler: zero delta == plain input, for every convention.
// ---------------------------------------------------------------------------

using pcss::models::AssembledInput;
using pcss::models::CoordConvention;
using pcss::models::ModelInput;

class ConventionSweep : public ::testing::TestWithParam<CoordConvention> {};

TEST_P(ConventionSweep, ZeroDeltaMatchesPlain) {
  pcss::data::IndoorSceneGenerator gen({.num_points = 64});
  Rng rng(3);
  const auto cloud = gen.generate(rng);
  const bool extra = GetParam() == CoordConvention::kZeroToThree;
  ModelInput plain = ModelInput::plain(cloud);
  const AssembledInput a = assemble_input(plain, GetParam(), extra);
  Tensor zc = Tensor::zeros({cloud.size(), 3});
  Tensor zp = Tensor::zeros({cloud.size(), 3});
  ModelInput with_deltas{&cloud, zc, zp};
  const AssembledInput b = assemble_input(with_deltas, GetParam(), extra);
  ASSERT_EQ(a.features.numel(), b.features.numel());
  for (std::int64_t i = 0; i < a.features.numel(); ++i) {
    EXPECT_NEAR(a.features.at(i), b.features.at(i), 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Conventions, ConventionSweep,
                         ::testing::Values(CoordConvention::kZeroToThree,
                                           CoordConvention::kMinusOneToOne,
                                           CoordConvention::kCentered));

// ---------------------------------------------------------------------------
// All 8 paper attack configurations execute and respect field isolation.
// ---------------------------------------------------------------------------

using pcss::core::AttackConfig;
using pcss::core::AttackField;
using pcss::core::AttackNorm;
using pcss::core::AttackObjective;

class AttackMatrix
    : public ::testing::TestWithParam<std::tuple<AttackObjective, AttackNorm, AttackField>> {
 protected:
  static void SetUpTestSuite() {
    gen_ = new pcss::data::IndoorSceneGenerator({.num_points = 96});
    Rng init(5);
    pcss::models::ResGCNConfig config;
    config.num_classes = 13;
    config.channels = 8;
    config.blocks = 1;
    model_ = new pcss::models::ResGCNSeg(config, init);
    Rng rng(6);
    cloud_ = new pcss::data::PointCloud(
        gen_->generate_with_class(rng, static_cast<int>(pcss::data::IndoorClass::kWall), 10));
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete model_;
    delete cloud_;
  }
  static pcss::data::IndoorSceneGenerator* gen_;
  static pcss::models::ResGCNSeg* model_;
  static pcss::data::PointCloud* cloud_;
};

pcss::data::IndoorSceneGenerator* AttackMatrix::gen_ = nullptr;
pcss::models::ResGCNSeg* AttackMatrix::model_ = nullptr;
pcss::data::PointCloud* AttackMatrix::cloud_ = nullptr;

TEST_P(AttackMatrix, RunsAndRespectsFieldIsolation) {
  const auto [objective, norm, field] = GetParam();
  AttackConfig config;
  config.objective = objective;
  config.norm = norm;
  config.field = field;
  config.steps = 3;
  config.cw_steps = 3;
  if (objective == AttackObjective::kObjectHiding) {
    config.target_class = static_cast<int>(pcss::data::IndoorClass::kCeiling);
    config.target_mask =
        pcss::core::mask_for_class(cloud_->labels, static_cast<int>(pcss::data::IndoorClass::kWall));
  }
  const auto result = pcss::core::AttackEngine(*model_, config).run(*cloud_);
  EXPECT_EQ(static_cast<std::int64_t>(result.predictions.size()), cloud_->size());
  EXPECT_NO_THROW(result.perturbed.validate());
  if (field == AttackField::kColor) {
    EXPECT_EQ(result.l0_coord, 0);
  }
  if (field == AttackField::kCoordinate) {
    EXPECT_EQ(result.l0_color, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, AttackMatrix,
    ::testing::Combine(::testing::Values(AttackObjective::kPerformanceDegradation,
                                         AttackObjective::kObjectHiding),
                       ::testing::Values(AttackNorm::kBounded, AttackNorm::kUnbounded),
                       ::testing::Values(AttackField::kColor, AttackField::kCoordinate,
                                         AttackField::kBoth)));

// ---------------------------------------------------------------------------
// Defense sweeps.
// ---------------------------------------------------------------------------

class SrsSweep : public ::testing::TestWithParam<int> {};

TEST_P(SrsSweep, RemovesRequestedFraction) {
  pcss::data::IndoorSceneGenerator gen({.num_points = 240});
  Rng rng(9);
  const auto cloud = gen.generate(rng);
  Rng def(10);
  const auto defended = pcss::core::make_srs_stage(GetParam())->apply(cloud, def).cloud;
  EXPECT_EQ(defended.size(), cloud.size() - GetParam());
}

INSTANTIATE_TEST_SUITE_P(Counts, SrsSweep, ::testing::Values(1, 24, 120, 239));

// ---------------------------------------------------------------------------
// I/O round-trip over random clouds.
// ---------------------------------------------------------------------------

class IoSweep : public ::testing::TestWithParam<int> {};

TEST_P(IoSweep, RoundTripPreservesEverything) {
  pcss::data::OutdoorSceneGenerator gen({.num_points = 50});
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto cloud = gen.generate(rng);
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("cloud.txt");
  save_xyzrgbl(cloud, path);
  const auto loaded = load_xyzrgbl(path);
  ASSERT_EQ(loaded.size(), cloud.size());
  for (std::int64_t i = 0; i < cloud.size(); ++i) {
    EXPECT_EQ(loaded.labels[static_cast<size_t>(i)], cloud.labels[static_cast<size_t>(i)]);
    for (int a = 0; a < 3; ++a) {
      EXPECT_NEAR(loaded.positions[static_cast<size_t>(i)][a],
                  cloud.positions[static_cast<size_t>(i)][a], 1e-4f);
      EXPECT_NEAR(loaded.colors[static_cast<size_t>(i)][a],
                  cloud.colors[static_cast<size_t>(i)][a], 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoSweep, ::testing::Range(1, 4));

}  // namespace
