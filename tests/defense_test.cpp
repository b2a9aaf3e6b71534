#include <gtest/gtest.h>

#include <algorithm>

#include "pcss/core/defense_stage.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::models::ResGCNConfig;
using pcss::models::ResGCNSeg;
using pcss::tensor::Rng;

namespace {

pcss::data::PointCloud scene(int points = 200, std::uint64_t seed = 1) {
  IndoorSceneGenerator gen({.num_points = points});
  Rng rng(seed);
  return gen.generate(rng);
}

TEST(SrsDefense, RemovesExactCount) {
  const auto cloud = scene(200);
  Rng rng(5);
  const auto defended = make_srs_stage(50)->apply(cloud, rng).cloud;
  EXPECT_EQ(defended.size(), 150);
  EXPECT_NO_THROW(defended.validate());
}

TEST(SrsDefense, KeptPointsComeFromOriginal) {
  const auto cloud = scene(100);
  Rng rng(6);
  const auto defended = make_srs_stage(30)->apply(cloud, rng).cloud;
  // Every kept position must exist in the original (order preserved means
  // we can check by scanning forward).
  size_t cursor = 0;
  for (std::int64_t i = 0; i < defended.size(); ++i) {
    bool found = false;
    for (; cursor < cloud.positions.size(); ++cursor) {
      if (cloud.positions[cursor] == defended.positions[static_cast<size_t>(i)]) {
        found = true;
        ++cursor;
        break;
      }
    }
    ASSERT_TRUE(found) << "defended point " << i << " not in original order";
  }
}

TEST(SrsDefense, RejectsBadCounts) {
  const auto cloud = scene(50);
  Rng rng(7);
  EXPECT_THROW(make_srs_stage(-1)->apply(cloud, rng), std::invalid_argument);
  EXPECT_THROW(make_srs_stage(50)->apply(cloud, rng), std::invalid_argument);
}

TEST(SorDefense, RemovesPlantedSpatialOutliers) {
  auto cloud = scene(300);
  const auto n_before = cloud.size();
  // Plant spatial outliers far from the room.
  for (int i = 0; i < 5; ++i) {
    cloud.push_back({100.0f + i, 100.0f, 100.0f}, {0.5f, 0.5f, 0.5f}, 0);
  }
  Rng unused(0);  // SOR is deterministic; the stage never draws
  const auto defended = make_sor_stage(2, 1.0f, 1.0f)->apply(cloud, unused).cloud;
  EXPECT_LE(defended.size(), n_before + 1);
  for (const auto& p : defended.positions) {
    EXPECT_LT(p[0], 50.0f) << "planted outlier survived SOR";
  }
}

TEST(SorDefense, ColorAwareDistanceCatchesColorOutliers) {
  // All points co-located spatially; a few have wildly different color.
  pcss::data::PointCloud cloud;
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    cloud.push_back({rng.uniform(0, 1), rng.uniform(0, 1), 0.0f},
                    {0.5f + rng.uniform(-0.02f, 0.02f), 0.5f, 0.5f}, 0);
  }
  for (int i = 0; i < 4; ++i) {
    cloud.push_back({rng.uniform(0, 1), rng.uniform(0, 1), 0.0f}, {1.0f, 0.0f, 1.0f}, 0);
  }
  // Strong color weighting: the color outliers dominate the metric.
  const auto defended = make_sor_stage(2, 1.5f, 50.0f)->apply(cloud, rng).cloud;
  int magenta = 0;
  for (const auto& c : defended.colors) {
    if (c[0] > 0.9f && c[1] < 0.1f) ++magenta;
  }
  EXPECT_EQ(magenta, 0) << "color outliers survived color-aware SOR";
  // Without color weighting they survive (spatially they are inliers).
  const auto spatial_only = make_sor_stage(2, 1.5f, 0.0f)->apply(cloud, rng).cloud;
  int magenta2 = 0;
  for (const auto& c : spatial_only.colors) {
    if (c[0] > 0.9f && c[1] < 0.1f) ++magenta2;
  }
  EXPECT_GT(magenta2, 0);
}

TEST(SorDefense, SmallCloudPassthrough) {
  const auto cloud = scene(3);
  Rng unused(0);
  const auto defended = make_sor_stage(5)->apply(cloud, unused).cloud;
  EXPECT_EQ(defended.size(), cloud.size());
}

TEST(RunDefended, ScoresDefendedCloud) {
  Rng init(9);
  ResGCNConfig config;
  config.num_classes = pcss::data::kIndoorNumClasses;
  config.channels = 8;
  config.blocks = 1;
  ResGCNSeg model(config, init);
  const auto cloud = scene(150);
  Rng rng(10);
  const auto defended = make_srs_stage(30)->apply(cloud, rng).cloud;
  // The identity pipeline scores the already-defended cloud as given.
  const DefenseReport report =
      run_defended(model, DefensePipeline{}, defended, config.num_classes, rng);
  EXPECT_EQ(report.outcome.cloud.size(), 120);
  EXPECT_EQ(report.predictions.size(), 120u);
  EXPECT_GE(report.metrics.accuracy, 0.0);
  EXPECT_LE(report.metrics.accuracy, 1.0);
  EXPECT_GE(report.metrics.aiou, 0.0);
  EXPECT_LE(report.metrics.aiou, 1.0);
}

}  // namespace
