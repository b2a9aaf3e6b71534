// Additional edge-case and contract tests across modules: optimizer
// parameter gradients, zoo cache-dir resolution, projection views,
// sampling boundaries, and experiment distance-metric switching.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "gradcheck.h"
#include "pcss/core/experiment.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/pointcloud/io.h"
#include "pcss/pointcloud/sampling.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/ops.h"
#include "pcss/train/model_zoo.h"
#include "pcss/viz/render.h"
#include "temp_dir.h"

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
using pcss::testing::random_values;

namespace {

// --- tensor extras -----------------------------------------------------------

TEST(TensorExtras, MatmulAssociativityNumeric) {
  Rng rng(1);
  Tensor a = Tensor::from_data({2, 3}, random_values(6, rng));
  Tensor b = Tensor::from_data({3, 4}, random_values(12, rng));
  Tensor c = Tensor::from_data({4, 2}, random_values(8, rng));
  Tensor left = ops::matmul(ops::matmul(a, b), c);
  Tensor right = ops::matmul(a, ops::matmul(b, c));
  for (std::int64_t i = 0; i < left.numel(); ++i) {
    EXPECT_NEAR(left.at(i), right.at(i), 1e-4f);
  }
}

TEST(TensorExtras, RunningStatsUpdatedOnlyInTraining) {
  Rng rng(3);
  Tensor gamma = Tensor::full({2}, 1.0f);
  Tensor beta = Tensor::zeros({2});
  std::vector<float> rm(2, 0.0f), rv(2, 1.0f);
  Tensor x = Tensor::from_data({4, 2}, random_values(8, rng, 2.0f, 3.0f));
  ops::batch_norm(x, gamma, beta, rm, rv, /*training=*/false);
  EXPECT_FLOAT_EQ(rm[0], 0.0f);
  ops::batch_norm(x, gamma, beta, rm, rv, /*training=*/true);
  EXPECT_GT(rm[0], 0.0f);
}

// --- model zoo ---------------------------------------------------------------

TEST(ModelZooTest, CacheDirEnvOverride) {
  ::setenv("PCSS_ARTIFACTS", "/tmp/pcss_zoo_test", 1);
  EXPECT_EQ(pcss::train::ModelZoo::default_cache_dir(), "/tmp/pcss_zoo_test");
  ::unsetenv("PCSS_ARTIFACTS");
  EXPECT_EQ(pcss::train::ModelZoo::default_cache_dir(), "artifacts");
}

TEST(ModelZooTest, EvalScenesDeterministicAndDistinct) {
  const pcss::testing::TempDir tmp;
  pcss::train::ModelZoo zoo(tmp.path());
  const auto a = zoo.indoor_eval_scenes(2, 31);
  const auto b = zoo.indoor_eval_scenes(2, 31);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].labels, b[0].labels);
  // Different scenes within one batch.
  EXPECT_NE(a[0].labels, a[1].labels);
  const auto c = zoo.indoor_eval_scenes(1, 32);
  EXPECT_NE(a[0].labels, c[0].labels);
}

TEST(ModelZooTest, ZooConfigsMatchDocumentedScales) {
  EXPECT_EQ(pcss::train::zoo_indoor_config().num_points, 512);
  EXPECT_EQ(pcss::train::zoo_outdoor_config().num_points, 1024);
}

// --- viz projections -----------------------------------------------------------

TEST(VizExtras, AllViewAxesRender) {
  pcss::data::IndoorSceneGenerator gen({.num_points = 128});
  Rng rng(4);
  const auto cloud = gen.generate(rng);
  for (auto view : {pcss::viz::ViewAxis::kTop, pcss::viz::ViewAxis::kFront,
                    pcss::viz::ViewAxis::kSide}) {
    const auto img = pcss::viz::render_cloud_colors(cloud, 32, 32, view);
    int lit = 0;
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        if (img.pixel(x, y)[0] > 0.15f) ++lit;
      }
    }
    EXPECT_GT(lit, 10) << "view produced an empty image";
  }
}

TEST(VizExtras, HstackGapUsesSeparatorColor) {
  pcss::viz::Image a(3, 2, {1, 1, 1}), b(3, 2, {1, 1, 1});
  const auto s = pcss::viz::Image::hstack({a, b}, 2);
  // The gap column keeps the dark separator background.
  EXPECT_LT(s.pixel(3, 0)[0], 0.5f);
  EXPECT_FLOAT_EQ(s.pixel(0, 0)[0], 1.0f);
}

// --- sampling boundaries -------------------------------------------------------

TEST(SamplingExtras, RandomSampleBoundaries) {
  Rng rng(5);
  EXPECT_TRUE(pcss::pointcloud::random_sample(10, 0, rng).empty());
  const auto all = pcss::pointcloud::random_sample(10, 10, rng);
  std::set<std::int64_t> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_THROW(pcss::pointcloud::random_sample(5, 6, rng), std::invalid_argument);
}

TEST(SamplingExtras, DuplicateOrSelectIdentitySize) {
  Rng rng(6);
  const auto idx = pcss::pointcloud::duplicate_or_select(8, 8, rng);
  std::set<std::int64_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 8u) << "n==m must be a permutation";
  EXPECT_THROW(pcss::pointcloud::duplicate_or_select(0, 5, rng), std::invalid_argument);
}

TEST(SamplingExtras, VoxelDownsampleRejectsBadVoxel) {
  std::vector<pcss::pointcloud::Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(pcss::pointcloud::voxel_downsample(pts, 0.0f), std::invalid_argument);
  EXPECT_THROW(pcss::pointcloud::voxel_downsample(pts, -1.0f), std::invalid_argument);
}

// --- experiment distance switching ---------------------------------------------

TEST(ExperimentExtras, L0VersusL2DistanceSelection) {
  pcss::data::IndoorSceneGenerator gen({.num_points = 96});
  Rng init(7);
  pcss::models::ResGCNConfig mc;
  mc.num_classes = 13;
  mc.channels = 8;
  mc.blocks = 1;
  pcss::models::ResGCNSeg model(mc, init);
  Rng srng(8);
  const std::vector<pcss::core::PointCloud> clouds{gen.generate(srng)};

  pcss::core::AttackConfig config;
  config.steps = 2;
  const auto l2 = pcss::core::attack_cases(model, clouds, config, false);
  const auto l0 = pcss::core::attack_cases(model, clouds, config, true);
  ASSERT_EQ(l2.size(), 1u);
  ASSERT_EQ(l0.size(), 1u);
  // L0 counts points (integer-valued), L2 is a norm; with a random-init
  // bounded attack both are positive and differ.
  EXPECT_GT(l0[0].distance, 0.0);
  EXPECT_GT(l2[0].distance, 0.0);
  EXPECT_DOUBLE_EQ(l0[0].distance, std::floor(l0[0].distance));
}

// --- io color quantization -------------------------------------------------------

TEST(IoExtras, PlyQuantizesAndClampsColors) {
  pcss::core::PointCloud cloud;
  cloud.push_back({0, 0, 0}, {1.0f, 0.0f, 0.49803922f}, 0);  // 127/255
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("cloud.ply");
  pcss::pointcloud::save_ply(cloud, path);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && line != "end_header") {
  }
  std::getline(in, line);
  EXPECT_NE(line.find("255 0 127"), std::string::npos) << "got: " << line;
}

}  // namespace
