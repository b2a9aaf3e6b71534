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

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
using pcss::testing::expect_gradcheck;
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

TEST(TensorExtras, BatchNormAffineParamGradients) {
  Rng rng(2);
  Tensor x = Tensor::from_data({6, 3}, random_values(18, rng));
  Tensor beta = Tensor::from_data({3}, {0.1f, -0.2f, 0.3f});
  // Gradcheck w.r.t. gamma with x fixed.
  expect_gradcheck(
      [&](const Tensor& gamma) {
        std::vector<float> rm(3, 0.0f), rv(3, 1.0f);
        return ops::sum(ops::square(ops::batch_norm(x, gamma, beta, rm, rv, true)));
      },
      {3}, {1.1f, 0.9f, 1.3f}, 1e-3f, 5e-2f);
  Tensor gamma = Tensor::from_data({3}, {1.1f, 0.9f, 1.3f});
  expect_gradcheck(
      [&](const Tensor& b) {
        std::vector<float> rm(3, 0.0f), rv(3, 1.0f);
        return ops::sum(ops::square(ops::batch_norm(x, gamma, b, rm, rv, true)));
      },
      {3}, {0.1f, -0.2f, 0.3f});
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

TEST(TensorExtras, HingeRejectsBadInputs) {
  Tensor logits = Tensor::zeros({2, 3});
  EXPECT_THROW(ops::hinge_margin_loss(logits, {0}, {}, false), std::runtime_error);
  EXPECT_THROW(ops::hinge_margin_loss(logits, {0, 9}, {}, false), std::runtime_error);
  Tensor one_class = Tensor::zeros({2, 1});
  EXPECT_THROW(ops::hinge_margin_loss(one_class, {0, 0}, {}, false), std::runtime_error);
}

TEST(TensorExtras, HostileIndicesThrowBeforeTheForwardReads) {
  // The forward rules read without bounds checks, so every index, label
  // and neighbor is validated before the output is computed: each of
  // these throws (under ASan: without an out-of-bounds read first).
  Tensor x = Tensor::zeros({4, 3});
  for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{4}, std::int64_t{1} << 40}) {
    EXPECT_THROW(ops::gather_rows(x, {0, bad}), std::runtime_error) << bad;
    EXPECT_THROW(ops::weighted_gather_rows(x, {0, bad}, {1.0f, 1.0f}, 2), std::runtime_error);
    EXPECT_THROW(ops::gather_sub_rows(x, {0, bad}, {1}, 2), std::runtime_error);
    EXPECT_THROW(ops::gather_sub_rows(x, {0, 1}, {bad}, 2), std::runtime_error);
    EXPECT_THROW(ops::edge_linear(x, Tensor::zeros({6, 2}), Tensor::zeros({2}),
                                  {0, 1, 2, 3, 0, 1, 2, bad}, 2),
                 std::runtime_error);
    EXPECT_THROW(ops::edge_conv_eval(x, Tensor::zeros({6, 2}), Tensor::zeros({2}),
                                     Tensor::zeros({2}), Tensor::zeros({2}), {0.0f, 0.0f},
                                     {1.0f, 1.0f}, {0, 1, 2, 3, 0, 1, 2, bad}, 2),
                 std::runtime_error);
    EXPECT_THROW(ops::neighbor_linear(Tensor::zeros({2, 1}), x, Tensor::zeros({4, 2}),
                                      Tensor::zeros({2}), {0, bad}),
                 std::runtime_error);
    EXPECT_THROW(ops::smoothness_penalty(x, {1, 2, 3, bad}, 1), std::runtime_error);
    EXPECT_THROW(ops::scatter_rows(Tensor::zeros({2, 3}), {0, bad}, 4,
                                   std::vector<float>(12, 0.0f)),
                 std::runtime_error);
  }
  EXPECT_THROW(ops::scatter_rows(Tensor::zeros({2, 3}), {1, 1}, 4, std::vector<float>(12)),
               std::runtime_error)
      << "duplicate scatter index";
  EXPECT_THROW(ops::nll_loss_masked(x, {0, 1, 3, 2}, {}), std::runtime_error);
  EXPECT_THROW(ops::nll_loss_masked(x, {0, -1, 2, 2}, {}), std::runtime_error);
  EXPECT_THROW(ops::hinge_margin_loss(x, {0, 1, -7, 2}, {}, true), std::runtime_error);
  // A masked-out row's label is never read, so it is not checked.
  EXPECT_NO_THROW(ops::nll_loss_masked(x, {0, 99, 2, 2}, {1, 0, 1, 1}));
  EXPECT_NO_THROW(ops::hinge_margin_loss(x, {0, 99, 2, 2}, {1, 0, 1, 1}, false));
}

TEST(TensorExtras, SegmentOpsRejectBadK) {
  Tensor x = Tensor::zeros({6, 2});
  EXPECT_THROW(ops::segment_max(x, 4), std::runtime_error);
  EXPECT_THROW(ops::segment_softmax(x, 0), std::runtime_error);
  EXPECT_THROW(ops::attentive_pool(x, x, 4), std::runtime_error);
  EXPECT_THROW(ops::attentive_pool(x, x, 0), std::runtime_error);
  EXPECT_THROW(ops::attentive_pool(x, Tensor::zeros({6, 3}), 3), std::runtime_error);
  // edge_conv_eval's k is its group width: positive, N*k neighbor indices.
  const Tensor h = Tensor::zeros({3, 2});
  const Tensor w = Tensor::zeros({4, 2}), v = Tensor::zeros({2});
  const std::vector<float> mean{0.0f, 0.0f}, var{1.0f, 1.0f};
  EXPECT_THROW(ops::edge_conv_eval(h, w, v, v, v, mean, var, {}, 0), std::runtime_error);
  EXPECT_THROW(ops::edge_conv_eval(h, w, v, v, v, mean, var, {0, 1, 2, 0, 1}, 2),
               std::runtime_error);
  EXPECT_NO_THROW(ops::edge_conv_eval(h, w, v, v, v, mean, var, {0, 1, 2, 0, 1, 2}, 2));
}

// --- model zoo ---------------------------------------------------------------

TEST(ModelZooTest, CacheDirEnvOverride) {
  ::setenv("PCSS_ARTIFACTS", "/tmp/pcss_zoo_test", 1);
  EXPECT_EQ(pcss::train::ModelZoo::default_cache_dir(), "/tmp/pcss_zoo_test");
  ::unsetenv("PCSS_ARTIFACTS");
  EXPECT_EQ(pcss::train::ModelZoo::default_cache_dir(), "artifacts");
}

TEST(ModelZooTest, EvalScenesDeterministicAndDistinct) {
  pcss::train::ModelZoo zoo("/tmp/pcss_zoo_test_cache");
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
  const std::string path =
      (std::filesystem::temp_directory_path() / "pcss_ply_quant.ply").string();
  pcss::pointcloud::save_ply(cloud, path);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && line != "end_header") {
  }
  std::getline(in, line);
  EXPECT_NE(line.find("255 0 127"), std::string::npos) << "got: " << line;
  std::filesystem::remove(path);
}

}  // namespace
