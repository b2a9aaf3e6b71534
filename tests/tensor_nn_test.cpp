#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/optim.h"

namespace ops = pcss::tensor::ops;
namespace nn = pcss::tensor::nn;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
using pcss::testing::random_values;

namespace {

TEST(Linear, ShapesAndParams) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  EXPECT_EQ(lin.in_features(), 4);
  EXPECT_EQ(lin.out_features(), 3);
  Tensor x = Tensor::from_data({2, 4}, random_values(8, rng));
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (pcss::tensor::Shape{2, 3}));
  std::vector<nn::NamedParam> params;
  lin.collect_params("p.", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "p.weight");
  EXPECT_EQ(params[1].name, "p.bias");
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  nn::Linear lin(3, 2, rng, /*bias=*/false);
  std::vector<nn::NamedParam> params;
  lin.collect_params("", params);
  EXPECT_EQ(params.size(), 1u);
}

TEST(Linear, GradientFlowsToWeights) {
  Rng rng(3);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::from_data({4, 3}, random_values(12, rng));
  Tensor loss = ops::sum(ops::square(lin.forward(x)));
  loss.backward();
  for (auto& p : lin.parameters()) {
    ASSERT_FALSE(p.grad().empty());
    float norm = 0.0f;
    for (float g : p.grad()) norm += g * g;
    EXPECT_GT(norm, 0.0f);
  }
}

TEST(BatchNorm, TrainingNormalizesBatch) {
  Rng rng(5);
  nn::BatchNorm1d bn(3);
  Tensor x = Tensor::from_data({64, 3}, random_values(64 * 3, rng, -5.0f, 3.0f));
  Tensor y = bn.forward(x, /*training=*/true);
  // Output columns should be ~zero-mean unit-variance (gamma=1, beta=0).
  for (int j = 0; j < 3; ++j) {
    double m = 0.0, v = 0.0;
    for (int i = 0; i < 64; ++i) m += y.at(i * 3 + j);
    m /= 64.0;
    for (int i = 0; i < 64; ++i) {
      const double d = y.at(i * 3 + j) - m;
      v += d * d;
    }
    v /= 64.0;
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(v, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(7);
  nn::BatchNorm1d bn(2);
  // Feed several training batches so running stats converge toward the
  // batch distribution.
  for (int it = 0; it < 200; ++it) {
    Tensor x = Tensor::from_data({32, 2}, random_values(64, rng, 2.0f, 4.0f));
    bn.forward(x, true);
  }
  // In eval mode an input at the population mean (~3) maps near zero.
  Tensor probe = Tensor::full({1, 2}, 3.0f);
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y.at(0), 0.0f, 0.3f);
  EXPECT_NEAR(y.at(1), 0.0f, 0.3f);
}

TEST(BatchNorm, BuffersExposed) {
  nn::BatchNorm1d bn(4);
  std::vector<nn::NamedBuffer> buffers;
  bn.collect_buffers("bn.", buffers);
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0].name, "bn.running_mean");
  EXPECT_EQ(buffers[1].name, "bn.running_var");
  EXPECT_EQ(buffers[0].values->size(), 4u);
}

TEST(Mlp, StackShapesAndFinalActivation) {
  Rng rng(9);
  nn::Mlp with_act({5, 8, 6}, rng, /*final_activation=*/true);
  nn::Mlp no_act({5, 8, 6}, rng, /*final_activation=*/false);
  Tensor x = Tensor::from_data({3, 5}, random_values(15, rng));
  Tensor y1 = with_act.forward(x, true);
  Tensor y2 = no_act.forward(x, true);
  EXPECT_EQ(y1.dim(1), 6);
  EXPECT_EQ(y2.dim(1), 6);
  EXPECT_EQ(with_act.out_features(), 6);
  // ReLU output is non-negative; the raw head can go negative.
  for (int i = 0; i < 18; ++i) EXPECT_GE(y1.at(i), 0.0f);
  bool has_negative = false;
  for (int i = 0; i < 18; ++i) has_negative |= y2.at(i) < 0.0f;
  EXPECT_TRUE(has_negative);
}

TEST(Mlp, ParameterNamesAreHierarchical) {
  Rng rng(11);
  nn::Mlp mlp({4, 4, 4}, rng);
  std::vector<nn::NamedParam> params;
  mlp.collect_params("enc.", params);
  bool found = false;
  for (auto& p : params) found |= p.name == "enc.lin0.weight";
  EXPECT_TRUE(found);
}

TEST(Optim, SgdConvergesOnQuadratic) {
  // minimize ||x - t||^2.
  Tensor x = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f});
  x.set_requires_grad(true);
  Tensor target = Tensor::from_data({3}, {1.0f, 2.0f, 3.0f});
  pcss::tensor::optim::Sgd opt({x}, 0.1f, 0.5f);
  for (int it = 0; it < 100; ++it) {
    Tensor loss = ops::sum(ops::square(ops::sub(x, target)));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.at(0), 1.0f, 1e-3f);
  EXPECT_NEAR(x.at(1), 2.0f, 1e-3f);
  EXPECT_NEAR(x.at(2), 3.0f, 1e-3f);
}

TEST(Optim, AdamConvergesOnIllConditionedQuadratic) {
  Tensor x = Tensor::from_data({2}, {10.0f, -10.0f});
  x.set_requires_grad(true);
  const Tensor scalev = Tensor::from_data({2}, {100.0f, 0.01f});
  pcss::tensor::optim::Adam opt({x}, 0.5f);
  for (int it = 0; it < 800; ++it) {
    Tensor loss = ops::sum(ops::mul(scalev, ops::square(x)));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.at(0), 0.0f, 1e-2f);
  EXPECT_NEAR(x.at(1), 0.0f, 2e-1f);
}

TEST(Optim, ZeroGradClears) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f});
  x.set_requires_grad(true);
  pcss::tensor::optim::Sgd opt({x}, 0.1f);
  ops::sum(ops::square(x)).backward();
  EXPECT_FALSE(x.grad().empty());
  opt.zero_grad();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 0.0f);
}

// A single Linear layer trained with Adam should fit a linear map.
TEST(Optim, LinearRegressionEndToEnd) {
  Rng rng(21);
  nn::Linear lin(2, 1, rng);
  pcss::tensor::optim::Adam opt(lin.parameters(), 0.05f);
  // y = 3a - 2b + 0.5
  for (int it = 0; it < 400; ++it) {
    std::vector<float> xs = random_values(16, rng);
    std::vector<float> ys(8);
    for (int i = 0; i < 8; ++i) ys[i] = 3.0f * xs[i * 2] - 2.0f * xs[i * 2 + 1] + 0.5f;
    Tensor x = Tensor::from_data({8, 2}, xs);
    Tensor t = Tensor::from_data({8, 1}, ys);
    Tensor loss = ops::scale(ops::sum(ops::square(ops::sub(lin.forward(x), t))), 1.0f / 8.0f);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  std::vector<float> xs{1.0f, 1.0f};
  Tensor probe = Tensor::from_data({1, 2}, xs);
  EXPECT_NEAR(lin.forward(probe).at(0), 1.5f, 0.05f);
}

}  // namespace
