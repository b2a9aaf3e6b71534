#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "pcss/tensor/ops.h"

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Shape;
using pcss::tensor::Tensor;
using pcss::testing::random_values;

namespace {

TEST(TensorBasics, FactoriesAndAccessors) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(1), 3);
  EXPECT_EQ(z.rank(), 2);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(z.at(i), 0.0f);

  Tensor f = Tensor::full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(f.at(i), 2.5f);

  Tensor d = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(d.at(3), 4.0f);
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::runtime_error);
}

TEST(TensorBasics, RandomFactoriesAreSeeded) {
  Rng a(7), b(7);
  Tensor ta = Tensor::randn({8}, a);
  Tensor tb = Tensor::randn({8}, b);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(ta.at(i), tb.at(i));
  Rng c(9);
  Tensor u = Tensor::uniform({100}, c, 0.25f, 0.75f);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(u.at(i), 0.25f);
    EXPECT_LT(u.at(i), 0.75f);
  }
}

TEST(TensorBasics, DetachBreaksGraphAndAliases) {
  Tensor x = Tensor::from_data({2}, {1, 2});
  x.set_requires_grad(true);
  Tensor y = ops::scale(x, 2.0f);
  Tensor d = y.detach();
  EXPECT_FALSE(d.requires_grad());
  d.data()[0] = 99.0f;
  EXPECT_FLOAT_EQ(y.at(0), 2.0f) << "detach must copy, not alias";
}

TEST(TensorBasics, BackwardRequiresScalar) {
  Tensor x = Tensor::from_data({2}, {1, 2});
  x.set_requires_grad(true);
  Tensor y = ops::scale(x, 2.0f);
  EXPECT_THROW(y.backward(), std::runtime_error);
}

TEST(TensorBasics, GradAccumulatesAcrossBackward) {
  Tensor x = Tensor::from_data({2}, {1, 2});
  x.set_requires_grad(true);
  ops::sum(x).backward();
  ops::sum(x).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(TensorBasics, DiamondGraphGradient) {
  // y = sum(x * x + x): dy/dx = 2x + 1, with x reused by two branches.
  Tensor x = Tensor::from_data({3}, {1, 2, 3});
  x.set_requires_grad(true);
  Tensor y = ops::sum(ops::add(ops::mul(x, x), x));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 5.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 7.0f);
}

// ---------------------------------------------------------------------------
// Forward-value checks
// ---------------------------------------------------------------------------

TEST(OpsForward, ElementwiseAndScalar) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {10, 20, 30, 40});
  EXPECT_FLOAT_EQ(ops::add(a, b).at(2), 33.0f);
  EXPECT_FLOAT_EQ(ops::sub(b, a).at(3), 36.0f);
  EXPECT_FLOAT_EQ(ops::mul(a, b).at(1), 40.0f);
  EXPECT_FLOAT_EQ(ops::scale(a, -2.0f).at(0), -2.0f);
  EXPECT_FLOAT_EQ(ops::add_scalar(a, 0.5f).at(0), 1.5f);
  EXPECT_THROW(ops::add(a, Tensor::from_data({4}, {1, 2, 3, 4})), std::runtime_error);
}

TEST(OpsForward, MatmulValues) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(2), 139.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(OpsForward, ReductionsAndRowSum) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ops::sum(a).item(), 21.0f);
  Tensor rs = ops::row_sum(a);
  EXPECT_EQ(rs.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(rs.at(0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1), 15.0f);
}

TEST(OpsForward, GatherRepeatConcatSlice) {
  Tensor a = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = ops::gather_rows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(g.at(0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(2), 1.0f);

  Tensor r = ops::repeat_rows(a, 2);
  EXPECT_EQ(r.shape(), (Shape{6, 2}));
  EXPECT_FLOAT_EQ(r.at(2), 1.0f);  // row 0 repeated
  EXPECT_FLOAT_EQ(r.at(4), 3.0f);  // row 1 starts

  Tensor b = Tensor::from_data({3, 1}, {7, 8, 9});
  Tensor c = ops::concat_cols(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(c.at(2), 7.0f);

  Tensor s = ops::slice_cols(c, 2, 3);
  EXPECT_EQ(s.shape(), (Shape{3, 1}));
  EXPECT_FLOAT_EQ(s.at(1), 8.0f);
}

TEST(OpsForward, WeightedGather) {
  Tensor a = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6});
  // Each output row mixes two source rows.
  Tensor y = ops::weighted_gather_rows(a, {0, 1, 1, 2}, {0.5f, 0.5f, 0.25f, 0.75f}, 2);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 2.0f);   // 0.5*1 + 0.5*3
  EXPECT_FLOAT_EQ(y.at(2), 4.5f);   // 0.25*3 + 0.75*5
}

TEST(OpsForward, SegmentReductions) {
  // 2 segments of k=2 rows, 2 channels.
  Tensor x = Tensor::from_data({4, 2}, {1, 8, 3, 2, -1, 0, 5, -4});
  Tensor mx = ops::segment_max(x, 2);
  EXPECT_FLOAT_EQ(mx.at(0), 3.0f);
  EXPECT_FLOAT_EQ(mx.at(1), 8.0f);
  EXPECT_FLOAT_EQ(mx.at(2), 5.0f);
  EXPECT_FLOAT_EQ(mx.at(3), 0.0f);
  Tensor sm = ops::segment_sum(x, 2);
  EXPECT_FLOAT_EQ(sm.at(0), 4.0f);
  EXPECT_FLOAT_EQ(sm.at(3), -4.0f);
}

TEST(OpsForward, SegmentSoftmaxNormalizes) {
  Rng rng(3);
  Tensor x = Tensor::from_data({6, 3}, random_values(18, rng, -2, 2));
  Tensor y = ops::segment_softmax(x, 3);
  // Each (segment, channel) column of 3 entries sums to 1.
  for (int seg = 0; seg < 2; ++seg) {
    for (int ch = 0; ch < 3; ++ch) {
      float s = 0.0f;
      for (int r = 0; r < 3; ++r) s += y.at((seg * 3 + r) * 3 + ch);
      EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
  }
}

TEST(OpsForward, LogSoftmaxRowsAndArgmax) {
  Tensor x = Tensor::from_data({2, 3}, {1, 2, 3, 5, 1, 1});
  Tensor lp = ops::log_softmax_rows(x);
  for (int i = 0; i < 2; ++i) {
    float s = 0.0f;
    for (int j = 0; j < 3; ++j) s += std::exp(lp.at(i * 3 + j));
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  const auto am = ops::argmax_rows(x);
  EXPECT_EQ(am[0], 2);
  EXPECT_EQ(am[1], 0);
}

TEST(OpsForward, ScatterAddCols) {
  Tensor base = Tensor::zeros({2, 4});
  Tensor delta = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor y = ops::scatter_add_cols(base, delta, 1);
  EXPECT_FLOAT_EQ(y.at(0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(1), 1.0f);
  EXPECT_FLOAT_EQ(y.at(2), 2.0f);
  EXPECT_FLOAT_EQ(y.at(3), 0.0f);
  EXPECT_FLOAT_EQ(y.at(5), 3.0f);
}

// ---------------------------------------------------------------------------
// Gradients: every op's finite-difference gradcheck is its op row in
// plan_test.cpp (OpRules.GradcheckEveryLeaf); dropout's mask stays here.
// ---------------------------------------------------------------------------

TEST(OpsGradcheck, DropoutEvalIsIdentity) {
  Rng rng(43);
  Tensor x = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = ops::dropout(x, 0.5f, rng, /*training=*/false);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(OpsGradcheck, DropoutTrainingMaskAndScale) {
  Rng rng(47);
  Tensor x = Tensor::full({1000}, 1.0f);
  x.set_requires_grad(true);
  Tensor y = ops::dropout(x, 0.25f, rng, /*training=*/true);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.at(i), 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros, 250, 60);
  ops::sum(y).backward();
  // Gradient is the same mask/scale pattern.
  for (int i = 0; i < 1000; ++i) {
    if (y.at(i) == 0.0f) {
      EXPECT_FLOAT_EQ(x.grad()[static_cast<size_t>(i)], 0.0f);
    } else {
      EXPECT_NEAR(x.grad()[static_cast<size_t>(i)], 1.0f / 0.75f, 1e-5f);
    }
  }
}

// Property sweep: sum/row_sum agree with hand computation across many
// shapes.
class ReductionShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReductionShapes, SumAndRowSumMatchHandComputation) {
  const auto [n, c] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 100 + c));
  std::vector<float> vals = random_values(n * c, rng);
  Tensor x = Tensor::from_data({n, c}, vals);
  double expect = 0.0;
  for (float v : vals) expect += v;
  EXPECT_NEAR(ops::sum(x).item(), expect, 1e-3);
  Tensor rs = ops::row_sum(x);
  double row0 = 0.0;
  for (int j = 0; j < c; ++j) row0 += vals[static_cast<size_t>(j)];
  EXPECT_NEAR(rs.at(0), row0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReductionShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 7},
                                           std::pair{5, 1}, std::pair{8, 16},
                                           std::pair{33, 3}));

}  // namespace
