// Fused-vs-unfused bit-exactness: every fused op must produce exactly the
// same forward values AND the same input gradients as the op composition
// it replaces (the engine's determinism guarantees depend on it). The
// exceptions are edge_linear and neighbor_linear, which factor a Linear
// through a gather and so match their compositions up to rounding. Each
// op's finite-difference gradcheck is its op row in plan_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gradcheck.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/ops.h"

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Shape;
using pcss::tensor::Tensor;
using pcss::testing::random_values;

namespace {

Tensor leaf(const Shape& shape, const std::vector<float>& values) {
  Tensor t = Tensor::from_data(shape, values);
  t.set_requires_grad(true);
  return t;
}

void expect_same_tensor(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "forward mismatch at flat index " << i;
  }
}

void expect_same_grad(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.grad().size(), b.grad().size());
  for (size_t i = 0; i < a.grad().size(); ++i) {
    ASSERT_EQ(a.grad()[i], b.grad()[i]) << "grad mismatch at flat index " << i;
  }
}

/// Backward both graphs from the same loss shape (sum of squares) and
/// compare a list of (fused, unfused) leaf pairs bitwise.
void backward_and_compare(const Tensor& fused, const Tensor& unfused,
                          std::vector<std::pair<Tensor, Tensor>> leaves) {
  expect_same_tensor(fused, unfused);
  ops::sum(ops::square(fused)).backward();
  ops::sum(ops::square(unfused)).backward();
  for (auto& [f, u] : leaves) expect_same_grad(f, u);
}

TEST(FusedOps, LinearMatchesMatmulAddRowvec) {
  Rng rng(101);
  const auto xv = random_values(12, rng), wv = random_values(8, rng),
             bv = random_values(2, rng);
  Tensor x1 = leaf({3, 4}, xv), w1 = leaf({4, 2}, wv), b1 = leaf({2}, bv);
  Tensor x2 = leaf({3, 4}, xv), w2 = leaf({4, 2}, wv), b2 = leaf({2}, bv);
  Tensor fused = ops::linear(x1, w1, b1);
  Tensor unfused = ops::add_rowvec(ops::matmul(x2, w2), b2);
  backward_and_compare(fused, unfused, {{x1, x2}, {w1, w2}, {b1, b2}});

  // Bias-less variant degrades to a plain matmul.
  Tensor x3 = leaf({3, 4}, xv), w3 = leaf({4, 2}, wv);
  Tensor x4 = leaf({3, 4}, xv), w4 = leaf({4, 2}, wv);
  backward_and_compare(ops::linear(x3, w3, Tensor()), ops::matmul(x4, w4),
                       {{x3, x4}, {w3, w4}});
}

TEST(FusedOps, BnReluEvalMatchesComposition) {
  Rng rng(103);
  const std::int64_t n = 5, c = 3;
  const auto xv = random_values(n * c, rng);
  const std::vector<float> gv{1.2f, 0.8f, -0.5f}, betav{0.1f, -0.2f, 0.3f};
  std::vector<float> rm{0.1f, -0.3f, 0.2f}, rv{1.5f, 0.7f, 1.1f};
  Tensor x1 = leaf({n, c}, xv), g1 = leaf({c}, gv), b1 = leaf({c}, betav);
  Tensor x2 = leaf({n, c}, xv), g2 = leaf({c}, gv), b2 = leaf({c}, betav);
  Tensor fused = ops::bn_relu_eval(x1, g1, b1, rm, rv);
  std::vector<float> rm2 = rm, rv2 = rv;
  Tensor unfused = ops::relu(ops::batch_norm(x2, g2, b2, rm2, rv2, /*training=*/false));
  backward_and_compare(fused, unfused, {{x1, x2}, {g1, g2}, {b1, b2}});
}

/// Largest |a - b| relative to max(1, |b|), over every element.
float max_rel_diff(const float* a, const float* b, size_t n) {
  float worst = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]) / std::max(1.0f, std::abs(b[i])));
  }
  return worst;
}

// edge_linear reorders the sums of the Linear it fuses (the product runs
// on point rows, not edge rows), so it matches the unfused edge assembly
// followed by linear up to rounding, not bit for bit.
TEST(FusedOps, EdgeLinearMatchesEdgeAssemblyThenLinear) {
  Rng rng(107);
  const std::int64_t n = 6, c = 4, k = 3, m = 5;
  const std::vector<std::int64_t> idx{1, 2, 3, 0, 4, 5, 5, 1, 0,
                                      2, 3, 4, 0, 5, 2, 3, 1, 4};
  const auto hv = random_values(n * c, rng), wv = random_values(2 * c * m, rng),
             bv = random_values(m, rng);
  const auto gv = random_values(n * k * m, rng);
  for (const bool with_bias : {true, false}) {
    Tensor h1 = leaf({n, c}, hv), w1 = leaf({2 * c, m}, wv), b1 = leaf({m}, bv);
    Tensor h2 = leaf({n, c}, hv), w2 = leaf({2 * c, m}, wv), b2 = leaf({m}, bv);
    Tensor fused = ops::edge_linear(h1, w1, with_bias ? b1 : Tensor(), idx, k);
    Tensor x_i = ops::repeat_rows(h2, k);
    Tensor edge = ops::concat_cols(x_i, ops::sub(ops::gather_rows(h2, idx), x_i));
    Tensor unfused = ops::linear(edge, w2, with_bias ? b2 : Tensor());
    ASSERT_EQ(fused.shape(), unfused.shape());
    EXPECT_LT(max_rel_diff(fused.data(), unfused.data(), static_cast<size_t>(fused.numel())),
              1e-5f);
    // A weighted sum, so every output element reaches the grads with its
    // own factor.
    const Tensor g = Tensor::from_data({n * k, m}, gv);
    ops::sum(ops::mul(fused, g)).backward();
    ops::sum(ops::mul(unfused, g)).backward();
    std::vector<std::pair<Tensor, Tensor>> pairs{{h1, h2}, {w1, w2}, {b1, b2}};
    if (!with_bias) pairs.pop_back();
    for (const auto& [f, u] : pairs) {
      ASSERT_EQ(f.grad().size(), u.grad().size());
      EXPECT_LT(max_rel_diff(f.grad().data(), u.grad().data(), f.grad().size()), 1e-5f)
          << "with_bias=" << with_bias;
    }
    if (!with_bias) {
      EXPECT_TRUE(b1.grad().empty());
    }
  }
}

bool same_bits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// edge_conv_eval fuses ResGCN's eval-mode block aggregation and promises
// bit identity with the chain, value and every gradient: h, W (both
// halves), b, gamma and beta. The inputs force tied maxima (duplicate
// neighbor indices, duplicate point rows), a channel whose messages are
// all non-positive (beta far below zero: every max is a tie at 0), and
// negative gammas. Params with and without gradients cover the attack's
// dx-only backward and the all-grads one.
TEST(FusedOps, EdgeConvEvalMatchesChain) {
  Rng rng(131);
  const std::int64_t n = 14, c = 6;
  for (const std::int64_t k : {1, 3, 12}) {
    for (const std::int64_t m : {1, 7, 8, 9, 12, 32}) {
      std::vector<std::int64_t> idx(static_cast<size_t>(n * k));
      for (auto& j : idx) j = static_cast<std::int64_t>(rng.uniform(0.0f, 1.0f) * n) % n;
      for (std::int64_t i = 0; i + 1 < n && k > 1; i += 2) idx[i * k + 1] = idx[i * k];
      auto hv = random_values(n * c, rng);
      std::copy_n(hv.begin() + 3 * c, c, hv.begin() + 4 * c);  // rows 3 and 4 tie
      const auto wv = random_values(2 * c * m, rng), bv = random_values(m, rng);
      auto gammav = random_values(m, rng, -1.5f, 1.5f);
      auto betav = random_values(m, rng);
      betav[0] = -1e4f;
      const auto gv = random_values(n * m, rng, -2.0f, 2.0f);
      const std::vector<float> rm = random_values(m, rng);
      const std::vector<float> rv = random_values(m, rng, 0.2f, 2.0f);
      for (const bool with_bias : {true, false}) {
        for (const bool param_grads : {true, false}) {
          auto make = [&](const Shape& shape, const std::vector<float>& v, bool grad) {
            Tensor t = Tensor::from_data(shape, v);
            t.set_requires_grad(grad);
            return t;
          };
          Tensor h1 = make({n, c}, hv, true), w1 = make({2 * c, m}, wv, param_grads),
                 b1 = make({m}, bv, param_grads), g1 = make({m}, gammav, param_grads),
                 be1 = make({m}, betav, param_grads);
          Tensor h2 = make({n, c}, hv, true), w2 = make({2 * c, m}, wv, param_grads),
                 b2 = make({m}, bv, param_grads), g2 = make({m}, gammav, param_grads),
                 be2 = make({m}, betav, param_grads);
          const Tensor fused = ops::edge_conv_eval(h1, w1, with_bias ? b1 : Tensor(), g1,
                                                   be1, rm, rv, idx, k);
          const Tensor chain = ops::segment_max(
              ops::bn_relu_eval(ops::edge_linear(h2, w2, with_bias ? b2 : Tensor(), idx, k),
                                g2, be2, rm, rv),
              k);
          ASSERT_EQ(fused.shape(), chain.shape());
          const std::string where = "k=" + std::to_string(k) + " m=" + std::to_string(m) +
                                    " bias=" + std::to_string(with_bias) +
                                    " param_grads=" + std::to_string(param_grads);
          EXPECT_TRUE(same_bits(fused.data(), chain.data(), static_cast<size_t>(n * m)))
              << "value, " << where;
          const Tensor g = Tensor::from_data({n, m}, gv);
          ops::sum(ops::mul(fused, g)).backward();
          ops::sum(ops::mul(chain, g)).backward();
          std::vector<std::pair<Tensor, Tensor>> pairs{{h1, h2}};
          if (param_grads) {
            pairs.insert(pairs.end(), {{w1, w2}, {g1, g2}, {be1, be2}});
            if (with_bias) pairs.emplace_back(b1, b2);
          }
          for (size_t p = 0; p < pairs.size(); ++p) {
            const auto& [f, u] = pairs[p];
            ASSERT_EQ(f.grad().size(), u.grad().size()) << "leaf " << p << ", " << where;
            EXPECT_TRUE(same_bits(f.grad().data(), u.grad().data(), f.grad().size()))
                << "gradient of leaf " << p << ", " << where;
          }
          if (!with_bias || !param_grads) {
            EXPECT_TRUE(b1.grad().empty()) << where;
          }
        }
      }
    }
  }
}

// neighbor_linear runs the gathered half of its Linear on point rows, so
// like edge_linear it matches its composition up to rounding.
TEST(FusedOps, NeighborLinearMatchesConcatGatherThenLinear) {
  Rng rng(108);
  const std::int64_t e = 8, cx = 3, nh = 5, ch = 4, m = 6;
  const std::vector<std::int64_t> idx{4, 0, 2, 2, 1, 3, 0, 4};
  const auto xv = random_values(e * cx, rng), hv = random_values(nh * ch, rng),
             wv = random_values((cx + ch) * m, rng), bv = random_values(m, rng);
  const auto gv = random_values(e * m, rng);
  for (const bool with_bias : {true, false}) {
    Tensor x1 = leaf({e, cx}, xv), h1 = leaf({nh, ch}, hv), w1 = leaf({cx + ch, m}, wv),
           b1 = leaf({m}, bv);
    Tensor x2 = leaf({e, cx}, xv), h2 = leaf({nh, ch}, hv), w2 = leaf({cx + ch, m}, wv),
           b2 = leaf({m}, bv);
    Tensor fused = ops::neighbor_linear(x1, h1, w1, with_bias ? b1 : Tensor(), idx);
    Tensor unfused = ops::linear(ops::concat_cols(x2, ops::gather_rows(h2, idx)), w2,
                                 with_bias ? b2 : Tensor());
    ASSERT_EQ(fused.shape(), unfused.shape());
    EXPECT_LT(max_rel_diff(fused.data(), unfused.data(), static_cast<size_t>(fused.numel())),
              1e-5f);
    const Tensor g = Tensor::from_data({e, m}, gv);
    ops::sum(ops::mul(fused, g)).backward();
    ops::sum(ops::mul(unfused, g)).backward();
    std::vector<std::pair<Tensor, Tensor>> pairs{{x1, x2}, {h1, h2}, {w1, w2}, {b1, b2}};
    if (!with_bias) pairs.pop_back();
    for (const auto& [f, u] : pairs) {
      ASSERT_EQ(f.grad().size(), u.grad().size());
      EXPECT_LT(max_rel_diff(f.grad().data(), u.grad().data(), f.grad().size()), 1e-5f)
          << "with_bias=" << with_bias;
    }
    if (!with_bias) {
      EXPECT_TRUE(b1.grad().empty());
    }
  }
}

TEST(FusedOps, AttentivePoolMatchesSoftmaxMulSum) {
  Rng rng(110);
  for (const std::int64_t k : {1, 3, 12}) {
    for (const std::int64_t c : {1, 5, 9}) {
      const std::int64_t n = 4;
      const auto gv = random_values(n * k * c, rng);
      const auto sv = random_values(n * k * c, rng, -4.0f, 4.0f);
      Tensor g1 = leaf({n * k, c}, gv), s1 = leaf({n * k, c}, sv);
      Tensor g2 = leaf({n * k, c}, gv), s2 = leaf({n * k, c}, sv);
      Tensor fused = ops::attentive_pool(g1, s1, k);
      Tensor unfused = ops::segment_sum(ops::mul(g2, ops::segment_softmax(s2, k)), k);
      backward_and_compare(fused, unfused, {{g1, g2}, {s1, s2}});
    }
  }}

TEST(FusedOps, GatherSubRowsMatchesGatherRepeatSub) {
  Rng rng(109);
  const std::int64_t n = 7, c = 3, k = 2;
  const std::vector<std::int64_t> idx_a{3, 1, 0, 6, 2, 2, 5, 4};
  const std::vector<std::int64_t> idx_b{2, 5, 0, 3};
  const auto xv = random_values(n * c, rng);
  Tensor x1 = leaf({n, c}, xv);
  Tensor x2 = leaf({n, c}, xv);
  Tensor fused = ops::gather_sub_rows(x1, idx_a, idx_b, k);
  Tensor unfused =
      ops::sub(ops::gather_rows(x2, idx_a), ops::repeat_rows(ops::gather_rows(x2, idx_b), k));
  backward_and_compare(fused, unfused, {{x1, x2}});}

TEST(FusedOps, ConcatCols4MatchesNestedConcat) {
  Rng rng(113);
  const std::int64_t n = 5;
  const auto av = random_values(n * 3, rng), bv = random_values(n * 3, rng),
             cv = random_values(n * 3, rng), dv = random_values(n * 1, rng);
  Tensor a1 = leaf({n, 3}, av), b1 = leaf({n, 3}, bv), c1 = leaf({n, 3}, cv),
         d1 = leaf({n, 1}, dv);
  Tensor a2 = leaf({n, 3}, av), b2 = leaf({n, 3}, bv), c2 = leaf({n, 3}, cv),
         d2 = leaf({n, 1}, dv);
  Tensor fused = ops::concat_cols4(a1, b1, c1, d1);
  Tensor unfused = ops::concat_cols(ops::concat_cols(a2, b2), ops::concat_cols(c2, d2));
  backward_and_compare(fused, unfused, {{a1, a2}, {b1, b2}, {c1, c2}, {d1, d2}});}

TEST(FusedOps, MulRowsMatchesBroadcastMatmul) {
  Rng rng(127);
  const std::int64_t n = 6, c = 4;
  const auto xv = random_values(n * c, rng), colv = random_values(n, rng);
  Tensor x1 = leaf({n, c}, xv), col1 = leaf({n, 1}, colv);
  Tensor x2 = leaf({n, c}, xv), col2 = leaf({n, 1}, colv);
  Tensor fused = ops::mul_rows(x1, col1);
  const Tensor ones_row = Tensor::full({1, c}, 1.0f);
  Tensor unfused = ops::mul(x2, ops::matmul(col2, ones_row));
  backward_and_compare(fused, unfused, {{x1, x2}, {col1, col2}});}

}  // namespace
