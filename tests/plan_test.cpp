// Compiled step-plan contracts (pcss/tensor/plan.h + engine integration):
// replayed steps must be BYTE-identical to eager execution for every model
// family and both projections, capture invalidation must fall back to
// eager re-capture without changing bytes, thread count must stay
// irrelevant with plans on, and the engine's gating must keep
// plan-incompatible configurations eager. Counter deltas (plan.captures /
// plan.replays / plan.fallbacks) prove plans actually engaged — a test
// that silently fell back to eager would otherwise pass vacuously. The
// op rows below also drive every per-op contract of the op table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gradcheck.h"
#include "pcss/core/attack_engine.h"
#include "pcss/data/indoor.h"
#include "pcss/models/pointnet2.h"
#include "pcss/models/randlanet.h"
#include "pcss/models/resgcn.h"
#include "pcss/obs/metrics.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::models::SegmentationModel;
using pcss::tensor::Op;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
namespace ops = pcss::tensor::ops;
namespace plan = pcss::tensor::plan;

namespace {

std::uint64_t counter_value(const char* name) {
  return pcss::obs::metrics::counter(name).value();
}

/// Process-global counter deltas around one scope.
struct PlanCounters {
  std::uint64_t captures0 = counter_value("plan.captures");
  std::uint64_t replays0 = counter_value("plan.replays");
  std::uint64_t fallbacks0 = counter_value("plan.fallbacks");
  std::uint64_t epoch0 = counter_value("plan.fallbacks.epoch");
  std::uint64_t uncapturable0 = counter_value("plan.fallbacks.uncapturable");
  std::uint64_t captures() const { return counter_value("plan.captures") - captures0; }
  std::uint64_t replays() const { return counter_value("plan.replays") - replays0; }
  std::uint64_t fallbacks() const { return counter_value("plan.fallbacks") - fallbacks0; }
  /// Fallbacks because the projection changed the graph (an L0 restore).
  std::uint64_t epoch() const { return counter_value("plan.fallbacks.epoch") - epoch0; }
  /// Fallbacks because the capture failed.
  std::uint64_t uncapturable() const {
    return counter_value("plan.fallbacks.uncapturable") - uncapturable0;
  }
};

PointCloud tiny_scene(int points = 96, std::uint64_t seed = 42) {
  IndoorSceneGenerator gen({.num_points = points});
  Rng rng(seed);
  return gen.generate(rng);
}

enum class Family { kPointNet2, kResGCN, kRandLA };

const char* family_name(Family f) {
  switch (f) {
    case Family::kPointNet2: return "PointNet2";
    case Family::kResGCN: return "ResGCN";
    case Family::kRandLA: return "RandLA";
  }
  return "?";
}

std::unique_ptr<SegmentationModel> make_model(Family f, Rng& rng) {
  switch (f) {
    case Family::kPointNet2: {
      pcss::models::PointNet2Config c;
      c.num_classes = 13;
      c.c1 = 12;
      c.c2 = 16;
      c.head = 16;
      return std::make_unique<pcss::models::PointNet2Seg>(c, rng);
    }
    case Family::kResGCN: {
      pcss::models::ResGCNConfig c;
      c.num_classes = 13;
      c.channels = 12;
      c.blocks = 2;
      return std::make_unique<pcss::models::ResGCNSeg>(c, rng);
    }
    case Family::kRandLA: {
      pcss::models::RandLANetConfig c;
      c.num_classes = 13;
      c.c1 = 8;
      c.c2 = 12;
      c.c3 = 16;
      return std::make_unique<pcss::models::RandLANetSeg>(c, rng);
    }
  }
  return nullptr;
}

/// Exact float equality everywhere a result can differ: the replay must
/// execute the same arithmetic on the same bytes in the same order.
void expect_byte_identical(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.perturbed.size(), b.perturbed.size());
  EXPECT_EQ(a.steps_used, b.steps_used);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.l2_color, b.l2_color);
  EXPECT_EQ(a.l2_coord, b.l2_coord);
  EXPECT_EQ(a.l0_color, b.l0_color);
  EXPECT_EQ(a.l0_coord, b.l0_coord);
  for (std::int64_t i = 0; i < a.perturbed.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(a.perturbed.colors[static_cast<size_t>(i)][axis],
                b.perturbed.colors[static_cast<size_t>(i)][axis])
          << "color mismatch at point " << i;
      EXPECT_EQ(a.perturbed.positions[static_cast<size_t>(i)][axis],
                b.perturbed.positions[static_cast<size_t>(i)][axis])
          << "position mismatch at point " << i;
    }
  }
}

ExecPolicy plan_on() { return {1, true, {}}; }
ExecPolicy plan_off() { return {1, false, {}}; }

// --- Plan layer unit contracts -------------------------------------------

TEST(PlanBuilder, PinnedBytesAreTheNodesBytes) {
  // x [5, 3] -> gather_rows (6 rows, saves 6 indices) -> sum. Every float
  // buffer here is below 64 floats, the pool's smallest size class, so it
  // pins 256 bytes: three values (x, the gather, the sum), three grads, and
  // the gather's saved indices.
  Tensor x = Tensor::from_data({5, 3}, std::vector<float>(15, 0.25f));
  x.set_requires_grad(true);
  plan::PlanBuilder builder;
  Tensor y = ops::sum(ops::gather_rows(x, {4, 0, 4, 2, 1, 1}));
  y.backward();
  plan::CompiledPlan compiled;
  ASSERT_TRUE(builder.finish(compiled));
  const plan::PlanBytes bytes = compiled.pinned_bytes();
  EXPECT_EQ(bytes.values, 3u * 64u * sizeof(float));
  EXPECT_EQ(bytes.grads, 3u * 64u * sizeof(float));
  EXPECT_EQ(bytes.saved, 6u * sizeof(std::int64_t));
  EXPECT_EQ(bytes.total(), bytes.values + bytes.grads + bytes.saved);
  compiled.reset();
  EXPECT_EQ(compiled.pinned_bytes().total(), 0u);
}

TEST(PlanBuilder, CapturedGraphReplaysByteIdentical) {
  // A leaf -> square -> sum graph: capture one forward+backward, mutate
  // the leaf values in place, replay, and compare against a from-scratch
  // eager pass over the same values.
  Tensor x = Tensor::from_data({4, 3}, std::vector<float>(12, 0.5f));
  x.set_requires_grad(true);

  plan::PlanBuilder builder;
  Tensor y = ops::sum(ops::square(ops::scale(x, 2.0f)));
  y.backward();
  plan::CompiledPlan compiled;
  ASSERT_TRUE(builder.finish(compiled));
  ASSERT_TRUE(compiled.valid());
  const plan::PlanStats stats = compiled.stats();
  EXPECT_EQ(stats.forward_ops, 3u);
  EXPECT_GT(stats.backward_ops, 0u);
  EXPECT_GT(stats.nodes, 0u);

  for (int trial = 0; trial < 3; ++trial) {
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = 0.1f * static_cast<float>(trial + 1) + 0.01f * static_cast<float>(i);
    }
    compiled.replay_forward();
    compiled.replay_backward();

    Tensor x2 = Tensor::from_data({4, 3},
                                  std::vector<float>(x.data(), x.data() + x.numel()));
    x2.set_requires_grad(true);
    Tensor y2 = ops::sum(ops::square(ops::scale(x2, 2.0f)));
    y2.backward();
    EXPECT_EQ(y.item(), y2.item()) << "trial " << trial;
    ASSERT_EQ(x.grad().size(), x2.grad().size());
    for (size_t i = 0; i < x.grad().size(); ++i) {
      EXPECT_EQ(x.grad()[i], x2.grad()[i]) << "grad " << i << " trial " << trial;
    }
  }
}

TEST(PlanBuilder, TrainingModeGraphIsNotCapturable) {
  // Dropout in training mode consumes fresh RNG state per step, so its
  // op has no forward rule and finish() must refuse.
  Rng rng(11);
  auto model = make_model(Family::kPointNet2, rng);
  const PointCloud cloud = tiny_scene();

  plan::PlanBuilder builder;
  Tensor logits = model->forward(pcss::models::ModelInput::plain(cloud),
                                 /*training=*/true);
  Tensor loss = ops::sum(logits);
  loss.backward();
  plan::CompiledPlan compiled;
  EXPECT_FALSE(builder.finish(compiled));
  EXPECT_FALSE(compiled.valid());
}

// --- One row per op ---------------------------------------------------------
//
// Every Op has at least one row (OpTable.EveryOpHasARow), and each row
// drives every per-op contract:
// - ReplayContract.ReplayMatchesFreshEagerBuild: capture op -> weighted sum
//   -> backward, write new values into the leaves, replay, and compare the
//   value, every leaf gradient and the node's saved state (ctx fbuf and
//   ibuf) byte-for-byte with a fresh eager build on the new values. An op
//   with no forward rule must refuse the capture instead.
// - ReplayContract.PredictModeNodeIsGraphFree: built from no-grad inputs,
//   the node keeps no parents, ctx or op.
// - OpRules.GradcheckEveryLeaf: finite differences of the weighted sum in
//   every leaf.
// - OpRules.RejectsBadInputs: every reject case throws. The forward rules
//   read without bounds checks, so indices, labels and widths are
//   validated before the output is computed (under ASan: without an
//   out-of-bounds read first).

using V = std::vector<Tensor>;
using Call = std::function<Tensor(const V&)>;

struct OpRow {
  const char* name;
  Op op;
  std::vector<pcss::tensor::Shape> leaves;
  Call build;
  std::vector<Call> rejects = {};  ///< calls on the leaves that must throw
  float lo = -1.0f;                ///< leaf values are uniform in [lo, 1]
  /// The op saves value-dependent state (an argmax, hinge_margin_loss's
  /// best_j, attentive_pool's weights): the mutation must change it.
  bool value_state = false;
};

void PrintTo(const OpRow& row, std::ostream* os) { *os << row.name; }

/// `more`, plus each of `calls` with every hostile index into n rows:
/// -1, n and 2^40.
std::vector<Call> bad_indices(std::int64_t n,
                              std::vector<std::function<Tensor(const V&, std::int64_t)>> calls,
                              std::vector<Call> more = {}) {
  for (const auto& call : calls) {
    for (const std::int64_t bad : {std::int64_t{-1}, n, std::int64_t{1} << 40}) {
      more.push_back([call, bad](const V& l) { return call(l, bad); });
    }
  }
  return more;
}

std::vector<Tensor> make_leaves(const OpRow& row, std::uint64_t seed, bool grad) {
  Rng rng(seed);
  std::vector<Tensor> leaves;
  for (const auto& shape : row.leaves) {
    leaves.push_back(Tensor::uniform(shape, rng, row.lo, 1.0f));
    leaves.back().set_requires_grad(grad);
  }
  return leaves;
}

/// op -> sum(op * w) with fixed distinct weights, so every output element
/// reaches the gradients with its own factor.
Tensor weighted_sum(const Tensor& out) {
  std::vector<float> w(static_cast<size_t>(out.numel()));
  for (size_t i = 0; i < w.size(); ++i) w[i] = 0.5f + 0.125f * static_cast<float>(i % 7);
  return ops::sum(ops::mul(out, Tensor::from_data(out.shape(), std::move(w))));
}

bool same_bytes(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/// The node's saved state as bytes: ctx.fbuf, then ctx.ibuf.
std::vector<unsigned char> saved_state(const Tensor& t) {
  std::vector<unsigned char> bytes;
  if (const pcss::tensor::BackwardCtx* ctx = t.impl()->ctx.get()) {
    const auto* f = reinterpret_cast<const unsigned char*>(ctx->fbuf.data());
    const auto* i = reinterpret_cast<const unsigned char*>(ctx->ibuf.data());
    bytes.assign(f, f + ctx->fbuf.size() * sizeof(float));
    bytes.insert(bytes.end(), i, i + ctx->ibuf.size() * sizeof(std::int64_t));
  }
  return bytes;
}

const std::vector<OpRow>& op_rows() {
  using I = std::int64_t;
  static const std::vector<float> kMean{0.1f, -0.2f, 0.05f}, kVar{0.9f, 1.3f, 0.4f};
  static const std::vector<float> kMean2{-0.1f, 0.15f}, kVar2{0.7f, 1.2f};
  static const std::vector<float> kFill{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  static const std::vector<OpRow> rows = {
      {"add", Op::kAdd, {{4, 3}, {4, 3}}, [](const V& l) { return ops::add(l[0], l[1]); }},
      {"sub", Op::kSub, {{4, 3}, {4, 3}}, [](const V& l) { return ops::sub(l[0], l[1]); }},
      {"mul", Op::kMul, {{4, 3}, {4, 3}}, [](const V& l) { return ops::mul(l[0], l[1]); }},
      {"scale", Op::kScale, {{4, 3}}, [](const V& l) { return ops::scale(l[0], -1.5f); }},
      {"add_scalar", Op::kAddScalar, {{4, 3}},
       [](const V& l) { return ops::add_scalar(l[0], 0.25f); }},
      {"add_rowvec", Op::kAddRowvec, {{4, 3}, {3}},
       [](const V& l) { return ops::add_rowvec(l[0], l[1]); }},
      {"mul_rows", Op::kMulRows, {{4, 3}, {4, 1}},
       [](const V& l) { return ops::mul_rows(l[0], l[1]); }},
      {"relu", Op::kRelu, {{4, 3}}, [](const V& l) { return ops::relu(l[0]); }},
      {"tanh_op", Op::kTanh, {{4, 3}}, [](const V& l) { return ops::tanh_op(l[0]); }},
      {"square", Op::kSquare, {{4, 3}}, [](const V& l) { return ops::square(l[0]); }},
      {"sqrt_op", Op::kSqrt, {{4, 3}}, [](const V& l) { return ops::sqrt_op(l[0]); }, {}, 0.1f},
      {"sum", Op::kSum, {{4, 3}}, [](const V& l) { return ops::sum(l[0]); }},
      {"row_sum", Op::kRowSum, {{4, 3}}, [](const V& l) { return ops::row_sum(l[0]); }},
      {"matmul", Op::kMatmul, {{4, 3}, {3, 5}},
       [](const V& l) { return ops::matmul(l[0], l[1]); }},
      {"linear", Op::kLinear, {{4, 3}, {3, 5}, {5}},
       [](const V& l) { return ops::linear(l[0], l[1], l[2]); }},
      {"linear_no_bias", Op::kLinear, {{4, 3}, {3, 5}},
       [](const V& l) { return ops::linear(l[0], l[1], Tensor()); }},
      {"gather_rows", Op::kGatherRows, {{5, 3}},
       [](const V& l) { return ops::gather_rows(l[0], {4, 0, 4, 2, 1, 1}); },
       bad_indices(5, {[](const V& l, I b) { return ops::gather_rows(l[0], {0, b}); }})},
      {"scatter_rows", Op::kScatterRows, {{3, 2}},
       [](const V& l) { return ops::scatter_rows(l[0], {4, 0, 2}, 5, kFill); },
       bad_indices(
           5, {[](const V& l, I b) { return ops::scatter_rows(l[0], {4, 0, b}, 5, kFill); }},
           {[](const V& l) { return ops::scatter_rows(l[0], {4, 0, 4}, 5, kFill); }})},
      {"weighted_gather_rows", Op::kWeightedGatherRows, {{5, 3}},
       [](const V& l) {
         return ops::weighted_gather_rows(l[0], {0, 1, 2, 3, 4, 0},
                                          {0.5f, 0.25f, 0.25f, 1.0f, -0.5f, 2.0f}, 3);
       },
       bad_indices(5, {[](const V& l, I b) {
         return ops::weighted_gather_rows(l[0], {0, b}, {1.0f, 1.0f}, 2);
       }})},
      {"gather_sub_rows", Op::kGatherSubRows, {{5, 3}},
       [](const V& l) { return ops::gather_sub_rows(l[0], {1, 2, 0, 4, 3, 3}, {0, 2, 4}, 2); },
       bad_indices(5,
                   {[](const V& l, I b) { return ops::gather_sub_rows(l[0], {0, b}, {1}, 2); },
                    [](const V& l, I b) { return ops::gather_sub_rows(l[0], {0, 1}, {b}, 2); }})},
      {"repeat_rows", Op::kRepeatRows, {{3, 2}},
       [](const V& l) { return ops::repeat_rows(l[0], 3); }},
      {"concat_cols", Op::kConcatCols, {{4, 2}, {4, 3}},
       [](const V& l) { return ops::concat_cols(l[0], l[1]); }},
      {"concat_cols4", Op::kConcatCols4, {{3, 1}, {3, 2}, {3, 3}, {3, 1}},
       [](const V& l) { return ops::concat_cols4(l[0], l[1], l[2], l[3]); }},
      {"slice_cols", Op::kSliceCols, {{4, 5}},
       [](const V& l) { return ops::slice_cols(l[0], 1, 4); }},
      {"scatter_add_cols", Op::kScatterAddCols, {{4, 5}, {4, 2}},
       [](const V& l) { return ops::scatter_add_cols(l[0], l[1], 2); }},
      {"segment_max", Op::kSegmentMax, {{8, 3}},
       [](const V& l) { return ops::segment_max(l[0], 2); },
       {[](const V& l) { return ops::segment_max(l[0], 3); },
        [](const V& l) { return ops::segment_max(l[0], 0); }},
       -1.0f, true},
      {"segment_sum", Op::kSegmentSum, {{6, 3}},
       [](const V& l) { return ops::segment_sum(l[0], 3); },
       {[](const V& l) { return ops::segment_sum(l[0], 4); },
        [](const V& l) { return ops::segment_sum(l[0], 0); }}},
      {"segment_softmax", Op::kSegmentSoftmax, {{6, 3}},
       [](const V& l) { return ops::segment_softmax(l[0], 3); },
       {[](const V& l) { return ops::segment_softmax(l[0], 4); },
        [](const V& l) { return ops::segment_softmax(l[0], 0); }}},
      {"attentive_pool", Op::kAttentivePool, {{6, 3}, {6, 3}},
       [](const V& l) { return ops::attentive_pool(l[0], l[1], 3); },
       {[](const V& l) { return ops::attentive_pool(l[0], l[1], 4); },
        [](const V& l) { return ops::attentive_pool(l[0], l[1], 0); },
        [](const V& l) { return ops::attentive_pool(l[0], Tensor::zeros({6, 2}), 3); }},
       -1.0f, true},
      {"batch_norm", Op::kBatchNorm, {{5, 3}, {3}, {3}},
       [](const V& l) {
         std::vector<float> mean(3, 0.0f), var(3, 1.0f);
         return ops::batch_norm(l[0], l[1], l[2], mean, var, /*training=*/true);
       }},
      {"batch_norm_eval", Op::kBatchNorm, {{4, 3}, {3}, {3}},
       [](const V& l) {
         std::vector<float> mean = kMean, var = kVar;
         return ops::batch_norm(l[0], l[1], l[2], mean, var, /*training=*/false);
       }},
      {"bn_relu_eval", Op::kBnReluEval, {{4, 3}, {3}, {3}},
       [](const V& l) { return ops::bn_relu_eval(l[0], l[1], l[2], kMean, kVar); }},
      {"dropout", Op::kDropout, {{4, 3}},
       [](const V& l) {
         Rng rng(7);  // the same mask on every build
         return ops::dropout(l[0], 0.25f, rng, /*training=*/true);
       }},
      {"edge_linear", Op::kEdgeLinear, {{4, 3}, {6, 2}, {2}},
       [](const V& l) { return ops::edge_linear(l[0], l[1], l[2], {1, 2, 0, 3, 3, 1, 2, 0}, 2); },
       bad_indices(4, {[](const V& l, I b) {
         return ops::edge_linear(l[0], l[1], l[2], {0, 1, 2, 3, 0, 1, 2, b}, 2);
       }})},
      {"edge_linear_no_bias", Op::kEdgeLinear, {{4, 3}, {6, 2}},
       [](const V& l) {
         return ops::edge_linear(l[0], l[1], Tensor(), {1, 2, 0, 3, 3, 1, 2, 0}, 2);
       }},
      {"edge_conv_eval", Op::kEdgeConvEval, {{4, 3}, {6, 2}, {2}, {2}, {2}},
       [](const V& l) {
         return ops::edge_conv_eval(l[0], l[1], l[4], l[2], l[3], kMean2, kVar2,
                                    {1, 2, 0, 3, 3, 1, 2, 0}, 2);
       },
       bad_indices(4,
                   {[](const V& l, I b) {
                     return ops::edge_conv_eval(l[0], l[1], l[4], l[2], l[3], kMean2, kVar2,
                                                {1, 2, 0, 3, 3, 1, 2, b}, 2);
                   }},
                   // k is the group width: positive, with N*k neighbor indices.
                   {[](const V& l) {
                      return ops::edge_conv_eval(l[0], l[1], l[4], l[2], l[3], kMean2, kVar2,
                                                 {}, 0);
                    },
                    [](const V& l) {
                      return ops::edge_conv_eval(l[0], l[1], l[4], l[2], l[3], kMean2, kVar2,
                                                 {1, 2, 0, 3, 3, 1, 2}, 2);
                    }}),
       -1.0f, true},
      {"edge_conv_eval_no_bias", Op::kEdgeConvEval, {{4, 3}, {6, 2}, {2}, {2}},
       [](const V& l) {
         return ops::edge_conv_eval(l[0], l[1], Tensor(), l[2], l[3], kMean2, kVar2,
                                    {1, 2, 0, 3, 3, 1, 2, 0}, 2);
       },
       {}, -1.0f, true},
      {"neighbor_linear", Op::kNeighborLinear, {{6, 2}, {4, 3}, {5, 2}, {2}},
       [](const V& l) { return ops::neighbor_linear(l[0], l[1], l[2], l[3], {3, 0, 2, 2, 1, 3}); },
       bad_indices(4, {[](const V& l, I b) {
         return ops::neighbor_linear(l[0], l[1], l[2], l[3], {3, 0, 2, 2, 1, b});
       }})},
      {"neighbor_linear_no_bias", Op::kNeighborLinear, {{6, 2}, {4, 3}, {5, 2}},
       [](const V& l) {
         return ops::neighbor_linear(l[0], l[1], l[2], Tensor(), {3, 0, 2, 2, 1, 3});
       }},
      {"log_softmax_rows", Op::kLogSoftmaxRows, {{4, 5}},
       [](const V& l) { return ops::log_softmax_rows(l[0]); }},
      // A masked-out row's label is never read, so its 99 is not checked.
      {"nll_loss_masked", Op::kNllLossMasked, {{5, 4}},
       [](const V& l) { return ops::nll_loss_masked(l[0], {0, 99, 1, 2, 3}, {1, 0, 1, 1, 1}); },
       {[](const V& l) { return ops::nll_loss_masked(l[0], {0, 3, 1, 4, 3}, {}); },
        [](const V& l) { return ops::nll_loss_masked(l[0], {0, 3, -1, 2, 3}, {}); },
        [](const V& l) { return ops::nll_loss_masked(l[0], {0, 3, 1, 2, 3}, {0, 0, 0, 0, 0}); }}},
      {"nll_loss_masked_no_mask", Op::kNllLossMasked, {{5, 4}},
       [](const V& l) { return ops::nll_loss_masked(l[0], {0, 3, 1, 2, 3}, {}); }},
      {"hinge_margin_loss", Op::kHingeMarginLoss, {{6, 4}},
       [](const V& l) {
         return ops::hinge_margin_loss(l[0], {0, 1, 99, 3, 0, 1}, {1, 1, 0, 1, 1, 1}, false);
       },
       {[](const V& l) { return ops::hinge_margin_loss(l[0], {0}, {}, false); },
        [](const V& l) { return ops::hinge_margin_loss(l[0], {0, 1, 9, 3, 0, 1}, {}, false); },
        [](const V&) { return ops::hinge_margin_loss(Tensor::zeros({2, 1}), {0, 0}, {}, false); }},
       -1.0f, true},
      {"hinge_margin_loss_targeted", Op::kHingeMarginLoss, {{6, 4}},
       [](const V& l) { return ops::hinge_margin_loss(l[0], {0, 1, 2, 3, 0, 1}, {}, true); },
       {[](const V& l) { return ops::hinge_margin_loss(l[0], {0, 1, -7, 3, 0, 1}, {}, true); }},
       -1.0f, true},
      {"smoothness_penalty", Op::kSmoothnessPenalty, {{5, 3}},
       [](const V& l) { return ops::smoothness_penalty(l[0], {1, 2, 0, 3, 4, 1, 2, 0, 3, 1}, 2); },
       bad_indices(5, {[](const V& l, I b) {
         return ops::smoothness_penalty(l[0], {1, 2, 0, 3, 4, 1, 2, 0, 3, b}, 2);
       }})},
  };
  return rows;
}

std::string row_name(const ::testing::TestParamInfo<OpRow>& info) { return info.param.name; }

TEST(OpTable, EveryOpHasARow) {
  for (int i = 1; i < static_cast<int>(Op::kCount); ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_TRUE(std::any_of(op_rows().begin(), op_rows().end(),
                            [op](const OpRow& row) { return row.op == op; }))
        << "no op row for " << pcss::tensor::op_def(op).name;
  }
}

class ReplayContract : public ::testing::TestWithParam<OpRow> {};

TEST_P(ReplayContract, ReplayMatchesFreshEagerBuild) {
  const OpRow& row = GetParam();
  std::vector<Tensor> leaves = make_leaves(row, 1, true);

  plan::PlanBuilder builder;
  const Tensor out = row.build(leaves);
  ASSERT_EQ(out.impl()->op, row.op) << "the row must build its op";
  Tensor loss = weighted_sum(out);
  loss.backward();
  plan::CompiledPlan compiled;
  if (pcss::tensor::op_def(row.op).fwd == nullptr) {
    EXPECT_FALSE(builder.finish(compiled)) << "an op with no forward rule is never captured";
    return;
  }
  ASSERT_TRUE(builder.finish(compiled)) << "every op with a forward rule must be capturable";
  const std::vector<unsigned char> captured_state = saved_state(out);

  for (std::uint64_t seed : {2u, 3u}) {
    const std::vector<Tensor> fresh = make_leaves(row, seed, true);
    for (size_t i = 0; i < leaves.size(); ++i) {
      std::copy_n(fresh[i].data(), fresh[i].numel(), leaves[i].data());
    }
    compiled.replay_forward();
    compiled.replay_backward();
    if (row.value_state && seed == 2u) {
      EXPECT_NE(saved_state(out), captured_state)
          << "the mutation must change the value-dependent saved state";
    }

    // Built under a PlanBuilder, so backward() keeps the node's saved state.
    plan::PlanBuilder keep_graph;
    const Tensor eager_out = row.build(fresh);
    Tensor eager_loss = weighted_sum(eager_out);
    eager_loss.backward();
    keep_graph.abort();
    ASSERT_EQ(out.shape(), eager_out.shape());
    EXPECT_TRUE(same_bytes(out.data(), eager_out.data(), out.numel())) << "seed " << seed;
    EXPECT_TRUE(same_bytes(loss.data(), eager_loss.data(), 1)) << "seed " << seed;
    EXPECT_EQ(saved_state(out), saved_state(eager_out)) << "saved state, seed " << seed;
    for (size_t i = 0; i < leaves.size(); ++i) {
      ASSERT_EQ(leaves[i].grad().size(), fresh[i].grad().size()) << "leaf " << i;
      EXPECT_TRUE(same_bytes(leaves[i].grad().data(), fresh[i].grad().data(),
                             static_cast<std::int64_t>(fresh[i].grad().size())))
          << "leaf " << i << " gradient, seed " << seed;
    }
  }
}

TEST_P(ReplayContract, PredictModeNodeIsGraphFree) {
  const OpRow& row = GetParam();
  const Tensor out = row.build(make_leaves(row, 4, false));
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.impl()->parents.empty());
  EXPECT_EQ(out.impl()->ctx, nullptr);
  EXPECT_EQ(out.impl()->op, Op::kNone);
  // Same value as the grad-carrying build of the same inputs.
  const Tensor with_grad = row.build(make_leaves(row, 4, true));
  EXPECT_TRUE(same_bytes(out.data(), with_grad.data(), out.numel()));
}

INSTANTIATE_TEST_SUITE_P(Ops, ReplayContract, ::testing::ValuesIn(op_rows()), row_name);

class OpRules : public ::testing::TestWithParam<OpRow> {};

TEST_P(OpRules, GradcheckEveryLeaf) {
  const OpRow& row = GetParam();
  const std::vector<Tensor> leaves = make_leaves(row, 5, false);
  for (size_t i = 0; i < leaves.size(); ++i) {
    SCOPED_TRACE("leaf " + std::to_string(i));
    const Tensor& leaf = leaves[i];
    pcss::testing::expect_gradcheck(
        [&](const Tensor& x) {
          std::vector<Tensor> l = leaves;
          l[i] = x;
          return weighted_sum(row.build(l));
        },
        leaf.shape(), std::vector<float>(leaf.data(), leaf.data() + leaf.numel()));
  }
}

TEST_P(OpRules, RejectsBadInputs) {
  const OpRow& row = GetParam();
  const std::vector<Tensor> leaves = make_leaves(row, 6, false);
  for (size_t i = 0; i < row.rejects.size(); ++i) {
    EXPECT_THROW(row.rejects[i](leaves), std::runtime_error) << "reject case " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, OpRules, ::testing::ValuesIn(op_rows()), row_name);

// --- Engine byte-identity per model family --------------------------------

class PlanModels : public ::testing::TestWithParam<Family> {};

TEST_P(PlanModels, BoundedReplayMatchesEager) {
  Rng rng(21);
  auto model = make_model(GetParam(), rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 1u) << family_name(GetParam());
  EXPECT_GE(counters.replays(), 3u) << family_name(GetParam());
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

TEST_P(PlanModels, UnboundedReplayMatchesEager) {
  Rng rng(22);
  auto model = make_model(GetParam(), rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 5;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 1u) << family_name(GetParam());
  EXPECT_GE(counters.replays(), 3u) << family_name(GetParam());
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanModels,
                         ::testing::Values(Family::kPointNet2, Family::kResGCN,
                                           Family::kRandLA),
                         [](const auto& param_info) { return family_name(param_info.param); });

/// Pool acquires per replayed step, measured as DESIGN.md §10 states it:
/// the pool::stats() delta between a 20-step and a 40-step bounded color
/// attack (one capture each), divided by the 20 extra replays.
std::uint64_t acquires_per_replay(Family family) {
  Rng rng(30);
  auto model = make_model(family, rng);
  const PointCloud cloud = tiny_scene();
  auto acquires = [&](int steps) {
    AttackConfig config;
    config.field = AttackField::kColor;
    config.norm = AttackNorm::kBounded;
    config.steps = steps;
    AttackEngine engine(*model, config);
    const std::uint64_t before = pcss::tensor::pool::stats().acquires;
    PlanCounters counters;
    (void)engine.run(cloud, plan_on());
    EXPECT_EQ(counters.captures(), 1u);
    return pcss::tensor::pool::stats().acquires - before;
  };
  const std::uint64_t short_run = acquires(20);
  const std::uint64_t long_run = acquires(40);
  EXPECT_EQ((long_run - short_run) % 20, 0u) << "replays must acquire the same each step";
  return (long_run - short_run) / 20;
}

TEST(PlanEngine, ReplayPoolAcquiresPerStep) {
  // The DESIGN.md §10 figures: none. Every op's scratch is sized when the
  // op is built (the Linear and matmul transposes of gemm_a_bt, the fused
  // ops' P/Q and weights) and pinned by the plan; gather_sub_rows' backward,
  // the one kernel still taking pooled scratch, does not run in a color
  // attack, which does not differentiate the positions.
  EXPECT_EQ(acquires_per_replay(Family::kRandLA), 0u);
  EXPECT_EQ(acquires_per_replay(Family::kResGCN), 0u);
  EXPECT_EQ(acquires_per_replay(Family::kPointNet2), 0u);
}

TEST(PlanEngine, CapturesRecordTheirPinnedMegabytes) {
  // Telemetry: each capture observes its plan's pinned bytes in
  // tensor.plan_arena_mb.<model> (never in a document: D006).
  auto arena = [] {
    for (const auto& [name, h] : pcss::obs::metrics::snapshot().histograms) {
      if (name == "tensor.plan_arena_mb.resgcn") return h;
    }
    return pcss::obs::metrics::Histogram::Snapshot{};
  };
  Rng rng(31);
  auto model = make_model(Family::kResGCN, rng);
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 4;
  AttackEngine engine(*model, config);
  const auto before = arena();
  PlanCounters counters;
  (void)engine.run(tiny_scene(), plan_on());
  const auto after = arena();
  EXPECT_EQ(counters.captures(), 1u);
  EXPECT_EQ(after.count - before.count, 1u);
  EXPECT_GT(after.sum - before.sum, 0.0);
}

// --- Invalidation, gating, threading --------------------------------------

TEST(PlanEngine, InvalidationFallsBackAndRecaptures) {
  // l0_on_color restorations bump the projection's plan epoch, so the
  // engine must drop the plan, replay the step eagerly (bit-identically),
  // and capture a fresh plan — visible as fallbacks > 0 with > 1 capture.
  Rng rng(23);
  auto model = make_model(Family::kResGCN, rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 8;
  config.l0_on_color = true;
  config.min_impact_fraction = 0.25f;  // restore aggressively: invalidate often
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_GE(counters.fallbacks(), 1u);
  EXPECT_GE(counters.captures(), 2u);
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

TEST(PlanEngine, CoordinateFieldStaysEager) {
  // Coordinate deltas rebuild host-side neighbor graphs every step; the
  // gate must keep such runs eager rather than replaying a stale graph.
  Rng rng(24);
  auto model = make_model(Family::kResGCN, rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kCoordinate;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  (void)engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 0u);
  EXPECT_EQ(counters.replays(), 0u);
}

TEST(PlanEngine, ThreadCountIrrelevantWithPlans) {
  Rng rng(25);
  auto model = make_model(Family::kResGCN, rng);
  std::vector<PointCloud> clouds;
  Rng scenes(26);
  IndoorSceneGenerator gen({.num_points = 96});
  for (int i = 0; i < 3; ++i) clouds.push_back(gen.generate(scenes));
  AttackConfig config;
  config.field = AttackField::kColor;
  config.steps = 4;
  AttackEngine engine(*model, config);

  const auto one = engine.run_batch(clouds, {1, true, {}});
  const auto two = engine.run_batch(clouds, {2, true, {}});
  const auto eager = engine.run_batch(clouds, {2, false, {}});
  ASSERT_EQ(one.size(), clouds.size());
  for (size_t i = 0; i < clouds.size(); ++i) {
    expect_byte_identical(one[i], two[i]);
    expect_byte_identical(one[i], eager[i]);
  }
}

TEST(PlanEngine, SharedDeltaReplayMatchesEager) {
  Rng rng(27);
  auto model = make_model(Family::kResGCN, rng);
  std::vector<PointCloud> clouds;
  Rng scenes(28);
  IndoorSceneGenerator gen({.num_points = 96});
  for (int i = 0; i < 2; ++i) clouds.push_back(gen.generate(scenes));
  AttackConfig config;
  config.field = AttackField::kColor;
  config.steps = 4;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const SharedDeltaResult planned = engine.run_shared(clouds, {2, true, {}});
  EXPECT_EQ(counters.captures(), clouds.size());
  EXPECT_GE(counters.replays(), clouds.size());
  const SharedDeltaResult eager = engine.run_shared(clouds, {1, false, {}});
  EXPECT_EQ(planned.steps_used, eager.steps_used);
  ASSERT_EQ(planned.color_delta.size(), eager.color_delta.size());
  for (size_t i = 0; i < planned.color_delta.size(); ++i) {
    EXPECT_EQ(planned.color_delta[i], eager.color_delta[i]) << "delta " << i;
  }
  EXPECT_EQ(planned.accuracy_before, eager.accuracy_before);
  EXPECT_EQ(planned.accuracy_after, eager.accuracy_after);
}

/// A model whose eval forward ends in a training-mode dropout: the op has
/// no forward rule, so every capture of its graph fails.
class UncapturableModel : public SegmentationModel {
 public:
  explicit UncapturableModel(Rng& rng) : inner_(make_model(Family::kResGCN, rng)) {}
  std::string name() const override { return "Uncapturable"; }
  int num_classes() const override { return inner_->num_classes(); }
  Tensor forward(const pcss::models::ModelInput& input, bool training) override {
    return ops::dropout(inner_->forward(input, training), 0.1f, dropout_rng_,
                        /*training=*/true);
  }
  std::vector<pcss::tensor::nn::NamedParam> named_params() override {
    return inner_->named_params();
  }
  std::vector<pcss::tensor::nn::NamedBuffer> named_buffers() override {
    return inner_->named_buffers();
  }

 private:
  std::unique_ptr<SegmentationModel> inner_;
  Rng dropout_rng_{5};
};

TEST(PlanEngine, FallbacksAreCountedByReason) {
  Rng rng(29);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 8;
  {
    // L0 restores bump the projection's plan epoch.
    auto model = make_model(Family::kResGCN, rng);
    AttackConfig l0 = config;
    l0.l0_on_color = true;
    l0.min_impact_fraction = 0.25f;
    AttackEngine engine(*model, l0);
    PlanCounters counters;
    (void)engine.run(cloud, plan_on());
    EXPECT_GE(counters.epoch(), 1u);
    EXPECT_EQ(counters.uncapturable(), 0u);
    EXPECT_EQ(counters.fallbacks(), counters.epoch());
  }
  {
    // A failed capture is counted once per run, which then stays eager,
    // and once per cloud in run_shared.
    UncapturableModel model(rng);
    AttackEngine engine(model, config);
    PlanCounters counters;
    (void)engine.run(cloud, plan_on());
    EXPECT_EQ(counters.uncapturable(), 1u);
    EXPECT_EQ(counters.epoch(), 0u);
    EXPECT_EQ(counters.fallbacks(), 1u);
    EXPECT_EQ(counters.captures(), 0u);
    EXPECT_EQ(counters.replays(), 0u);

    PlanCounters shared;
    // One thread: the model's dropout RNG is shared mutable state.
    const std::vector<PointCloud> clouds{cloud, tiny_scene(96, 43)};
    (void)engine.run_shared(clouds, {1, true, {}});
    EXPECT_EQ(shared.uncapturable(), 2u);
    EXPECT_EQ(shared.fallbacks(), 2u);
    EXPECT_EQ(shared.replays(), 0u);
  }
}

}  // namespace
