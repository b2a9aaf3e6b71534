#include "pcss/models/randlanet.h"

#include <algorithm>
#include <numeric>

#include "pcss/models/assembler.h"
#include "pcss/models/common.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/pointcloud/sampling.h"
#include "pcss/tensor/ops.h"

namespace pcss::models {

namespace ops = pcss::tensor::ops;
using pcss::pointcloud::duplicate_or_select;
using pcss::pointcloud::knn_self;
using pcss::pointcloud::random_sample;
using pcss::tensor::Tensor;
using pcss::tensor::nn::BatchNorm1d;
using pcss::tensor::nn::Linear;

namespace {

std::unique_ptr<pcss::tensor::nn::Mlp> make_mlp(std::vector<std::int64_t> widths, Rng& rng) {
  return std::make_unique<pcss::tensor::nn::Mlp>(std::move(widths), rng);
}

}  // namespace

RandLANetSeg::RandLANetSeg(RandLANetConfig config, Rng& rng)
    : config_(config),
      stem_({6, config.c1}, rng),
      dec2_({config.c3 + config.c3, config.c2}, rng),
      dec1_({config.c2 + config.c2, config.c2}, rng),
      head_({config.c2, config.c2, config.num_classes}, rng, /*final_activation=*/false) {
  // Braced lists evaluate left to right: the init draws run pos, shared,
  // score, as when shared was a one-layer Mlp.
  const auto make_lfa = [&rng, cmid = config_.c1](std::int64_t cin, std::int64_t cout) {
    return Lfa{make_mlp({10, cmid}, rng), std::make_unique<Linear>(cmid + cin, cout, rng),
               std::make_unique<BatchNorm1d>(cout), std::make_unique<Linear>(cout, cout, rng)};
  };
  lfa1_ = make_lfa(config_.c1, config_.c2);
  lfa2_ = make_lfa(config_.c2, config_.c3);
  lfa3_ = make_lfa(config_.c3, config_.c3);
}

Tensor RandLANetSeg::apply_lfa(const Lfa& lfa, const Tensor& feats, const Tensor& pos_tensor,
                               const std::vector<Vec3>& graph_pos, bool training) {
  const std::int64_t n = static_cast<std::int64_t>(graph_pos.size());
  const int k = static_cast<int>(std::min<std::int64_t>(config_.k, n));
  const auto idx = knn_self(graph_pos, k, /*include_self=*/true);

  Tensor p_j = ops::gather_rows(pos_tensor, idx);
  Tensor p_i = ops::repeat_rows(pos_tensor, k);
  Tensor diff = ops::sub(p_j, p_i);
  Tensor dist = ops::sqrt_op(ops::row_sum(ops::square(diff)));
  // LocSE: [p_i | p_j | p_i - p_j | dist] -> positional encoding, built
  // with the fused 4-way concat (one pass, no intermediate pairs).
  Tensor locse = ops::concat_cols4(p_i, p_j, diff, dist);
  Tensor pe = lfa.pos_mlp->forward(locse, training);

  // Shared MLP on [pe | f_j], its Linear applied through the gather.
  Tensor g = lfa.shared_bn->forward_relu(
      ops::neighbor_linear(pe, feats, lfa.shared->weight(), lfa.shared->bias(), idx),
      training);
  // Attentive pooling: per-channel softmax over the k neighbors.
  return ops::attentive_pool(g, lfa.score->forward(g), k);
}

Tensor RandLANetSeg::forward(const ModelInput& input, bool training) {
  AssembledInput a = assemble_input(input, CoordConvention::kCentered,
                                    /*with_normalized_extra=*/false);
  const std::int64_t n = static_cast<std::int64_t>(a.graph_positions.size());
  Rng sample_rng(config_.sample_seed);

  // Input regeneration (duplicate/select; a shuffle at fixed size).
  const auto perm = duplicate_or_select(n, n, sample_rng);
  std::vector<std::int64_t> inverse(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) inverse[static_cast<size_t>(perm[i])] = i;

  Tensor feat0 = ops::gather_rows(a.features, perm);
  Tensor pos0_t = ops::gather_rows(a.positions, perm);
  std::vector<Vec3> pos0(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    pos0[static_cast<size_t>(i)] = a.graph_positions[static_cast<size_t>(perm[i])];
  }

  // Encoder.
  Tensor enc0 = stem_.forward(feat0, training);
  Tensor enc1 = apply_lfa(lfa1_, enc0, pos0_t, pos0, training);  // [N, c2]

  const std::int64_t n1 = std::max<std::int64_t>(n / config_.down1, 1);
  const auto sub1 = random_sample(n, n1, sample_rng);
  Tensor f1 = ops::gather_rows(enc1, sub1);
  Tensor pos1_t = ops::gather_rows(pos0_t, sub1);
  std::vector<Vec3> pos1(static_cast<size_t>(n1));
  for (std::int64_t i = 0; i < n1; ++i) {
    pos1[static_cast<size_t>(i)] = pos0[static_cast<size_t>(sub1[i])];
  }
  Tensor encA = apply_lfa(lfa2_, f1, pos1_t, pos1, training);  // [N/4, c3]

  const std::int64_t n2 = std::max<std::int64_t>(n1 / config_.down2, 1);
  const auto sub2 = random_sample(n1, n2, sample_rng);
  Tensor f2 = ops::gather_rows(encA, sub2);
  Tensor pos2_t = ops::gather_rows(pos1_t, sub2);
  std::vector<Vec3> pos2(static_cast<size_t>(n2));
  for (std::int64_t i = 0; i < n2; ++i) {
    pos2[static_cast<size_t>(i)] = pos1[static_cast<size_t>(sub2[i])];
  }
  Tensor encB = apply_lfa(lfa3_, f2, pos2_t, pos2, training);  // [N/16, c3]

  // Decoder: nearest-neighbor upsampling with skip concatenation.
  std::vector<std::int64_t> up_idx;
  std::vector<float> up_w;
  interpolation_weights(pos2, pos1, 1, up_idx, up_w);
  Tensor upA = ops::weighted_gather_rows(encB, up_idx, up_w, 1);
  Tensor decA = dec2_.forward(ops::concat_cols(upA, encA), training);  // [N/4, c2]

  interpolation_weights(pos1, pos0, 1, up_idx, up_w);
  Tensor up0 = ops::weighted_gather_rows(decA, up_idx, up_w, 1);
  Tensor dec0 = dec1_.forward(ops::concat_cols(up0, enc1), training);  // [N, c2]

  Tensor logits = head_.forward(dec0, training);
  // Undo the regeneration permutation so row i matches input point i.
  return ops::gather_rows(logits, inverse);
}

std::vector<pcss::tensor::nn::NamedParam> RandLANetSeg::named_params() {
  std::vector<pcss::tensor::nn::NamedParam> out;
  stem_.collect_params("stem.", out);
  auto add_lfa = [&out](Lfa& lfa, const std::string& prefix) {
    lfa.pos_mlp->collect_params(prefix + "pos.", out);
    lfa.shared->collect_params(prefix + "shared.lin0.", out);
    lfa.shared_bn->collect_params(prefix + "shared.bn0.", out);
    lfa.score->collect_params(prefix + "score.", out);
  };
  add_lfa(lfa1_, "lfa1.");
  add_lfa(lfa2_, "lfa2.");
  add_lfa(lfa3_, "lfa3.");
  dec2_.collect_params("dec2.", out);
  dec1_.collect_params("dec1.", out);
  head_.collect_params("head.", out);
  return out;
}

std::vector<pcss::tensor::nn::NamedBuffer> RandLANetSeg::named_buffers() {
  std::vector<pcss::tensor::nn::NamedBuffer> out;
  stem_.collect_buffers("stem.", out);
  auto add_lfa = [&out](Lfa& lfa, const std::string& prefix) {
    lfa.pos_mlp->collect_buffers(prefix + "pos.", out);
    lfa.shared_bn->collect_buffers(prefix + "shared.bn0.", out);
  };
  add_lfa(lfa1_, "lfa1.");
  add_lfa(lfa2_, "lfa2.");
  add_lfa(lfa3_, "lfa3.");
  dec2_.collect_buffers("dec2.", out);
  dec1_.collect_buffers("dec1.", out);
  head_.collect_buffers("head.", out);
  return out;
}

}  // namespace pcss::models
