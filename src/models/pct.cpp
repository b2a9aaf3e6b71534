#include "pcss/models/pct.h"

#include <algorithm>
#include <cmath>

#include "pcss/models/assembler.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/tensor/ops.h"

namespace pcss::models {

namespace ops = pcss::tensor::ops;
using pcss::tensor::Tensor;

PctSeg::PctSeg(PctConfig config, Rng& rng)
    : config_(config),
      stem_({6, config.dim}, rng),
      head_({config.dim, config.dim, config.num_classes}, rng, /*final_activation=*/false),
      dropout_rng_(config.dropout_seed) {
  for (int b = 0; b < config_.layers; ++b) {
    Block block;
    block.q = std::make_unique<pcss::tensor::nn::Linear>(config_.dim, config_.dim, rng,
                                                         /*bias=*/false);
    block.k = std::make_unique<pcss::tensor::nn::Linear>(config_.dim, config_.dim, rng,
                                                         /*bias=*/false);
    block.v = std::make_unique<pcss::tensor::nn::Linear>(config_.dim, config_.dim, rng,
                                                         /*bias=*/false);
    block.pos = std::make_unique<pcss::tensor::nn::Mlp>(
        std::vector<std::int64_t>{3, config_.dim}, rng);
    block.out = std::make_unique<pcss::tensor::nn::Mlp>(
        std::vector<std::int64_t>{config_.dim, config_.dim}, rng);
    blocks_.push_back(std::move(block));
  }
}

Tensor PctSeg::forward(const ModelInput& input, bool training) {
  AssembledInput a = assemble_input(input, CoordConvention::kMinusOneToOne,
                                    /*with_normalized_extra=*/false);
  const std::int64_t n = static_cast<std::int64_t>(a.graph_positions.size());
  const int k = static_cast<int>(std::min<std::int64_t>(config_.k, n));
  const auto idx = pcss::pointcloud::knn_self(a.graph_positions, k, /*include_self=*/true);
  const float inv_sqrt_dim = 1.0f / std::sqrt(static_cast<float>(config_.dim));

  Tensor h = stem_.forward(a.features, training);
  for (auto& block : blocks_) {
    Tensor q = block.q->forward(h);
    Tensor key = block.k->forward(h);
    Tensor val = block.v->forward(h);
    Tensor k_j = ops::gather_rows(key, idx);
    Tensor v_j = ops::gather_rows(val, idx);
    // Learned relative-position encoding added to keys and values
    // (the PCT positional term; keeps coordinate gradients alive).
    Tensor rel =
        ops::sub(ops::gather_rows(a.positions, idx), ops::repeat_rows(a.positions, k));
    Tensor pe = block.pos->forward(rel, training);
    k_j = ops::add(k_j, pe);
    v_j = ops::add(v_j, pe);

    Tensor q_i = ops::repeat_rows(q, k);
    Tensor scores = ops::scale(ops::row_sum(ops::mul(q_i, k_j)), inv_sqrt_dim);
    Tensor att = ops::segment_softmax(scores, k);  // [N*k, 1]
    // Fused row broadcast: weights each value row by its attention score
    // without materializing the [N*k, dim] broadcast matrix.
    Tensor pooled = ops::segment_sum(ops::mul_rows(v_j, att), k);  // [N, dim]
    h = ops::add(h, block.out->forward(pooled, training));  // residual
  }
  Tensor d = ops::dropout(h, config_.dropout, dropout_rng_, training);
  return head_.forward(d, training);
}

std::vector<pcss::tensor::nn::NamedParam> PctSeg::named_params() {
  std::vector<pcss::tensor::nn::NamedParam> out;
  stem_.collect_params("stem.", out);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const std::string p = "block" + std::to_string(b) + ".";
    blocks_[b].q->collect_params(p + "q.", out);
    blocks_[b].k->collect_params(p + "k.", out);
    blocks_[b].v->collect_params(p + "v.", out);
    blocks_[b].pos->collect_params(p + "pos.", out);
    blocks_[b].out->collect_params(p + "out.", out);
  }
  head_.collect_params("head.", out);
  return out;
}

std::vector<pcss::tensor::nn::NamedBuffer> PctSeg::named_buffers() {
  std::vector<pcss::tensor::nn::NamedBuffer> out;
  stem_.collect_buffers("stem.", out);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const std::string p = "block" + std::to_string(b) + ".";
    blocks_[b].pos->collect_buffers(p + "pos.", out);
    blocks_[b].out->collect_buffers(p + "out.", out);
  }
  head_.collect_buffers("head.", out);
  return out;
}

}  // namespace pcss::models
