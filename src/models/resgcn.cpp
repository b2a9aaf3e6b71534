#include "pcss/models/resgcn.h"

#include <algorithm>

#include "pcss/models/assembler.h"
#include "pcss/models/common.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/tensor/ops.h"

namespace pcss::models {

namespace ops = pcss::tensor::ops;
using pcss::tensor::Tensor;

ResGCNSeg::ResGCNSeg(ResGCNConfig config, Rng& rng)
    : config_(config),
      stem_({6, config.channels}, rng),
      head_({config.channels, config.channels, config.num_classes}, rng,
            /*final_activation=*/false),
      dropout_rng_(config.dropout_seed) {
  // Reserved up front: named_buffers() hands out pointers into the BNs.
  blocks_.reserve(static_cast<size_t>(config_.blocks));
  for (int b = 0; b < config_.blocks; ++b) {
    blocks_.push_back({pcss::tensor::nn::Linear(2 * config_.channels, config_.channels, rng),
                       pcss::tensor::nn::BatchNorm1d(config_.channels)});
  }
}

Tensor ResGCNSeg::forward(const ModelInput& input, bool training) {
  AssembledInput a = assemble_input(input, CoordConvention::kMinusOneToOne,
                                    /*with_normalized_extra=*/false);
  const std::int64_t n = static_cast<std::int64_t>(a.graph_positions.size());
  const int k = static_cast<int>(std::min<std::int64_t>(config_.k, n));
  const int wide_k =
      static_cast<int>(std::min<std::int64_t>(static_cast<std::int64_t>(k) *
                                                  config_.max_dilation,
                                              n));
  // One wide kNN table per forward; blocks take dilated strides of it.
  const auto wide_idx = pcss::pointcloud::knn_self(a.graph_positions, wide_k,
                                                   /*include_self=*/true);

  Tensor h = stem_.forward(a.features, training);
  for (int b = 0; b < config_.blocks; ++b) {
    const int dilation =
        std::min(1 + (b % config_.max_dilation), std::max(wide_k / k, 1));
    const auto idx = dilate_neighbors(wide_idx, n, k, dilation);
    Block& block = blocks_[static_cast<size_t>(b)];
    h = ops::add(block.bn0.edge_conv(h, block.lin0, idx, k, training), h);  // residual
  }
  Tensor d = ops::dropout(h, config_.dropout, dropout_rng_, training);
  return head_.forward(d, training);
}

std::vector<pcss::tensor::nn::NamedParam> ResGCNSeg::named_params() {
  std::vector<pcss::tensor::nn::NamedParam> out;
  stem_.collect_params("stem.", out);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const std::string prefix = "block" + std::to_string(b) + ".";
    blocks_[b].lin0.collect_params(prefix + "lin0.", out);
    blocks_[b].bn0.collect_params(prefix + "bn0.", out);
  }
  head_.collect_params("head.", out);
  return out;
}

std::vector<pcss::tensor::nn::NamedBuffer> ResGCNSeg::named_buffers() {
  std::vector<pcss::tensor::nn::NamedBuffer> out;
  stem_.collect_buffers("stem.", out);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b].bn0.collect_buffers("block" + std::to_string(b) + ".bn0.", out);
  }
  head_.collect_buffers("head.", out);
  return out;
}

}  // namespace pcss::models
