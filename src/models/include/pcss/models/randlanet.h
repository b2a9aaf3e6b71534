#pragma once

#include <memory>
#include <vector>

#include "pcss/models/model.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/rng.h"

namespace pcss::models {

using pcss::tensor::Rng;

/// CPU-scaled RandLA-Net segmentation (paper target #3).
///
/// Random-sampling encoder ladder with Local Spatial Encoding (LocSE:
/// [p_i | p_j | p_i - p_j | dist]) and attentive pooling (one fused
/// ops::attentive_pool per block), nearest-neighbor
/// decoder with skip connections. Input coordinates are recentered and
/// color kept in [0,1]; the input cloud is regenerated through a random
/// permutation, mirroring RandLA-Net's duplicate/select step (at fixed
/// size the step reduces to a shuffle — see DESIGN.md substitutions).
/// Sampling uses a fixed seed per forward so predictions are
/// deterministic; the paper's coordinate attack is not supported for this
/// model (its own limitation (2)).
struct RandLANetConfig {
  int num_classes = 8;
  int k = 12;
  int down1 = 4;  ///< N -> N/down1
  int down2 = 4;  ///< N/down1 -> /down2
  std::int64_t c1 = 16;
  std::int64_t c2 = 32;
  std::int64_t c3 = 64;
  std::uint64_t sample_seed = 42;
};

class RandLANetSeg : public SegmentationModel {
 public:
  RandLANetSeg(RandLANetConfig config, Rng& rng);

  std::string name() const override { return "RandLA-Net"; }
  int num_classes() const override { return config_.num_classes; }
  Tensor forward(const ModelInput& input, bool training) override;
  std::vector<pcss::tensor::nn::NamedParam> named_params() override;
  std::vector<pcss::tensor::nn::NamedBuffer> named_buffers() override;

  const RandLANetConfig& config() const { return config_; }

 private:
  /// LocSE + attentive pooling block parameters. The shared MLP is one
  /// Linear + BN + ReLU; its Linear runs as ops::neighbor_linear, and its
  /// parameters keep the one-layer Mlp's names and layout
  /// (lfa<b>.shared.lin0.weight is [cmid+cin, cout], rows [W_pe; W_f]).
  struct Lfa {
    std::unique_ptr<pcss::tensor::nn::Mlp> pos_mlp;            // 10 -> cmid
    std::unique_ptr<pcss::tensor::nn::Linear> shared;          // cmid+cin -> cout
    std::unique_ptr<pcss::tensor::nn::BatchNorm1d> shared_bn;  // cout
    std::unique_ptr<pcss::tensor::nn::Linear> score;           // cout -> cout
  };

  Tensor apply_lfa(const Lfa& lfa, const Tensor& feats, const Tensor& pos_tensor,
                   const std::vector<Vec3>& graph_pos, bool training);

  RandLANetConfig config_;
  pcss::tensor::nn::Mlp stem_;
  Lfa lfa1_, lfa2_, lfa3_;
  pcss::tensor::nn::Mlp dec2_;
  pcss::tensor::nn::Mlp dec1_;
  pcss::tensor::nn::Mlp head_;
};

}  // namespace pcss::models
