#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pcss/tensor/ops.h"
#include "pcss/tensor/tensor.h"

/// Minimal neural-network module layer on top of the autograd ops:
/// Linear, BatchNorm1d, and an MLP convenience stack. Modules register
/// named parameters so checkpoints can be saved/loaded by name.
namespace pcss::tensor::nn {

/// A parameter together with its hierarchical name ("sa1.mlp.0.weight").
struct NamedParam {
  std::string name;
  Tensor tensor;
};

/// Named non-trainable state (batch-norm running statistics).
struct NamedBuffer {
  std::string name;
  std::vector<float>* values;
};

/// Base class for trainable modules. Parameters require grad; buffers are
/// plain float vectors serialized alongside them.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters under `prefix` (e.g. "encoder.").
  virtual void collect_params(const std::string& prefix, std::vector<NamedParam>& out) = 0;
  /// Appends non-trainable buffers under `prefix`.
  virtual void collect_buffers(const std::string& prefix, std::vector<NamedBuffer>& out) {
    (void)prefix;
    (void)out;
  }

  std::vector<Tensor> parameters() {
    std::vector<NamedParam> named;
    collect_params("", named);
    std::vector<Tensor> out;
    out.reserve(named.size());
    for (auto& p : named) out.push_back(p.tensor);
    return out;
  }
};

/// Fully connected layer y = x W + b with Kaiming-uniform init.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) const;

  void collect_params(const std::string& prefix, std::vector<NamedParam>& out) override;

  std::int64_t in_features() const { return weight_.dim(0); }
  std::int64_t out_features() const { return weight_.dim(1); }
  /// For ops that apply the layer in a fused form (ops::edge_linear).
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor weight_;  ///< [in, out]
  Tensor bias_;    ///< [out] or undefined
};

/// BatchNorm over the point axis of [N, C] feature matrices.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(std::int64_t features, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool training);
  /// BN followed by ReLU; in eval mode the two run as one fused
  /// scale+shift+ReLU pass (bitwise-identical to the composition).
  Tensor forward_relu(const Tensor& x, bool training);
  /// EdgeConv aggregation: max over each point's k edges of
  /// forward_relu(ops::edge_linear(h, lin, idx, k)) -> [N, C]. Eval mode
  /// runs it as one op (ops::edge_conv_eval, bitwise-identical); training
  /// needs the batch statistics of all N*k edge rows, so it runs the chain.
  Tensor edge_conv(const Tensor& h, const Linear& lin, const std::vector<std::int64_t>& idx,
                   std::int64_t k, bool training);

  void collect_params(const std::string& prefix, std::vector<NamedParam>& out) override;
  void collect_buffers(const std::string& prefix, std::vector<NamedBuffer>& out) override;

 private:
  Tensor gamma_;
  Tensor beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
  float momentum_;
  float eps_;
};

/// Shared-MLP block: a stack of Linear -> BatchNorm -> ReLU applied
/// per point ([N, C] rows). The final layer optionally skips BN+ReLU
/// (for logit heads).
class Mlp : public Module {
 public:
  /// `widths` = {in, h1, ..., out}. If `final_activation` is false the last
  /// Linear is left raw.
  Mlp(std::vector<std::int64_t> widths, Rng& rng, bool final_activation = true);

  Tensor forward(const Tensor& x, bool training);

  void collect_params(const std::string& prefix, std::vector<NamedParam>& out) override;
  void collect_buffers(const std::string& prefix, std::vector<NamedBuffer>& out) override;

  std::int64_t out_features() const;

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;  // size = linears or linears-1
  bool final_activation_;
};

}  // namespace pcss::tensor::nn
