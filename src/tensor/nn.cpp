#include "pcss/tensor/nn.h"

#include <cmath>

namespace pcss::tensor::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool bias) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  weight_ = Tensor::uniform({in_features, out_features}, rng, -bound, bound);
  weight_.set_requires_grad(true);
  if (bias) {
    bias_ = Tensor::zeros({out_features});
    bias_.set_requires_grad(true);
  }
}

Tensor Linear::forward(const Tensor& x) const {
  // Fused matmul+bias kernel; bitwise-identical to
  // add_rowvec(matmul(x, weight_), bias_).
  return ops::linear(x, weight_, bias_);
}

void Linear::collect_params(const std::string& prefix, std::vector<NamedParam>& out) {
  out.push_back({prefix + "weight", weight_});
  if (bias_.defined()) out.push_back({prefix + "bias", bias_});
}

BatchNorm1d::BatchNorm1d(std::int64_t features, float momentum, float eps)
    : gamma_(Tensor::full({features}, 1.0f)),
      beta_(Tensor::zeros({features})),
      running_mean_(static_cast<size_t>(features), 0.0f),
      running_var_(static_cast<size_t>(features), 1.0f),
      momentum_(momentum),
      eps_(eps) {
  gamma_.set_requires_grad(true);
  beta_.set_requires_grad(true);
}

Tensor BatchNorm1d::forward(const Tensor& x, bool training) {
  return ops::batch_norm(x, gamma_, beta_, running_mean_, running_var_, training, momentum_,
                         eps_);
}

Tensor BatchNorm1d::forward_relu(const Tensor& x, bool training) {
  if (!training) {
    // Eval mode reduces BN to a per-channel scale+shift; fuse it with the
    // ReLU (the attack inner loop's hot path). Bitwise-identical to the
    // unfused composition below.
    return ops::bn_relu_eval(x, gamma_, beta_, running_mean_, running_var_, eps_);
  }
  return ops::relu(forward(x, training));
}

Tensor BatchNorm1d::edge_conv(const Tensor& h, const Linear& lin,
                              const std::vector<std::int64_t>& idx, std::int64_t k,
                              bool training) {
  if (!training) {
    return ops::edge_conv_eval(h, lin.weight(), lin.bias(), gamma_, beta_, running_mean_,
                               running_var_, idx, k, eps_);
  }
  return ops::segment_max(forward_relu(ops::edge_linear(h, lin.weight(), lin.bias(), idx, k),
                                       training),
                          k);
}

void BatchNorm1d::collect_params(const std::string& prefix, std::vector<NamedParam>& out) {
  out.push_back({prefix + "gamma", gamma_});
  out.push_back({prefix + "beta", beta_});
}

void BatchNorm1d::collect_buffers(const std::string& prefix, std::vector<NamedBuffer>& out) {
  out.push_back({prefix + "running_mean", &running_mean_});
  out.push_back({prefix + "running_var", &running_var_});
}

Mlp::Mlp(std::vector<std::int64_t> widths, Rng& rng, bool final_activation)
    : final_activation_(final_activation) {
  detail::check(widths.size() >= 2, "Mlp: needs at least {in, out}");
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    linears_.push_back(std::make_unique<Linear>(widths[i], widths[i + 1], rng));
    const bool last = (i + 2 == widths.size());
    if (!last || final_activation_) {
      norms_.push_back(std::make_unique<BatchNorm1d>(widths[i + 1]));
    }
  }
}

Tensor Mlp::forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (size_t i = 0; i < linears_.size(); ++i) {
    h = linears_[i]->forward(h);
    const bool last = (i + 1 == linears_.size());
    if (!last || final_activation_) {
      h = norms_[i]->forward_relu(h, training);
    }
  }
  return h;
}

void Mlp::collect_params(const std::string& prefix, std::vector<NamedParam>& out) {
  for (size_t i = 0; i < linears_.size(); ++i) {
    linears_[i]->collect_params(prefix + "lin" + std::to_string(i) + ".", out);
  }
  for (size_t i = 0; i < norms_.size(); ++i) {
    norms_[i]->collect_params(prefix + "bn" + std::to_string(i) + ".", out);
  }
}

void Mlp::collect_buffers(const std::string& prefix, std::vector<NamedBuffer>& out) {
  for (size_t i = 0; i < norms_.size(); ++i) {
    norms_[i]->collect_buffers(prefix + "bn" + std::to_string(i) + ".", out);
  }
}

std::int64_t Mlp::out_features() const { return linears_.back()->out_features(); }

}  // namespace pcss::tensor::nn
