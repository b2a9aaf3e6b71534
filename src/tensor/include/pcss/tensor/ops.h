#pragma once

#include <cstdint>
#include <vector>

#include "pcss/tensor/tensor.h"

/// Differentiable operations on Tensor. Every function builds the autograd
/// graph as it runs; gradients flow when any input has requires_grad set
/// (directly or transitively). Each builder here is one Op (tensor.h):
/// its forward and backward rules sit next to it in ops.cpp and are named
/// by the op table there.
///
/// Conventions: matrices are [rows, cols] row-major. "Segment" ops treat a
/// [N*K, C] tensor as N contiguous groups of K rows (the neighbor axis used
/// by point-cloud aggregation).
namespace pcss::tensor::ops {

// -- Elementwise (same shape) -----------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

// -- Scalar broadcast ---------------------------------------------------------
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);

// -- Row-vector broadcast over [N, C] ----------------------------------------
Tensor add_rowvec(const Tensor& x, const Tensor& bias);

// -- Linear algebra ------------------------------------------------------------
/// [N, K] x [K, M] -> [N, M].
Tensor matmul(const Tensor& a, const Tensor& b);

/// Fused fully-connected layer: matmul(x, w) with the row-vector bias
/// added in the kernel epilogue (pass an undefined bias to skip it).
/// Bitwise-identical to add_rowvec(matmul(x, w), bias), one node instead
/// of two and no intermediate buffer.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias);

// -- Nonlinearities -------------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor square(const Tensor& a);

// -- Reductions -----------------------------------------------------------------
Tensor sum(const Tensor& a);  ///< -> [1]
/// Row-wise sum of [N, C] -> [N, 1].
Tensor row_sum(const Tensor& a);
/// Elementwise sqrt(x + eps); eps guards the gradient at zero.
Tensor sqrt_op(const Tensor& a, float eps = 1e-12f);

// -- Structure / indexing ----------------------------------------------------
/// Rows of x selected by idx: [N, C] x idx[M] -> [M, C].
Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx);

/// Inverse of gather_rows: out is [out_rows, C] with out[idx[i]] = rows[i]
/// and every row not named by idx taken from `fill` (a constant
/// [out_rows*C] buffer). Indices must be distinct and in range. Gradient
/// flows to `rows` only; the fill is constant (the defended-model adapter
/// uses it to scatter surviving-point logits back to full-cloud rows).
Tensor scatter_rows(const Tensor& rows, const std::vector<std::int64_t>& idx,
                    std::int64_t out_rows, const std::vector<float>& fill);

/// y_n = sum_k weights[n*k_per_row + k] * x[idx[n*k_per_row + k]].
/// Generalizes nearest-neighbor upsampling (k=1, w=1) and the 3-NN
/// inverse-distance interpolation of PointNet++ feature propagation.
Tensor weighted_gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx,
                            const std::vector<float>& weights, std::int64_t k_per_row);

/// Each row of x repeated k times consecutively: [N, C] -> [N*k, C].
Tensor repeat_rows(const Tensor& x, std::int64_t k);

/// Column-wise concatenation: [N, C1] + [N, C2] -> [N, C1+C2].
Tensor concat_cols(const Tensor& a, const Tensor& b);

/// Four-way column concatenation in one node/pass. Bitwise-identical to
/// concat_cols(concat_cols(a, b), concat_cols(c, d)) without the two
/// intermediate copies (RandLA-Net's LocSE assembly).
Tensor concat_cols4(const Tensor& a, const Tensor& b, const Tensor& c, const Tensor& d);

/// Columns [c0, c1) of x: [N, C] -> [N, c1-c0].
Tensor slice_cols(const Tensor& x, std::int64_t c0, std::int64_t c1);

/// base with delta added into columns [col0, col0 + delta.cols()).
/// Used by the feature assembler to splice a perturbation tensor into a
/// constant feature matrix while keeping gradient flow to the delta only.
Tensor scatter_add_cols(const Tensor& base, const Tensor& delta, std::int64_t col0);

// -- Fused model-block ops -----------------------------------------------------
/// EdgeConv Linear in one node: for each point i and its r-th neighbor
/// j = idx[i*k+r], row (i*k+r) is [h_i | h_j - h_i] * w + bias, with
/// h [N, C], w = [w_a; w_b] [2C, M] and bias [M] (or undefined) -> [N*k, M].
/// Computed as h_i * (w_a - w_b) + h_j * w_b: both products run on the
/// N point rows, then one gather-add per edge row, so neither the
/// [N*k, 2C] edge tensor nor an [N*k]-row GEMM exists. Equal to
/// linear(concat_cols(repeat_rows(h, k), sub(gather_rows(h, idx),
/// repeat_rows(h, k))), w, bias) up to rounding (the sums reorder).
Tensor edge_linear(const Tensor& h, const Tensor& w, const Tensor& bias,
                   const std::vector<std::int64_t>& idx, std::int64_t k);

/// Eval-mode EdgeConv block in one node: max over each point's k edges
/// of the eval-mode BN + ReLU of its edge_linear row -> [N, M].
/// Bitwise-identical, value and every gradient, to
/// segment_max(bn_relu_eval(edge_linear(h, w, bias, idx, k), gamma, beta,
/// running_mean, running_var, eps), k) while gamma, beta and the running
/// statistics are finite (the value and dh for any h). Saves P, Q and the
/// per-(point, channel) argmax instead of the three [N*k, M] tensors.
Tensor edge_conv_eval(const Tensor& h, const Tensor& w, const Tensor& bias,
                      const Tensor& gamma, const Tensor& beta,
                      const std::vector<float>& running_mean,
                      const std::vector<float>& running_var,
                      const std::vector<std::int64_t>& idx, std::int64_t k,
                      float eps = 1e-5f);

/// Linear over rows that pair a per-row part with a gathered per-point
/// part: row e is [x_e | h_{idx[e]}] * w + bias, with x [E, Cx], h [N, Ch],
/// w = [w_x; w_h] [Cx + Ch, M] and bias [M] (or undefined) -> [E, M].
/// Computed as (x * w_x + (h * w_h)[idx]) + bias: the h product runs on the
/// N point rows, so neither the [E, Cx + Ch] concatenation nor the
/// [E, Ch] gather exists (RandLA-Net's LFA shared MLP). Equal to
/// linear(concat_cols(x, gather_rows(h, idx)), w, bias) up to rounding.
Tensor neighbor_linear(const Tensor& x, const Tensor& h, const Tensor& w, const Tensor& bias,
                       const std::vector<std::int64_t>& idx);

/// Attentive pooling of groups of k rows: g and s [N*k, C] ->
/// out[i] = sum_r g[i*k+r] * softmax_r(s[i*k..i*k+k-1])[r], per channel.
/// Bitwise-identical, value and both gradients, to
/// segment_sum(mul(g, segment_softmax(s, k)), k), built without the
/// attention tensor, the product and their gradients.
Tensor attentive_pool(const Tensor& g, const Tensor& s, std::int64_t k);

/// Grouped relative rows: out[i*k+r] = x[idx_a[i*k+r]] - x[idx_b[i]].
/// Bitwise-identical to sub(gather_rows(x, idx_a),
/// repeat_rows(gather_rows(x, idx_b), k)) (PointNet++ grouping).
Tensor gather_sub_rows(const Tensor& x, const std::vector<std::int64_t>& idx_a,
                       const std::vector<std::int64_t>& idx_b, std::int64_t k);

/// Row-broadcast multiply: out[i, j] = x[i, j] * col[i] with col [N, 1].
/// Bitwise-identical to mul(x, matmul(col, ones_row)) (PCT's attention
/// broadcast) without materializing the broadcast matrix.
Tensor mul_rows(const Tensor& x, const Tensor& col);

// -- Segment (neighbor-group) reductions over [N*K, C] -----------------------
Tensor segment_max(const Tensor& x, std::int64_t k);   ///< -> [N, C]
Tensor segment_sum(const Tensor& x, std::int64_t k);   ///< -> [N, C]
/// Softmax across each group of k rows, per channel (PCT's attention).
Tensor segment_softmax(const Tensor& x, std::int64_t k);

// -- Probabilistic heads ------------------------------------------------------
Tensor log_softmax_rows(const Tensor& x);
/// Mean negative log-likelihood over rows where mask[i] != 0
/// (pass an empty mask to average over all rows).
Tensor nll_loss_masked(const Tensor& log_probs, const std::vector<int>& labels,
                       const std::vector<std::uint8_t>& mask);

// -- Paper-specific losses ----------------------------------------------------
/// Eq. 10 (targeted=true):  sum_i max(max_{j!=y} z_j - z_y, 0)
/// Eq. 11 (targeted=false): sum_i max(z_y - max_{j!=y} z_j, 0)
/// over rows with mask[i] != 0 (empty mask = all rows).
Tensor hinge_margin_loss(const Tensor& logits, const std::vector<int>& labels,
                         const std::vector<std::uint8_t>& mask, bool targeted);

/// Eq. 9: sum_i sum_{j in Nei(i)} ||x_i - x_j||_2 with fixed neighbor
/// indices. neighbor_idx has N*alpha entries (row-major per point).
Tensor smoothness_penalty(const Tensor& x, const std::vector<std::int64_t>& neighbor_idx,
                          std::int64_t alpha);

// -- Normalization / regularization --------------------------------------------
/// BatchNorm over the row axis of [N, C]. In training mode uses batch
/// statistics and updates running_mean/var in place (momentum update);
/// in eval mode uses the running statistics.
Tensor batch_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  std::vector<float>& running_mean, std::vector<float>& running_var,
                  bool training, float momentum = 0.1f, float eps = 1e-5f);

/// Fused eval-mode BatchNorm + ReLU: the running statistics reduce BN to
/// a per-channel scale+shift, applied together with the ReLU in a single
/// pass. Bitwise-identical to relu(batch_norm(x, ..., training=false)).
/// The attack inner loop always runs models in eval mode, so this is the
/// hot normalization path.
Tensor bn_relu_eval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    const std::vector<float>& running_mean,
                    const std::vector<float>& running_var, float eps = 1e-5f);

/// Inverted dropout; identity in eval mode.
Tensor dropout(const Tensor& x, float p, Rng& rng, bool training);

// -- Non-differentiable helpers -------------------------------------------------
/// Row-wise argmax of [N, C] (predicted class per point).
std::vector<int> argmax_rows(const Tensor& x);

}  // namespace pcss::tensor::ops
