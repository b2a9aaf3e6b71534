#pragma once

#include <cstddef>
#include <cstdint>

/// Runtime-dispatched SIMD kernel backend for pcss::tensor.
///
/// The tensor ops route their inner loops through a table of function
/// pointers (`Kernels`). Two tables exist in the binary:
///
///   - scalar: compiled with the build's baseline flags (x86-64 SSE2),
///   - avx2:   the same kernel source compiled with -mavx2 (present only
///             when the compiler supports the flag).
///
/// **Determinism contract.** Both tables produce *bit-identical* outputs
/// for every kernel. This holds by construction:
///
///   1. Elementwise kernels perform the same IEEE-754 operation per
///      element; vector width cannot change a per-element result.
///   2. GEMM accumulates every output element in a single chain: the
///      existing C value (or 0 for the `_init` variant), plus one
///      round-to-nearest multiply and one add per p in ascending order.
///      Register tiling changes *where* the chain lives, never its shape.
///   3. Horizontal reductions (sum, dot, row_sum, softmax denominators)
///      use a **fixed 8-lane accumulation order**: element i joins lane
///      (i mod 8) in ascending order, and the eight lanes combine in the
///      fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The scalar
///      table runs the identical lane structure, so an AVX2 register of
///      8 lanes produces the same bits.
///   4. The whole library is compiled with -ffp-contract=off and the
///      kernels use explicit mul+add (no FMA), so contraction can never
///      differ between paths.
///
/// Because of (1)-(4), result documents in artifacts/results/ are
/// byte-identical whichever table executed, and a result store warmed
/// under one ISA is a 100% cache hit under the other.
///
/// Selection: the first call to active() picks avx2 when the CPU
/// supports it, unless the PCSS_SIMD environment variable overrides the
/// choice ("scalar" forces the fallback; "avx2" requests AVX2 and falls
/// back to scalar with a warning when unsupported; anything else
/// throws). Tests and benches may re-pin the table with force().
namespace pcss::tensor::simd {

enum class Isa { kScalar, kAvx2 };

/// The dispatch table. Raw-pointer kernels only: no allocation, no
/// exceptions, no dependency on the tensor graph. `acc_*` kernels
/// accumulate into their first argument (backward rules); the rest
/// overwrite their output. Size/shape validation happens in the ops
/// layer before dispatch.
struct Kernels {
  const char* name;  ///< "scalar" or "avx2" (recorded in perf documents)
  Isa isa;

  // -- GEMM (row-major). Chain: C (or 0) + sum_p a*b, ascending p. ----------
  /// C[n,m] += A[n,k] * B[k,m].
  void (*gemm_nn)(const float* a, const float* b, float* c, std::int64_t n,
                  std::int64_t k, std::int64_t m);
  /// C[n,m] = A[n,k] * B[k,m] (overwrites C; chain starts at 0, which is
  /// bit-identical to accumulating into a zero-filled C).
  void (*gemm_nn_init)(const float* a, const float* b, float* c, std::int64_t n,
                       std::int64_t k, std::int64_t m);
  /// C[n,m] += A^T * B with A stored [k,n] (weight-gradient shape).
  void (*gemm_at_b)(const float* a, const float* b, float* c, std::int64_t k,
                    std::int64_t n, std::int64_t m);

  // -- Elementwise maps ------------------------------------------------------
  void (*ew_add)(const float* a, const float* b, float* y, std::size_t n);
  void (*ew_sub)(const float* a, const float* b, float* y, std::size_t n);
  void (*ew_mul)(const float* a, const float* b, float* y, std::size_t n);
  void (*ew_scale)(const float* a, float s, float* y, std::size_t n);
  void (*ew_add_scalar)(const float* a, float s, float* y, std::size_t n);
  void (*ew_square)(const float* a, float* y, std::size_t n);
  void (*ew_relu)(const float* a, float* y, std::size_t n);
  /// y = exp(a) for a <= 0 (or NaN): the in-source exp of the softmax
  /// kernels, not libm's (simd_kernels.inc). a below ln(2^-126) returns
  /// exp(ln(2^-126)) ~= 1.1755e-38; NaN returns NaN.
  void (*ew_exp_nonpos)(const float* a, float* y, std::size_t n);

  // -- Elementwise accumulators (backward rules; all do y[i] += ...) ---------
  void (*acc_add)(float* y, const float* g, std::size_t n);            ///< y += g
  void (*acc_scalar)(float* y, float s, std::size_t n);                ///< y += s
  void (*acc_axpy)(float* y, const float* x, float s, std::size_t n);  ///< y += s*x
  void (*acc_mul)(float* y, const float* g, const float* x, std::size_t n);  ///< y += g*x
  /// y += g * (ref > 0 ? 1 : 0)   (relu backward; ref = the relu input)
  void (*acc_relu_mask)(float* y, const float* g, const float* ref, std::size_t n);
  void (*acc_square_bw)(float* y, const float* g, const float* x, std::size_t n);
  void (*acc_tanh_bw)(float* y, const float* g, const float* t, std::size_t n);

  // -- Row-structured [n, c] -------------------------------------------------
  /// y[i,j] = x[i,j] + b[j]; y may alias x (in-place bias epilogue).
  void (*add_rowvec)(const float* x, const float* b, float* y, std::int64_t n,
                     std::int64_t c);
  /// acc[j] += sum_i x[i,j], ascending i per column (bias gradient).
  void (*acc_col_sum)(float* acc, const float* x, std::int64_t n, std::int64_t c);
  /// y[i,j] = x[i,j] * col[i].
  void (*mul_rows)(const float* x, const float* col, float* y, std::int64_t n,
                   std::int64_t c);

  // -- Reductions (fixed 8-lane accumulation order) --------------------------
  double (*reduce_sum_f64)(const float* a, std::size_t n);  ///< 8 double lanes
  float (*reduce_max)(const float* a, std::size_t n);       ///< n >= 1
  float (*dot)(const float* a, const float* b, std::size_t n);
  /// y[i] = 8-lane sum of row i of x[n,c].
  void (*row_sum)(const float* x, float* y, std::int64_t n, std::int64_t c);

  // -- Segment (neighbor-group) reductions -----------------------------------
  /// Max over each group of k rows per channel of x[n*k, c]:
  /// out[i,j] = max_r x[i*k+r, j], arg[i,j] = the first r attaining it
  /// (ascending scan, strict `>`: a NaN never replaces the running max).
  void (*segment_max)(const float* x, float* out, std::int64_t* arg, std::int64_t n,
                      std::int64_t k, std::int64_t c);

  // -- Softmax family --------------------------------------------------------
  /// Row-wise log-softmax of x[n,c] (8-lane max and denominator).
  void (*log_softmax_rows)(const float* x, float* y, std::int64_t n, std::int64_t c);
  /// dx[i,j] += g[i,j] - exp(logp[i,j]) * (8-lane sum_j g[i,j]).
  void (*acc_log_softmax_bw)(float* dx, const float* g, const float* logp,
                             std::int64_t n, std::int64_t c);
  /// Softmax across each group of k rows per channel (exp: ew_exp_nonpos).
  void (*segment_softmax)(const float* x, float* y, std::int64_t n_seg, std::int64_t k,
                          std::int64_t c);
  /// Backward of segment_softmax: dx += y * (g - sum_r g * y) per channel.
  void (*acc_segment_softmax_bw)(float* dx, const float* g, const float* y,
                                 std::int64_t n_seg, std::int64_t k, std::int64_t c);

  // -- Fused model blocks ----------------------------------------------------
  /// BatchNorm affine pass: xhat[i,j] = (x[i,j] - mean[j]) * inv_std[j],
  /// y[i,j] = gamma[j] * xhat[i,j] + beta[j] (xhat saved for backward).
  void (*bn_affine)(const float* x, const float* gamma, const float* beta,
                    const float* mean, const float* inv_std, float* y, float* xhat,
                    std::int64_t n, std::int64_t c);
  /// acc[j] += g[i,j] * x[i,j], ascending i per column (BN gamma grad).
  void (*acc_col_sum_mul)(float* acc, const float* g, const float* x,
                          std::int64_t n, std::int64_t c);
  /// dx[i,j] += g[i,j] * s0[j] * s1[j] (eval-mode BN input grad).
  void (*acc_scaled_rowvec)(float* dx, const float* g, const float* s0,
                            const float* s1, std::int64_t n, std::int64_t c);
  /// y[i,j] = relu(gamma[j] * (x[i,j] - mean[j]) * inv_std[j] + beta[j]).
  void (*bn_relu_eval)(const float* x, const float* gamma, const float* beta,
                       const float* mean, const float* inv_std, float* y,
                       std::int64_t n, std::int64_t c);
  /// Backward of bn_relu_eval; any of dx/dgamma/dbeta may be null.
  void (*acc_bn_relu_eval_bw)(float* dx, float* dgamma, float* dbeta, const float* g,
                              const float* y, const float* x, const float* gamma,
                              const float* mean, const float* inv_std, std::int64_t n,
                              std::int64_t c);
  /// Eval-mode EdgeConv aggregation over n groups of k edges, p and q
  /// [n, c]: edge (i, r) has y = (p[i] + q[idx[i*k+r]]) + bias (bias may be
  /// null: no add), v = relu(gamma * ((y - mean) * inv_std) + beta), and
  /// out[i,j] = max_r v, arg[i,j] = the first r attaining it (as a float),
  /// with segment_max's ascending strict-`>` scan. Every chain is
  /// edge_linear's, bn_relu_eval's and segment_max's.
  void (*edge_conv_max)(const float* p, const float* q, const float* bias,
                        const std::int64_t* idx, const float* gamma, const float* beta,
                        const float* mean, const float* inv_std, float* out, float* arg,
                        std::int64_t n, std::int64_t k, std::int64_t c);
  /// Attentive pooling of n groups of k rows of g, s [n*k, c]:
  /// att = segment_softmax(s), out[i,j] = 0 + sum_r g[i*k+r,j] * att[i*k+r,j]
  /// (r ascending). att [n*k, c] receives the weights, out is [n, c]. Every
  /// chain is segment_softmax's, ew_mul's and segment_sum's.
  void (*attentive_pool)(const float* g, const float* s, float* att, float* out,
                         std::int64_t n, std::int64_t k, std::int64_t c);
  /// Backward of attentive_pool from dout [n, c] and the saved att:
  /// dg += dout_i * att; ds += att * (dout_i * g - sum_r dout_i * g * att).
  /// Either of dg/ds may be null.
  void (*acc_attentive_pool_bw)(float* dg, float* ds, const float* dout, const float* g,
                                const float* att, std::int64_t n, std::int64_t k,
                                std::int64_t c);
};

/// True when this CPU can execute AVX2 instructions.
bool cpu_supports_avx2();

/// The always-available baseline table.
const Kernels& scalar_kernels();

/// The AVX2 table, or nullptr when the binary was built without AVX2
/// support or this CPU cannot execute it. Never touches AVX2 code when
/// it returns nullptr, so it is safe to call anywhere.
const Kernels* avx2_kernels();

/// Table for an explicit ISA (nullptr when unavailable).
const Kernels* kernels_for(Isa isa);

/// The table the tensor ops dispatch through. Resolved once on first
/// use: PCSS_SIMD env override ("scalar" | "avx2"), otherwise the best
/// ISA the CPU supports. Throws std::runtime_error on an unrecognized
/// PCSS_SIMD value.
const Kernels& active();

Isa active_isa();
const char* active_name();

/// Re-pins the active table (tests / benches that compare dispatch paths
/// in one process). Throws when the requested ISA is unavailable.
void force(Isa isa);

/// Pure resolution rule, exposed for unit tests: maps a PCSS_SIMD value
/// (null = unset) and CPU capability to the selected ISA. Throws
/// std::runtime_error on an unrecognized value.
Isa resolve_isa(const char* env_value, bool cpu_avx2);

}  // namespace pcss::tensor::simd
