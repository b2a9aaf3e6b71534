#include "pcss/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "pcss/obs/metrics.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"

// NodeArgs is passed with designated initializers; omitted fields are
// value-initialized per the standard, so the "missing initializer"
// diagnostic is noise here.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

// Each op is defined in one place, grouped by family: its forward rule
// (`*_fwd`), its backward rule (`*_bw`) and its builder sit together, and
// the OpDef table at the end of the file names the two rules of every Op.
//
// A forward rule writes the node's value buffer — and any value-dependent
// saved state such as argmax indices — from the parents' current data. The
// builder runs it through make_node and a plan replay runs it again per
// step (plan.h), so a replayed forward is the eager forward. Structural
// state (shapes, indices, masks, scalar parameters) is fixed when the node
// is built and only read by the rules; the builder validated it before
// make_node, so the rules read without bounds checks.
//
// A backward rule reads the node's grad plus inline/ctx state and
// accumulates into the gradient buffers grad_of hands out; expression
// shapes mirror the unfused compositions exactly so gradients stay
// bit-identical.

namespace pcss::tensor::ops {

namespace {

using detail::check;

/// Per-node op state passed to make_node. Scalars land in the TensorImpl's
/// inline slots; buffer-carrying ops attach a ctx.
struct NodeArgs {
  std::int64_t i0 = 0;
  float f0 = 0.0f;
  bool flag = false;
  std::unique_ptr<BackwardCtx> ctx;
};

/// Builds the result node around `data`: attaches parents and op state,
/// runs the op's forward rule when it has one, then records the op (and
/// the node in a plan capture) only if some input participates in
/// autograd. A predict-mode node drops its parents and ctx once its value
/// exists, so inference graphs hold nothing alive. Only batch_norm and
/// dropout call this directly, with a pre-filled `data`: their ops have
/// no forward rule (see OpDef::fwd).
Tensor build_node(Shape shape, FloatBuffer data, std::vector<TensorImplPtr> parents, Op op,
                  NodeArgs args) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->parents = std::move(parents);
  impl->op_i0 = args.i0;
  impl->op_f0 = args.f0;
  impl->op_flag = args.flag;
  impl->ctx = std::move(args.ctx);
  if (const Rule fwd = op_def(op).fwd) fwd(*impl);
  bool rg = false;
  for (const auto& p : impl->parents) {
    if (p && p->requires_grad) rg = true;
  }
  if (!rg) {
    impl->parents = std::vector<TensorImplPtr>();
    impl->ctx.reset();
    return Tensor(std::move(impl));
  }
  impl->requires_grad = true;
  impl->op = op;
  // Creation order is a valid topological order (parents exist before
  // children by construction), so the recording is the replay schedule.
  if (plan::detail::recording()) plan::detail::record_node(impl);
  return Tensor(std::move(impl));
}

/// Builds the result node of a validated op: its output comes from the
/// pool and the op's forward rule computes the value — the rule a plan
/// replay calls, so eager and replay share one forward.
Tensor make_node(Shape shape, std::vector<TensorImplPtr> parents, Op op, NodeArgs args = {}) {
  FloatBuffer out = pool::acquire(static_cast<size_t>(shape_numel(shape)));
  return build_node(std::move(shape), std::move(out), std::move(parents), op, std::move(args));
}

TensorImpl* parent(TensorImpl& node, size_t i) { return node.parents[i].get(); }

/// Parent i's gradient buffer, allocated (zero-filled, from the pool) on
/// first use, or null when the node has no parent i or it takes no
/// gradient. Backward rules accumulate only through this.
float* grad_of(TensorImpl& node, size_t i) {
  if (i >= node.parents.size() || !node.parents[i]->requires_grad) return nullptr;
  node.parents[i]->ensure_grad();
  return node.parents[i]->grad.data();
}

/// Telemetry only (lint rule D006 keeps obs out of document and cache
/// paths): GEMM call/FLOP counters for the metrics registry. Static refs
/// amortize the registry lookup to one per process; the per-call cost is
/// two relaxed atomic adds. No clock reads here — tensor stays inside
/// the D002 chrono ban; time attribution comes from the span tracer at
/// the attack-engine layer.
void note_gemm(std::int64_t n, std::int64_t k, std::int64_t m) {
  static obs::metrics::Counter& calls = obs::metrics::counter("tensor.gemm.calls");
  static obs::metrics::Counter& flops = obs::metrics::counter("tensor.gemm.flops");
  calls.add(1);
  flops.add(static_cast<std::uint64_t>(2 * n * k * m));
}

// GEMM entry points. The register-tiled kernels live in simd_kernels.inc
// and are reached through the runtime dispatch table (scalar or AVX2;
// bit-identical by the contract in simd.h). Every output element
// accumulates in ascending-p order in a single chain, independent of
// register blocking and ISA, so results are identical for any tile size,
// thread count and dispatch path.

/// C[n,k] += A[n,m] * B^T where B is [k,m]. B is packed (transposed) into
/// the caller's [m,k] scratch `bt`, turning the dot-product form into the
/// same vectorizable panel kernel as gemm_nn. The scratch is node-owned
/// (sized by the op's builder), so a replayed backward takes no pool buffer.
void gemm_a_bt(const float* __restrict a, const float* __restrict b, float* __restrict c,
               float* __restrict bt, std::int64_t n, std::int64_t m, std::int64_t k) {
  for (std::int64_t j = 0; j < k; ++j) {
    for (std::int64_t p = 0; p < m; ++p) bt[p * k + j] = b[j * m + p];
  }
  note_gemm(n, m, k);
  simd::active().gemm_nn(a, bt, c, n, m, k);
}

void check_matrix(const Tensor& t, const char* name) {
  check(t.defined() && t.rank() == 2, std::string(name) + ": expected rank-2 tensor");
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* name) {
  check(a.defined() && b.defined(), std::string(name) + ": undefined input");
  check(a.shape() == b.shape(), std::string(name) + ": shape mismatch " +
                                    shape_str(a.shape()) + " vs " + shape_str(b.shape()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise and scalar ops
// ---------------------------------------------------------------------------

static void add_fwd(TensorImpl& node) {
  simd::active().ew_add(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

static void add_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const size_t n = node.grad.size();
  if (float* da = grad_of(node, 0)) K.acc_add(da, node.grad.data(), n);
  if (float* db = grad_of(node, 1)) K.acc_add(db, node.grad.data(), n);
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  return make_node(a.shape(), {a.impl(), b.impl()}, Op::kAdd);
}

static void sub_fwd(TensorImpl& node) {
  simd::active().ew_sub(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

static void sub_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const size_t n = node.grad.size();
  if (float* da = grad_of(node, 0)) K.acc_add(da, node.grad.data(), n);
  if (float* db = grad_of(node, 1)) K.acc_axpy(db, node.grad.data(), -1.0f, n);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  return make_node(a.shape(), {a.impl(), b.impl()}, Op::kSub);
}

static void mul_fwd(TensorImpl& node) {
  simd::active().ew_mul(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

static void mul_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const size_t n = node.grad.size();
  const float* g = node.grad.data();
  if (float* da = grad_of(node, 0)) K.acc_mul(da, g, parent(node, 1)->data.data(), n);
  if (float* db = grad_of(node, 1)) K.acc_mul(db, g, parent(node, 0)->data.data(), n);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  return make_node(a.shape(), {a.impl(), b.impl()}, Op::kMul);
}

static void scale_fwd(TensorImpl& node) {
  simd::active().ew_scale(parent(node, 0)->data.data(), node.op_f0, node.data.data(),
                          node.data.size());
}

static void scale_bw(TensorImpl& node) {
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_axpy(da, node.grad.data(), node.op_f0, node.grad.size());
  }
}

Tensor scale(const Tensor& a, float s) {
  check(a.defined(), "scale: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kScale, {.f0 = s});
}

static void add_scalar_fwd(TensorImpl& node) {
  simd::active().ew_add_scalar(parent(node, 0)->data.data(), node.op_f0,
                               node.data.data(), node.data.size());
}

static void add_scalar_bw(TensorImpl& node) {
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_add(da, node.grad.data(), node.grad.size());
  }
}

Tensor add_scalar(const Tensor& a, float s) {
  check(a.defined(), "add_scalar: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kAddScalar, {.f0 = s});
}

static void add_rowvec_fwd(TensorImpl& node) {
  simd::active().add_rowvec(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                            node.data.data(), node.shape[0], node.shape[1]);
}

static void add_rowvec_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  if (float* dx = grad_of(node, 0)) K.acc_add(dx, node.grad.data(), node.grad.size());
  if (float* db = grad_of(node, 1)) {
    K.acc_col_sum(db, node.grad.data(), node.shape[0], node.shape[1]);
  }
}

Tensor add_rowvec(const Tensor& x, const Tensor& bias) {
  check_matrix(x, "add_rowvec");
  check(bias.defined() && bias.numel() == x.dim(1),
        "add_rowvec: bias size must equal column count");
  return make_node(x.shape(), {x.impl(), bias.impl()}, Op::kAddRowvec);
}

static void mul_rows_fwd(TensorImpl& node) {
  simd::active().mul_rows(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                          node.data.data(), node.shape[0], node.shape[1]);
}

/// Mirrors mul(x, matmul(col, ones_row)): dx first (the mul backward),
/// then the column gradient as an ascending-j dot per row (the matmul
/// backward's packed accumulation order).
static void mul_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const std::int64_t n = node.shape[0], c = node.shape[1];
  if (float* dx = grad_of(node, 0)) {
    const float* col = parent(node, 1)->data.data();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_axpy(dx + i * c, node.grad.data() + i * c, col[i], static_cast<size_t>(c));
    }
  }
  if (float* dcol = grad_of(node, 1)) {
    const float* xv = parent(node, 0)->data.data();
    // Sequential ascending-j dot, NOT the 8-lane kernel: mul_rows promises
    // bitwise identity with mul(x, matmul(col, ones_row)), whose column
    // gradient runs through the GEMM chain (one mul+add per j, ascending).
    for (std::int64_t i = 0; i < n; ++i) {
      float acc = 0.0f;
      const float* src = node.grad.data() + i * c;
      const float* xr = xv + i * c;
      for (std::int64_t j = 0; j < c; ++j) acc += src[j] * xr[j];
      dcol[i] += acc;
    }
  }
}

Tensor mul_rows(const Tensor& x, const Tensor& col) {
  check_matrix(x, "mul_rows");
  check(col.defined() && col.rank() == 2 && col.dim(1) == 1 && col.dim(0) == x.dim(0),
        "mul_rows: col must be [N, 1] with matching rows");
  return make_node(x.shape(), {x.impl(), col.impl()}, Op::kMulRows);
}

static void relu_fwd(TensorImpl& node) {
  simd::active().ew_relu(parent(node, 0)->data.data(), node.data.data(),
                         node.data.size());
}

static void relu_bw(TensorImpl& node) {
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_relu_mask(da, node.grad.data(), parent(node, 0)->data.data(),
                                 node.grad.size());
  }
}

Tensor relu(const Tensor& a) {
  check(a.defined(), "relu: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kRelu);
}

static void tanh_fwd(TensorImpl& node) {
  const float* pa = parent(node, 0)->data.data();
  for (size_t i = 0; i < node.data.size(); ++i) node.data[i] = std::tanh(pa[i]);
}

static void tanh_bw(TensorImpl& node) {
  // node.data is the node's own output; no saved copy.
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_tanh_bw(da, node.grad.data(), node.data.data(), node.grad.size());
  }
}

Tensor tanh_op(const Tensor& a) {
  check(a.defined(), "tanh: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kTanh);
}

static void square_fwd(TensorImpl& node) {
  simd::active().ew_square(parent(node, 0)->data.data(), node.data.data(),
                           node.data.size());
}

static void square_bw(TensorImpl& node) {
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_square_bw(da, node.grad.data(), parent(node, 0)->data.data(),
                                 node.grad.size());
  }
}

Tensor square(const Tensor& a) {
  check(a.defined(), "square: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kSquare);
}

static void sqrt_fwd(TensorImpl& node) {
  const float* pa = parent(node, 0)->data.data();
  const float eps = node.op_f0;
  for (size_t i = 0; i < node.data.size(); ++i) {
    node.data[i] = std::sqrt(std::max(pa[i] + eps, 0.0f));
  }
}

static void sqrt_bw(TensorImpl& node) {
  float* da = grad_of(node, 0);
  if (da == nullptr) return;
  for (size_t i = 0; i < node.grad.size(); ++i) {
    const float y = std::max(node.data[i], 1e-8f);
    da[i] += node.grad[i] * 0.5f / y;
  }
}

Tensor sqrt_op(const Tensor& a, float eps) {
  check(a.defined(), "sqrt_op: undefined input");
  return make_node(a.shape(), {a.impl()}, Op::kSqrt, {.f0 = eps});
}

// ---------------------------------------------------------------------------
// Reductions and linear algebra
// ---------------------------------------------------------------------------

static void sum_fwd(TensorImpl& node) {
  const FloatBuffer& a = parent(node, 0)->data;
  node.data[0] = static_cast<float>(simd::active().reduce_sum_f64(a.data(), a.size()));
}

static void sum_bw(TensorImpl& node) {
  if (float* da = grad_of(node, 0)) {
    simd::active().acc_scalar(da, node.grad[0], parent(node, 0)->grad.size());
  }
}

Tensor sum(const Tensor& a) {
  check(a.defined(), "sum: undefined input");
  return make_node({1}, {a.impl()}, Op::kSum);
}

static void row_sum_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  simd::active().row_sum(pa->data.data(), node.data.data(), pa->shape[0], pa->shape[1]);
}

static void row_sum_bw(TensorImpl& node) {
  float* da = grad_of(node, 0);
  if (da == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    K.acc_scalar(da + i * c, node.grad[i], static_cast<size_t>(c));
  }
}

Tensor row_sum(const Tensor& a) {
  check_matrix(a, "row_sum");
  return make_node({a.dim(0), 1}, {a.impl()}, Op::kRowSum);
}

/// The packed-transpose scratch of gemm_a_bt, which the backward of
/// a * b runs only when `a` needs a gradient: ctx.fbuf sized for b^T, or
/// no ctx at all.
static std::unique_ptr<BackwardCtx> transpose_scratch(const Tensor& a, const Tensor& b) {
  if (!a.requires_grad()) return nullptr;
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(b.numel()));
  return ctx;
}

static void matmul_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = pa->shape[0], k = pa->shape[1], m = pb->shape[1];
  note_gemm(n, k, m);
  simd::active().gemm_nn_init(pa->data.data(), pb->data.data(), node.data.data(), n, k, m);
}

static void matmul_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = pa->shape[0], k = pa->shape[1], m = pb->shape[1];
  // dA = dY * B^T
  if (float* da = grad_of(node, 0)) {
    gemm_a_bt(node.grad.data(), pb->data.data(), da, node.ctx->fbuf.data(), n, m, k);
  }
  // dB = A^T * dY
  if (float* db = grad_of(node, 1)) {
    simd::active().gemm_at_b(pa->data.data(), node.grad.data(), db, n, k, m);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul");
  check_matrix(b, "matmul");
  check(a.dim(1) == b.dim(0), "matmul: inner dimensions differ: " + shape_str(a.shape()) +
                                  " x " + shape_str(b.shape()));
  return make_node({a.dim(0), b.dim(1)}, {a.impl(), b.impl()}, Op::kMatmul,
                   {.ctx = transpose_scratch(a, b)});
}

static void linear_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pw = parent(node, 1);
  const std::int64_t n = px->shape[0], k = px->shape[1], m = pw->shape[1];
  note_gemm(n, k, m);
  K.gemm_nn_init(px->data.data(), pw->data.data(), node.data.data(), n, k, m);
  if (node.parents.size() > 2) {
    K.add_rowvec(node.data.data(), parent(node, 2)->data.data(), node.data.data(), n, m);
  }
}

static void linear_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pw = parent(node, 1);
  const std::int64_t n = px->shape[0], k = px->shape[1], m = pw->shape[1];
  if (float* dx = grad_of(node, 0)) {
    gemm_a_bt(node.grad.data(), pw->data.data(), dx, node.ctx->fbuf.data(), n, m, k);
  }
  if (float* dw = grad_of(node, 1)) {
    note_gemm(n, k, m);
    K.gemm_at_b(px->data.data(), node.grad.data(), dw, n, k, m);
  }
  if (float* db = grad_of(node, 2)) K.acc_col_sum(db, node.grad.data(), n, m);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  check_matrix(x, "linear");
  check_matrix(w, "linear");
  check(x.dim(1) == w.dim(0), "linear: inner dimensions differ: " + shape_str(x.shape()) +
                                  " x " + shape_str(w.shape()));
  std::vector<TensorImplPtr> parents{x.impl(), w.impl()};
  if (bias.defined()) {
    check(bias.numel() == w.dim(1), "linear: bias size must equal output width");
    parents.push_back(bias.impl());
  }
  return make_node({x.dim(0), w.dim(1)}, std::move(parents), Op::kLinear,
                   {.ctx = transpose_scratch(x, w)});
}

// ---------------------------------------------------------------------------
// Gather and structure
// ---------------------------------------------------------------------------

static void gather_rows_fwd(TensorImpl& node) {
  const float* px = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const auto& idx = node.ctx->ibuf;
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(px + idx[i] * c, c, node.data.data() + static_cast<std::int64_t>(i) * c);
  }
}

static void gather_rows_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t c = node.shape[1];
  const auto& id = node.ctx->ibuf;
  for (size_t i = 0; i < id.size(); ++i) {
    const float* src = node.grad.data() + static_cast<std::int64_t>(i) * c;
    K.acc_add(dx + id[i] * c, src, static_cast<size_t>(c));
  }
}

Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx) {
  check_matrix(x, "gather_rows");
  const std::int64_t n = x.dim(0);
  for (const std::int64_t i : idx) {
    if (i < 0 || i >= n) tensor_fail("gather_rows: index out of range");
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  return make_node({static_cast<std::int64_t>(idx.size()), x.dim(1)}, {x.impl()},
                   Op::kGatherRows, {.ctx = std::move(ctx)});
}

static void scatter_rows_fwd(TensorImpl& node) {
  // ctx.fbuf holds the fill template the builder saved.
  std::copy(node.ctx->fbuf.begin(), node.ctx->fbuf.end(), node.data.begin());
  const float* pr = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const auto& idx = node.ctx->ibuf;
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(pr + static_cast<std::int64_t>(i) * c, c, node.data.data() + idx[i] * c);
  }
}

static void scatter_rows_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t c = node.shape[1];
  const auto& id = node.ctx->ibuf;
  for (size_t i = 0; i < id.size(); ++i) {
    const float* src = node.grad.data() + id[i] * c;
    K.acc_add(dx + static_cast<std::int64_t>(i) * c, src, static_cast<size_t>(c));
  }
}

Tensor scatter_rows(const Tensor& rows, const std::vector<std::int64_t>& idx,
                    std::int64_t out_rows, const std::vector<float>& fill) {
  check_matrix(rows, "scatter_rows");
  const std::int64_t c = rows.dim(1);
  check(static_cast<std::int64_t>(idx.size()) == rows.dim(0),
        "scatter_rows: idx/rows size mismatch");
  check(static_cast<std::int64_t>(fill.size()) == out_rows * c,
        "scatter_rows: fill size must be out_rows * cols");
  std::vector<std::uint8_t> seen(static_cast<size_t>(out_rows), 0);
  for (const std::int64_t row : idx) {
    if (row < 0 || row >= out_rows) tensor_fail("scatter_rows: index out of range");
    // Duplicates would be last-write-wins forward but double-read in
    // backward — wrong gradients with no error — so the documented
    // distinct-index contract is enforced.
    if (seen[static_cast<size_t>(row)]) tensor_fail("scatter_rows: duplicate index");
    seen[static_cast<size_t>(row)] = 1;
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  // The fill template is part of the op's fixed state: the forward copies
  // it before scattering, so it is saved alongside the indices.
  ctx->fbuf = pool::acquire(fill.size());
  std::copy(fill.begin(), fill.end(), ctx->fbuf.begin());
  return make_node({out_rows, c}, {rows.impl()}, Op::kScatterRows, {.ctx = std::move(ctx)});
}

static void weighted_gather_rows_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const float* px = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const std::int64_t k_per_row = node.op_i0;
  const auto& idx = node.ctx->ibuf;
  const auto& w = node.ctx->fbuf;
  const std::int64_t nout = static_cast<std::int64_t>(idx.size()) / k_per_row;
  std::fill(node.data.begin(), node.data.end(), 0.0f);
  for (std::int64_t i = 0; i < nout; ++i) {
    float* dst = node.data.data() + i * c;
    for (std::int64_t k = 0; k < k_per_row; ++k) {
      K.acc_axpy(dst, px + idx[static_cast<size_t>(i * k_per_row + k)] * c,
                 w[static_cast<size_t>(i * k_per_row + k)], static_cast<size_t>(c));
    }
  }
}

static void weighted_gather_rows_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t c = node.shape[1];
  const std::int64_t k_per_row = node.op_i0;
  const auto& id = node.ctx->ibuf;
  const auto& w = node.ctx->fbuf;
  const std::int64_t nout = static_cast<std::int64_t>(id.size()) / k_per_row;
  for (std::int64_t i = 0; i < nout; ++i) {
    const float* src = node.grad.data() + i * c;
    for (std::int64_t k = 0; k < k_per_row; ++k) {
      float* dst = dx + id[static_cast<size_t>(i * k_per_row + k)] * c;
      const float wk = w[static_cast<size_t>(i * k_per_row + k)];
      K.acc_axpy(dst, src, wk, static_cast<size_t>(c));
    }
  }
}

Tensor weighted_gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx,
                            const std::vector<float>& weights, std::int64_t k_per_row) {
  check_matrix(x, "weighted_gather_rows");
  check(idx.size() == weights.size(), "weighted_gather_rows: idx/weights size mismatch");
  check(k_per_row > 0 && idx.size() % static_cast<size_t>(k_per_row) == 0,
        "weighted_gather_rows: idx size must be a multiple of k_per_row");
  const std::int64_t nsrc = x.dim(0);
  for (const std::int64_t src_row : idx) {
    if (src_row < 0 || src_row >= nsrc) {
      tensor_fail("weighted_gather_rows: index out of range");
    }
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  ctx->fbuf = pool::acquire(weights.size());
  std::copy(weights.begin(), weights.end(), ctx->fbuf.begin());
  const std::int64_t nout = static_cast<std::int64_t>(idx.size()) / k_per_row;
  return make_node({nout, x.dim(1)}, {x.impl()}, Op::kWeightedGatherRows,
                   {.i0 = k_per_row, .ctx = std::move(ctx)});
}

static void gather_sub_rows_fwd(TensorImpl& node) {
  const std::int64_t k = node.op_i0;
  const std::int64_t c = node.shape[1];
  const std::int64_t nout = node.shape[0] / k;
  const auto& idx = node.ctx->ibuf;  // [idx_a (nout*k) | idx_b (nout)]
  const std::int64_t* idx_a = idx.data();
  const std::int64_t* idx_b = idx.data() + nout * k;
  const float* px = parent(node, 0)->data.data();
  for (std::int64_t i = 0; i < nout; ++i) {
    const float* xb = px + idx_b[i] * c;
    for (std::int64_t r = 0; r < k; ++r) {
      const float* xa = px + idx_a[i * k + r] * c;
      float* row = node.data.data() + (i * k + r) * c;
      for (std::int64_t t = 0; t < c; ++t) row[t] = xa[t] - xb[t];
    }
  }
}

/// Mirrors sub(gather(x, idx_a), repeat(gather(x, idx_b), k)): the
/// repeat-then-gather path accumulates per-group sums first, then the
/// direct gather scatters, matching the unfused reverse-topo order.
static void gather_sub_rows_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const std::int64_t k = node.op_i0;
  const std::int64_t c = node.shape[1];
  const std::int64_t nout = node.shape[0] / k;
  const auto& idx = node.ctx->ibuf;  // [idx_a (nout*k) | idx_b (nout)]
  const std::int64_t* idx_a = idx.data();
  const std::int64_t* idx_b = idx.data() + nout * k;
  const float* dy = node.grad.data();
  const simd::Kernels& K = simd::active();
  FloatBuffer acc = pool::acquire(static_cast<size_t>(c));
  for (std::int64_t i = 0; i < nout; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_axpy(acc.data(), dy + (i * k + r) * c, -1.0f, static_cast<size_t>(c));
    }
    K.acc_add(dx + idx_b[i] * c, acc.data(), static_cast<size_t>(c));
  }
  for (std::int64_t r = 0; r < nout * k; ++r) {
    K.acc_add(dx + idx_a[r] * c, dy + r * c, static_cast<size_t>(c));
  }
  pool::release(std::move(acc));
}

Tensor gather_sub_rows(const Tensor& x, const std::vector<std::int64_t>& idx_a,
                       const std::vector<std::int64_t>& idx_b, std::int64_t k) {
  check_matrix(x, "gather_sub_rows");
  check(k > 0 && idx_a.size() == idx_b.size() * static_cast<size_t>(k),
        "gather_sub_rows: idx_a must have k entries per idx_b entry");
  const std::int64_t n = x.dim(0);
  for (const std::int64_t b : idx_b) {
    if (b < 0 || b >= n) tensor_fail("gather_sub_rows: center index out of range");
  }
  for (const std::int64_t a : idx_a) {
    if (a < 0 || a >= n) tensor_fail("gather_sub_rows: neighbor index out of range");
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.reserve(idx_a.size() + idx_b.size());
  ctx->ibuf.insert(ctx->ibuf.end(), idx_a.begin(), idx_a.end());
  ctx->ibuf.insert(ctx->ibuf.end(), idx_b.begin(), idx_b.end());
  return make_node({static_cast<std::int64_t>(idx_a.size()), x.dim(1)}, {x.impl()},
                   Op::kGatherSubRows, {.i0 = k, .ctx = std::move(ctx)});
}

static void repeat_rows_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t k = node.op_i0;
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const float* src = px->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      std::copy_n(src + i * c, c, node.data.data() + (i * k + r) * c);
    }
  }
}

static void repeat_rows_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      const float* src = node.grad.data() + (i * k + r) * c;
      K.acc_add(dx + i * c, src, static_cast<size_t>(c));
    }
  }
}

Tensor repeat_rows(const Tensor& x, std::int64_t k) {
  check_matrix(x, "repeat_rows");
  check(k > 0, "repeat_rows: k must be positive");
  return make_node({x.dim(0) * k, x.dim(1)}, {x.impl()}, Op::kRepeatRows, {.i0 = k});
}

static void concat_cols_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = node.shape[0];
  const std::int64_t ca = pa->shape[1], cb = pb->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(pa->data.data() + i * ca, ca, node.data.data() + i * (ca + cb));
    std::copy_n(pb->data.data() + i * cb, cb, node.data.data() + i * (ca + cb) + ca);
  }
}

static void concat_cols_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const std::int64_t n = node.shape[0];
  const std::int64_t ca = parent(node, 0)->shape[1], cb = parent(node, 1)->shape[1];
  if (float* da = grad_of(node, 0)) {
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(da + i * ca, node.grad.data() + i * (ca + cb), static_cast<size_t>(ca));
    }
  }
  if (float* db = grad_of(node, 1)) {
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(db + i * cb, node.grad.data() + i * (ca + cb) + ca, static_cast<size_t>(cb));
    }
  }
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  check_matrix(a, "concat_cols");
  check_matrix(b, "concat_cols");
  check(a.dim(0) == b.dim(0), "concat_cols: row counts differ");
  return make_node({a.dim(0), a.dim(1) + b.dim(1)}, {a.impl(), b.impl()}, Op::kConcatCols);
}

static void concat_cols4_fwd(TensorImpl& node) {
  const std::int64_t n = node.shape[0];
  const std::int64_t total = node.shape[1];
  std::int64_t offset = 0;
  for (size_t s = 0; s < 4; ++s) {
    TensorImpl* p = parent(node, s);
    const std::int64_t w = p->shape[1];
    for (std::int64_t i = 0; i < n; ++i) {
      std::copy_n(p->data.data() + i * w, w, node.data.data() + i * total + offset);
    }
    offset += w;
  }
}

/// Mirrors concat(concat(a, b), concat(c, d)): the unfused reverse-topo
/// walk splits the right pair before the left one.
static void concat_cols4_bw(TensorImpl& node) {
  const std::int64_t n = node.shape[0];
  std::int64_t width[4];
  std::int64_t offset[4];
  std::int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    width[s] = parent(node, static_cast<size_t>(s))->shape[1];
    offset[s] = total;
    total += width[s];
  }
  const simd::Kernels& K = simd::active();
  for (int s : {2, 3, 0, 1}) {
    float* d = grad_of(node, static_cast<size_t>(s));
    if (d == nullptr) continue;
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(d + i * width[s], node.grad.data() + i * total + offset[s],
                static_cast<size_t>(width[s]));
    }
  }
}

Tensor concat_cols4(const Tensor& a, const Tensor& b, const Tensor& c, const Tensor& d) {
  std::int64_t total = 0;
  for (const Tensor* t : {&a, &b, &c, &d}) {
    check_matrix(*t, "concat_cols4");
    check(t->dim(0) == a.dim(0), "concat_cols4: row counts differ");
    total += t->dim(1);
  }
  return make_node({a.dim(0), total}, {a.impl(), b.impl(), c.impl(), d.impl()},
                   Op::kConcatCols4);
}

static void slice_cols_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t c0 = node.op_i0;
  const std::int64_t n = node.shape[0], w = node.shape[1], c = px->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(px->data.data() + i * c + c0, w, node.data.data() + i * w);
  }
}

static void slice_cols_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t c0 = node.op_i0;
  const std::int64_t n = node.shape[0], w = node.shape[1], c = parent(node, 0)->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    K.acc_add(dx + i * c + c0, node.grad.data() + i * w, static_cast<size_t>(w));
  }
}

Tensor slice_cols(const Tensor& x, std::int64_t c0, std::int64_t c1) {
  check_matrix(x, "slice_cols");
  check(0 <= c0 && c0 < c1 && c1 <= x.dim(1), "slice_cols: bad column range");
  return make_node({x.dim(0), c1 - c0}, {x.impl()}, Op::kSliceCols, {.i0 = c0});
}

static void scatter_add_cols_fwd(TensorImpl& node) {
  TensorImpl* pbase = parent(node, 0);
  TensorImpl* pdelta = parent(node, 1);
  const std::int64_t col0 = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1], d = pdelta->shape[1];
  std::copy_n(pbase->data.data(), n * c, node.data.data());
  const float* pd = pdelta->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) node.data[i * c + col0 + j] += pd[i * d + j];
  }
}

static void scatter_add_cols_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const std::int64_t col0 = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1], d = parent(node, 1)->shape[1];
  if (float* dbase = grad_of(node, 0)) K.acc_add(dbase, node.grad.data(), node.grad.size());
  if (float* ddelta = grad_of(node, 1)) {
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(ddelta + i * d, node.grad.data() + i * c + col0, static_cast<size_t>(d));
    }
  }
}

Tensor scatter_add_cols(const Tensor& base, const Tensor& delta, std::int64_t col0) {
  check_matrix(base, "scatter_add_cols");
  check_matrix(delta, "scatter_add_cols");
  check(base.dim(0) == delta.dim(0), "scatter_add_cols: row counts differ");
  check(col0 >= 0 && col0 + delta.dim(1) <= base.dim(1),
        "scatter_add_cols: delta columns exceed base");
  return make_node(base.shape(), {base.impl(), delta.impl()}, Op::kScatterAddCols,
                   {.i0 = col0});
}

// ---------------------------------------------------------------------------
// Segment (neighbor-group) reductions
// ---------------------------------------------------------------------------

static void check_segments(const Tensor& x, std::int64_t k, const char* name) {
  check_matrix(x, name);
  check(k > 0 && x.dim(0) % k == 0,
        std::string(name) + ": row count must be a multiple of k");
}

static void segment_max_fwd(TensorImpl& node) {
  // Value-dependent saved state: the argmax indices backward reads are
  // rewritten alongside the values.
  simd::active().segment_max(parent(node, 0)->data.data(), node.data.data(),
                             node.ctx->ibuf.data(), node.shape[0], node.op_i0,
                             node.shape[1]);
}

static void segment_max_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  const auto& arg = node.ctx->ibuf;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      const std::int64_t r = arg[static_cast<size_t>(i * c + j)];
      dx[(i * k + r) * c + j] += node.grad[i * c + j];
    }
  }
}

Tensor segment_max(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_max");
  const std::int64_t n = x.dim(0) / k, c = x.dim(1);
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.resize(static_cast<size_t>(n * c));
  return make_node({n, c}, {x.impl()}, Op::kSegmentMax, {.i0 = k, .ctx = std::move(ctx)});
}

static void segment_sum_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const float* px = parent(node, 0)->data.data();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  std::fill(node.data.begin(), node.data.end(), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_add(node.data.data() + i * c, px + (i * k + r) * c, static_cast<size_t>(c));
    }
  }
}

static void segment_sum_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const simd::Kernels& K = simd::active();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = node.grad.data() + i * c;
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_add(dx + (i * k + r) * c, src, static_cast<size_t>(c));
    }
  }
}

Tensor segment_sum(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_sum");
  return make_node({x.dim(0) / k, x.dim(1)}, {x.impl()}, Op::kSegmentSum, {.i0 = k});
}

static void segment_softmax_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t k = node.op_i0;
  simd::active().segment_softmax(px->data.data(), node.data.data(), px->shape[0] / k, k,
                                 px->shape[1]);
}

static void segment_softmax_bw(TensorImpl& node) {
  if (float* dx = grad_of(node, 0)) {
    TensorImpl* px = parent(node, 0);
    const std::int64_t k = node.op_i0;
    simd::active().acc_segment_softmax_bw(dx, node.grad.data(), node.data.data(),
                                          px->shape[0] / k, k, px->shape[1]);
  }
}

Tensor segment_softmax(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_softmax");
  return make_node(x.shape(), {x.impl()}, Op::kSegmentSoftmax, {.i0 = k});
}

static void attentive_pool_fwd(TensorImpl& node) {
  // The softmax weights are value-dependent saved state: rewritten into
  // ctx.fbuf on every forward, read by the backward.
  simd::active().attentive_pool(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                                node.ctx->fbuf.data(), node.data.data(), node.shape[0],
                                node.op_i0, node.shape[1]);
}

/// Backward of attentive_pool from the weights its forward saved in ctx.
static void attentive_pool_bw(TensorImpl& node) {
  float* dg = grad_of(node, 0);
  float* ds = grad_of(node, 1);
  simd::active().acc_attentive_pool_bw(dg, ds, node.grad.data(), parent(node, 0)->data.data(),
                                       node.ctx->fbuf.data(), node.shape[0], node.op_i0,
                                       node.shape[1]);
}

Tensor attentive_pool(const Tensor& g, const Tensor& s, std::int64_t k) {
  check_segments(g, k, "attentive_pool");
  check_same_shape(g, s, "attentive_pool");
  // ctx.fbuf holds the softmax weights [N*k, C], sized here.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(g.numel()));
  return make_node({g.dim(0) / k, g.dim(1)}, {g.impl(), s.impl()}, Op::kAttentivePool,
                   {.i0 = k, .ctx = std::move(ctx)});
}

// ---------------------------------------------------------------------------
// Normalization and regularization
// ---------------------------------------------------------------------------

/// Validation shared by bn_relu_eval and edge_conv_eval: affine parameters
/// and running statistics of width c.
static void check_bn_eval(const Tensor& gamma, const Tensor& beta,
                          const std::vector<float>& running_mean,
                          const std::vector<float>& running_var, std::int64_t c,
                          const std::string& name) {
  check(gamma.defined() && beta.defined() && gamma.numel() == c && beta.numel() == c,
        name + ": affine parameter size");
  check(static_cast<std::int64_t>(running_mean.size()) == c &&
            static_cast<std::int64_t>(running_var.size()) == c,
        name + ": running stats size");
}

/// Eval-mode BN's frozen per-channel statistics: mean[j] and, at
/// mean + c, inv_std[j] = 1 / sqrt(var[j] + eps).
static void bn_eval_stats(const std::vector<float>& running_mean,
                          const std::vector<float>& running_var, float eps, float* mean) {
  const size_t c = running_mean.size();
  for (size_t j = 0; j < c; ++j) {
    mean[j] = running_mean[j];
    mean[c + j] = 1.0f / std::sqrt(running_var[j] + eps);
  }
}

static void batch_norm_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const std::int64_t n = node.shape[0], c = node.shape[1];
  // ctx.fbuf layout: [xhat (n*c) | inv_std (c)].
  const float* xhat = node.ctx->fbuf.data();
  const float* inv_std = xhat + n * c;
  const float* gamma = parent(node, 1)->data.data();
  if (float* dgamma = grad_of(node, 1)) {
    K.acc_col_sum_mul(dgamma, node.grad.data(), xhat, n, c);
  }
  if (float* dbeta = grad_of(node, 2)) K.acc_col_sum(dbeta, node.grad.data(), n, c);
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  if (!node.op_flag) {  // eval mode
    K.acc_scaled_rowvec(dx, node.grad.data(), gamma, inv_std, n, c);
    return;
  }
  // Training mode: gradient through the batch statistics.
  const float invn = 1.0f / static_cast<float>(n);
  for (std::int64_t j = 0; j < c; ++j) {
    float sum_dy = 0.0f, sum_dy_xhat = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float dyg = node.grad[i * c + j] * gamma[j];
      sum_dy += dyg;
      sum_dy_xhat += dyg * xhat[i * c + j];
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const float dyg = node.grad[i * c + j] * gamma[j];
      dx[i * c + j] += inv_std[j] * (dyg - invn * sum_dy - xhat[i * c + j] * invn * sum_dy_xhat);
    }
  }
}

Tensor batch_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  std::vector<float>& running_mean, std::vector<float>& running_var,
                  bool training, float momentum, float eps) {
  check_matrix(x, "batch_norm");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  check(gamma.numel() == c && beta.numel() == c, "batch_norm: affine parameter size");
  check(static_cast<std::int64_t>(running_mean.size()) == c &&
            static_cast<std::int64_t>(running_var.size()) == c,
        "batch_norm: running stats size");
  const float* px = x.data();
  std::vector<float> mean_v(static_cast<size_t>(c)), inv_std(static_cast<size_t>(c));
  if (training) {
    for (std::int64_t j = 0; j < c; ++j) {
      double m = 0.0;
      for (std::int64_t i = 0; i < n; ++i) m += px[i * c + j];
      m /= static_cast<double>(n);
      double var = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const double d = px[i * c + j] - m;
        var += d * d;
      }
      var /= static_cast<double>(n);
      mean_v[j] = static_cast<float>(m);
      inv_std[j] = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      running_mean[j] = (1.0f - momentum) * running_mean[j] + momentum * static_cast<float>(m);
      running_var[j] = (1.0f - momentum) * running_var[j] + momentum * static_cast<float>(var);
    }
  } else {
    for (std::int64_t j = 0; j < c; ++j) {
      mean_v[j] = running_mean[j];
      inv_std[j] = 1.0f / std::sqrt(running_var[j] + eps);
    }
  }
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  // ctx.fbuf layout: [xhat (n*c) | inv_std (c)].
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(n * c + c));
  float* xhat = ctx->fbuf.data();
  simd::active().bn_affine(px, gamma.data(), beta.data(), mean_v.data(),
                           inv_std.data(), out.data(), xhat, n, c);
  std::copy_n(inv_std.data(), c, xhat + n * c);
  return build_node(x.shape(), std::move(out), {x.impl(), gamma.impl(), beta.impl()},
                    Op::kBatchNorm, {.flag = training, .ctx = std::move(ctx)});
}

static void bn_relu_eval_fwd(TensorImpl& node) {
  // Eval-mode running stats are frozen; the [mean | inv_std] pair the
  // builder cached in ctx.fbuf stays valid across replays.
  const std::int64_t c = node.shape[1];
  const float* mean = node.ctx->fbuf.data();
  const float* inv_std = mean + c;
  simd::active().bn_relu_eval(parent(node, 0)->data.data(),
                              parent(node, 1)->data.data(),
                              parent(node, 2)->data.data(), mean, inv_std,
                              node.data.data(), node.shape[0], c);
}

/// Mirrors the unfused relu(bn_eval(x)) chain: relu masks first, then the
/// eval-mode affine pulls dy through gamma * inv_std in the same
/// multiplication order. ctx.fbuf layout: [mean (c) | inv_std (c)].
static void bn_relu_eval_bw(TensorImpl& node) {
  const std::int64_t n = node.shape[0], c = node.shape[1];
  const float* mean = node.ctx->fbuf.data();
  const float* inv_std = mean + c;
  float* dgamma = grad_of(node, 1);
  float* dbeta = grad_of(node, 2);
  float* dx = grad_of(node, 0);
  simd::active().acc_bn_relu_eval_bw(dx, dgamma, dbeta, node.grad.data(),
                                     node.data.data(), parent(node, 0)->data.data(),
                                     parent(node, 1)->data.data(), mean, inv_std, n, c);
}

Tensor bn_relu_eval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    const std::vector<float>& running_mean,
                    const std::vector<float>& running_var, float eps) {
  check_matrix(x, "bn_relu_eval");
  const std::int64_t c = x.dim(1);
  check_bn_eval(gamma, beta, running_mean, running_var, c, "bn_relu_eval");
  // ctx.fbuf layout: [mean (c) | inv_std (c)].
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(2 * c));
  bn_eval_stats(running_mean, running_var, eps, ctx->fbuf.data());
  return make_node(x.shape(), {x.impl(), gamma.impl(), beta.impl()}, Op::kBnReluEval,
                   {.ctx = std::move(ctx)});
}

static void dropout_bw(TensorImpl& node) {
  if (float* dx = grad_of(node, 0)) {
    simd::active().acc_mul(dx, node.grad.data(), node.ctx->fbuf.data(), node.grad.size());
  }
}

Tensor dropout(const Tensor& x, float p, Rng& rng, bool training) {
  check(x.defined(), "dropout: undefined input");
  check(p >= 0.0f && p < 1.0f, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0f) {
    // Identity: return the input handle itself. Gradients flow to x
    // unchanged, and the attack hot path (always eval mode) skips a full
    // copy plus a graph node per forward.
    return x;
  }
  const float keep = 1.0f - p;
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(x.numel()));
  FloatBuffer out = pool::acquire(static_cast<size_t>(x.numel()));
  const float* px = x.data();
  for (size_t i = 0; i < out.size(); ++i) {
    const float m = rng.uniform() < p ? 0.0f : 1.0f / keep;
    ctx->fbuf[i] = m;
    out[i] = px[i] * m;
  }
  return build_node(x.shape(), std::move(out), {x.impl()}, Op::kDropout,
                    {.ctx = std::move(ctx)});
}

// ---------------------------------------------------------------------------
// Fused edge ops
// ---------------------------------------------------------------------------

/// Validation shared by edge_linear and edge_conv_eval: h [N, C],
/// w [2C, M], N*k neighbor indices in [0, N), bias [M] or undefined.
static void check_edge_linear(const Tensor& h, const Tensor& w, const Tensor& bias,
                              const std::vector<std::int64_t>& idx, std::int64_t k,
                              const std::string& name) {
  check_matrix(h, name.c_str());
  check_matrix(w, name.c_str());
  const std::int64_t n = h.dim(0);
  check(w.dim(0) == 2 * h.dim(1), name + ": weight must be [2C, M] for h [N, C]");
  check(k > 0 && static_cast<std::int64_t>(idx.size()) == n * k,
        name + ": idx must have N*k entries");
  for (const std::int64_t j : idx) {
    if (j < 0 || j >= n) tensor_fail(name + ": index out of range");
  }
  check(!bias.defined() || bias.numel() == w.dim(1),
        name + ": bias size must equal output width");
}

/// The point-row half of edge_linear's forward, shared with
/// edge_conv_eval: w_d = w_a - w_b, P = h * w_d and Q = h * w_b into the
/// node's scratch, laid out [w_d (c*m) | w_d^T (m*c) | w_b^T (m*c) |
/// P (n*m) | Q (n*m)] (the transposes are the backward's). w_d is
/// recomputed from the live weights on every forward, so a replay after a
/// weight update stays exact.
static void edge_products(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* ph = parent(node, 0);
  const std::int64_t n = ph->shape[0], c = ph->shape[1], m = node.shape[1];
  const float* h = ph->data.data();
  const float* wa = parent(node, 1)->data.data();
  const float* wb = wa + c * m;
  float* wd = node.ctx->fbuf.data();
  float* p = wd + 3 * c * m;
  K.ew_sub(wa, wb, wd, static_cast<size_t>(c * m));
  note_gemm(n, c, m);
  K.gemm_nn_init(h, wd, p, n, c, m);
  note_gemm(n, c, m);
  K.gemm_nn_init(h, wb, p + n * m, n, c, m);
}

/// The GEMM half of edge_linear's backward, shared with edge_conv_eval:
/// with dP and dQ in the P/Q scratch, dh += dP * w_d^T + dQ * w_b^T
/// through packed transposes, dw_a += h^T * dP and dw_b += h^T * (dQ - dP).
/// Scratch layout as in edge_products.
static void edge_products_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* ph = parent(node, 0);
  const std::int64_t n = ph->shape[0], c = ph->shape[1], m = node.shape[1];
  const float* wd = node.ctx->fbuf.data();
  float* wdt = node.ctx->fbuf.data() + c * m;
  float* wbt = wdt + m * c;
  float* dp = wbt + m * c;
  float* dq = dp + n * m;
  const float* h = ph->data.data();
  const float* wb = parent(node, 1)->data.data() + c * m;
  if (float* dh = grad_of(node, 0)) {
    for (std::int64_t r = 0; r < c; ++r) {
      for (std::int64_t t = 0; t < m; ++t) {
        wdt[t * c + r] = wd[r * m + t];
        wbt[t * c + r] = wb[r * m + t];
      }
    }
    note_gemm(n, m, c);
    K.gemm_nn(dp, wdt, dh, n, m, c);
    note_gemm(n, m, c);
    K.gemm_nn(dq, wbt, dh, n, m, c);
  }
  if (float* dw = grad_of(node, 1)) {
    note_gemm(n, c, m);
    K.gemm_at_b(h, dp, dw, n, c, m);
    K.acc_axpy(dq, dp, -1.0f, static_cast<size_t>(n * m));
    note_gemm(n, c, m);
    K.gemm_at_b(h, dq, dw + c * m, n, c, m);
  }
}

static void edge_linear_fwd(TensorImpl& node) {
  edge_products(node);
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  const std::int64_t m = node.shape[1];
  const std::int64_t k = node.op_i0;
  const float* p = node.ctx->fbuf.data() + 3 * c * m;
  const float* q = p + n * m;
  const std::int64_t* idx = node.ctx->ibuf.data();
  float* y = node.data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* pi = p + i * m;
    for (std::int64_t r = 0; r < k; ++r) {
      const float* qj = q + idx[i * k + r] * m;
      float* row = y + (i * k + r) * m;
      for (std::int64_t t = 0; t < m; ++t) row[t] = pi[t] + qj[t];
    }
  }
  if (node.parents.size() > 2) {
    simd::active().add_rowvec(y, parent(node, 2)->data.data(), y, n * k, m);
  }
}

/// Backward of edge_linear: dP (per-center sum of dy over its k rows) and
/// dQ (dy scatter-added by idx) go into the forward's P/Q scratch, db is
/// the column sum of dy, and edge_products_bw does the rest.
static void edge_linear_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  const std::int64_t m = node.shape[1];
  const std::int64_t k = node.op_i0;
  const float* dy = node.grad.data();
  if (float* db = grad_of(node, 2)) K.acc_col_sum(db, dy, n * k, m);
  if (!parent(node, 0)->requires_grad && !parent(node, 1)->requires_grad) return;
  float* dp = node.ctx->fbuf.data() + 3 * c * m;
  float* dq = dp + n * m;
  const std::int64_t* idx = node.ctx->ibuf.data();
  std::fill(dp, dp + 2 * n * m, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      const float* g = dy + (i * k + r) * m;
      K.acc_add(dp + i * m, g, static_cast<size_t>(m));
      K.acc_add(dq + idx[i * k + r] * m, g, static_cast<size_t>(m));
    }
  }
  edge_products_bw(node);
}

Tensor edge_linear(const Tensor& h, const Tensor& w, const Tensor& bias,
                   const std::vector<std::int64_t>& idx, std::int64_t k) {
  check_edge_linear(h, w, bias, idx, k, "edge_linear");
  const std::int64_t n = h.dim(0), c = h.dim(1), m = w.dim(1);
  std::vector<TensorImplPtr> parents{h.impl(), w.impl()};
  if (bias.defined()) parents.push_back(bias.impl());
  // Scratch sized here, so a replay takes no pool buffers; layout as in
  // edge_products.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  ctx->fbuf = pool::acquire(static_cast<size_t>(3 * c * m + 2 * n * m));
  return make_node({n * k, m}, std::move(parents), Op::kEdgeLinear,
                   {.i0 = k, .ctx = std::move(ctx)});
}

static void edge_conv_eval_fwd(TensorImpl& node) {
  // The argmax is value-dependent saved state, rewritten alongside the
  // values; mean and inv_std are frozen (eval-mode BN), cached at build.
  edge_products(node);
  const std::int64_t n = node.shape[0], c = parent(node, 0)->shape[1];
  const std::int64_t m = node.shape[1];
  float* p = node.ctx->fbuf.data() + 3 * c * m;
  float* q = p + n * m;
  float* arg = q + n * m;
  const float* mean = arg + n * m;
  const float* bias = node.parents.size() > 4 ? parent(node, 4)->data.data() : nullptr;
  simd::active().edge_conv_max(p, q, bias, node.ctx->ibuf.data(), parent(node, 2)->data.data(),
                               parent(node, 3)->data.data(), mean, mean + m,
                               node.data.data(), arg, n, node.op_i0, m);
}

/// Backward of edge_conv_eval. Only the argmax edge of an (i, t) with
/// out > 0 carries a gradient: along every other edge the chain it fuses
/// (segment_max, bn_relu_eval and edge_linear backwards) adds exact zeros
/// to every sum, which leaves the sum unchanged. So dgamma and dbeta take
/// that edge's bn_relu_eval terms, reading y = (P[i] + Q[j]) + b back from
/// the scratch; then d = (g * gamma) * inv_std goes to dP[i] and to
/// dQ[j] in the chain's (i, r) order (overwriting P and Q), db is dP's
/// column sum, and edge_products_bw does the rest. ctx.fbuf layout:
/// [edge_products' (3*c*m + 2*n*m) | arg (n*m) | mean (m) | inv_std (m)].
static void edge_conv_eval_bw(TensorImpl& node) {
  const std::int64_t n = node.shape[0], c = parent(node, 0)->shape[1], m = node.shape[1];
  const std::int64_t k = node.op_i0;
  float* p = node.ctx->fbuf.data() + 3 * c * m;
  float* q = p + n * m;
  const float* arg = q + n * m;
  const float* mean = arg + n * m;
  const float* inv_std = mean + m;
  const std::int64_t* idx = node.ctx->ibuf.data();
  const float* out = node.data.data();
  const float* g = node.grad.data();
  const float* gamma = parent(node, 2)->data.data();
  // The neighbor row of (i, t)'s argmax edge.
  auto source = [&](std::int64_t i, std::int64_t t) {
    return idx[i * k + static_cast<std::int64_t>(arg[i * m + t])];
  };
  float* dgamma = grad_of(node, 2);
  float* dbeta = grad_of(node, 3);
  if (dgamma != nullptr || dbeta != nullptr) {
    const float* bias = node.parents.size() > 4 ? parent(node, 4)->data.data() : nullptr;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t t = 0; t < m; ++t) {
        const std::int64_t e = i * m + t;
        if (!(out[e] > 0.0f)) continue;
        float y = p[e] + q[source(i, t) * m + t];
        if (bias != nullptr) y = y + bias[t];
        if (dgamma != nullptr) dgamma[t] += g[e] * ((y - mean[t]) * inv_std[t]);
        if (dbeta != nullptr) dbeta[t] += g[e];
      }
    }
  }
  float* dbias = grad_of(node, 4);
  if (!parent(node, 0)->requires_grad && !parent(node, 1)->requires_grad && dbias == nullptr) {
    return;
  }
  std::fill(p, p + 2 * n * m, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t t = 0; t < m; ++t) {
      const std::int64_t e = i * m + t;
      if (!(out[e] > 0.0f)) continue;
      const float d = (g[e] * gamma[t]) * inv_std[t];
      p[e] += d;
      q[source(i, t) * m + t] += d;
    }
  }
  if (dbias != nullptr) simd::active().acc_col_sum(dbias, p, n, m);
  edge_products_bw(node);
}

Tensor edge_conv_eval(const Tensor& h, const Tensor& w, const Tensor& bias,
                      const Tensor& gamma, const Tensor& beta,
                      const std::vector<float>& running_mean,
                      const std::vector<float>& running_var,
                      const std::vector<std::int64_t>& idx, std::int64_t k, float eps) {
  check_edge_linear(h, w, bias, idx, k, "edge_conv_eval");
  const std::int64_t n = h.dim(0), c = h.dim(1), m = w.dim(1);
  check_bn_eval(gamma, beta, running_mean, running_var, m, "edge_conv_eval");
  // The argmax r is saved as a float, exact up to 2^24.
  check(k <= (std::int64_t{1} << 24), "edge_conv_eval: k must be at most 2^24");
  std::vector<TensorImplPtr> parents{h.impl(), w.impl(), gamma.impl(), beta.impl()};
  if (bias.defined()) parents.push_back(bias.impl());
  // Scratch sized here, so a replay takes no pool buffers; layout as in
  // edge_conv_eval_bw.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  ctx->fbuf = pool::acquire(static_cast<size_t>(3 * c * m + 3 * n * m + 2 * m));
  bn_eval_stats(running_mean, running_var, eps,
                ctx->fbuf.data() + 3 * c * m + 3 * n * m);
  return make_node({n, m}, std::move(parents), Op::kEdgeConvEval,
                   {.i0 = k, .ctx = std::move(ctx)});
}

static void neighbor_linear_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* ph = parent(node, 1);
  const std::int64_t e = px->shape[0], cx = px->shape[1];
  const std::int64_t nh = ph->shape[0], ch = ph->shape[1], m = node.shape[1];
  const float* w = parent(node, 2)->data.data();
  float* q = node.ctx->fbuf.data() + m * (cx + ch);
  float* y = node.data.data();
  note_gemm(e, cx, m);
  K.gemm_nn_init(px->data.data(), w, y, e, cx, m);
  note_gemm(nh, ch, m);
  K.gemm_nn_init(ph->data.data(), w + cx * m, q, nh, ch, m);
  const std::int64_t* idx = node.ctx->ibuf.data();
  for (std::int64_t r = 0; r < e; ++r) {
    K.acc_add(y + r * m, q + idx[r] * m, static_cast<size_t>(m));
  }
  if (node.parents.size() > 3) {
    K.add_rowvec(y, parent(node, 3)->data.data(), y, e, m);
  }
}

/// Backward of neighbor_linear, with w = [w_x; w_h]: dx += dy * w_x^T,
/// dQ = dy scatter-added by idx (into the forward's Q scratch), dh +=
/// dQ * w_h^T, dw_x += x^T * dy, dw_h += h^T * dQ, db = column sum of dy.
/// ctx.fbuf layout: [w_x^T (m*cx) | w_h^T (m*ch) | Q (nh*m)].
static void neighbor_linear_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* ph = parent(node, 1);
  const std::int64_t e = px->shape[0], cx = px->shape[1];
  const std::int64_t nh = ph->shape[0], ch = ph->shape[1], m = node.shape[1];
  const float* dy = node.grad.data();
  if (float* db = grad_of(node, 3)) K.acc_col_sum(db, dy, e, m);
  float* wxt = node.ctx->fbuf.data();
  float* wht = wxt + m * cx;
  float* dq = wht + m * ch;
  const float* w = parent(node, 2)->data.data();
  if (float* dx = grad_of(node, 0)) {
    for (std::int64_t r = 0; r < cx; ++r) {
      for (std::int64_t t = 0; t < m; ++t) wxt[t * cx + r] = w[r * m + t];
    }
    note_gemm(e, m, cx);
    K.gemm_nn(dy, wxt, dx, e, m, cx);
  }
  float* dw = grad_of(node, 2);
  if (dw != nullptr) {
    note_gemm(e, cx, m);
    K.gemm_at_b(px->data.data(), dy, dw, e, cx, m);
  }
  float* dh = grad_of(node, 1);
  if (dh == nullptr && dw == nullptr) return;
  const std::int64_t* idx = node.ctx->ibuf.data();
  std::fill(dq, dq + nh * m, 0.0f);
  for (std::int64_t r = 0; r < e; ++r) {
    K.acc_add(dq + idx[r] * m, dy + r * m, static_cast<size_t>(m));
  }
  if (dh != nullptr) {
    const float* wh = w + cx * m;
    for (std::int64_t r = 0; r < ch; ++r) {
      for (std::int64_t t = 0; t < m; ++t) wht[t * ch + r] = wh[r * m + t];
    }
    note_gemm(nh, m, ch);
    K.gemm_nn(dq, wht, dh, nh, m, ch);
  }
  if (dw != nullptr) {
    note_gemm(nh, ch, m);
    K.gemm_at_b(ph->data.data(), dq, dw + cx * m, nh, ch, m);
  }
}

Tensor neighbor_linear(const Tensor& x, const Tensor& h, const Tensor& w, const Tensor& bias,
                       const std::vector<std::int64_t>& idx) {
  check_matrix(x, "neighbor_linear");
  check_matrix(h, "neighbor_linear");
  check_matrix(w, "neighbor_linear");
  const std::int64_t e = x.dim(0), cx = x.dim(1);
  const std::int64_t nh = h.dim(0), ch = h.dim(1), m = w.dim(1);
  check(w.dim(0) == cx + ch,
        "neighbor_linear: weight must be [Cx + Ch, M] for x [E, Cx] and h [N, Ch]");
  check(static_cast<std::int64_t>(idx.size()) == e,
        "neighbor_linear: idx must have one entry per row of x");
  for (const std::int64_t j : idx) {
    if (j < 0 || j >= nh) tensor_fail("neighbor_linear: index out of range");
  }
  std::vector<TensorImplPtr> parents{x.impl(), h.impl(), w.impl()};
  if (bias.defined()) {
    check(bias.numel() == m, "neighbor_linear: bias size must equal output width");
    parents.push_back(bias.impl());
  }
  // Scratch sized here, so a replay takes no pool buffers; layout as in
  // neighbor_linear_bw.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  ctx->fbuf = pool::acquire(static_cast<size_t>(m * (cx + ch) + nh * m));
  return make_node({e, m}, std::move(parents), Op::kNeighborLinear, {.ctx = std::move(ctx)});
}

// ---------------------------------------------------------------------------
// Probabilistic heads and losses
// ---------------------------------------------------------------------------

static void log_softmax_rows_fwd(TensorImpl& node) {
  simd::active().log_softmax_rows(parent(node, 0)->data.data(), node.data.data(),
                                  node.shape[0], node.shape[1]);
}

static void log_softmax_rows_bw(TensorImpl& node) {
  if (float* dx = grad_of(node, 0)) {
    simd::active().acc_log_softmax_bw(dx, node.grad.data(), node.data.data(), node.shape[0],
                                      node.shape[1]);
  }
}

Tensor log_softmax_rows(const Tensor& x) {
  check_matrix(x, "log_softmax_rows");
  return make_node(x.shape(), {x.impl()}, Op::kLogSoftmaxRows);
}

/// Shared label/mask validation of the two per-row loss ops: sizes match,
/// and every selected row's label names a class. Returns the number of
/// selected rows.
static std::int64_t check_labels(const Tensor& x, const std::vector<int>& labels,
                                 const std::vector<std::uint8_t>& mask, const char* name) {
  check_matrix(x, name);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  check(static_cast<std::int64_t>(labels.size()) == n, std::string(name) + ": labels size");
  check(mask.empty() || static_cast<std::int64_t>(mask.size()) == n,
        std::string(name) + ": mask size");
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    const int y = labels[static_cast<size_t>(i)];
    if (y < 0 || y >= c) tensor_fail(std::string(name) + ": label out of range");
    ++count;
  }
  return count;
}

static void nll_loss_masked_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  const float* p = px->data.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    acc -= p[i * c + labels[static_cast<size_t>(i)]];
  }
  node.data[0] = static_cast<float>(acc * node.op_f0);
}

static void nll_loss_masked_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  const float g = node.grad[0] * node.op_f0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    dx[i * c + labels[static_cast<size_t>(i)]] -= g;
  }
}

Tensor nll_loss_masked(const Tensor& log_probs, const std::vector<int>& labels,
                       const std::vector<std::uint8_t>& mask) {
  const std::int64_t count = check_labels(log_probs, labels, mask, "nll_loss_masked");
  check(count > 0, "nll_loss_masked: empty selection");
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->labels = labels;
  ctx->mask = mask;
  return make_node({1}, {log_probs.impl()}, Op::kNllLossMasked,
                   {.f0 = 1.0f / static_cast<float>(count), .ctx = std::move(ctx)});
}

static void hinge_margin_loss_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  auto& best_j = node.ctx->ibuf;  // value-dependent: rewritten per forward
  const bool targeted = node.op_flag;
  const float* z = px->data.data();
  double total = 0.0;
  std::fill(best_j.begin(), best_j.end(), static_cast<std::int64_t>(-1));
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    const int y = labels[static_cast<size_t>(i)];
    float best = -std::numeric_limits<float>::infinity();
    std::int64_t bj = -1;
    for (std::int64_t j = 0; j < c; ++j) {
      if (j == y) continue;
      if (z[i * c + j] > best) {
        best = z[i * c + j];
        bj = j;
      }
    }
    const float margin = targeted ? best - z[i * c + y] : z[i * c + y] - best;
    if (margin > 0.0f) {
      total += margin;
      best_j[static_cast<size_t>(i)] = bj;
    }
  }
  node.data[0] = static_cast<float>(total);
}

static void hinge_margin_loss_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& best_j = node.ctx->ibuf;
  const float g = node.grad[0];
  const float sy = node.op_flag ? -1.0f : 1.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t bj = best_j[static_cast<size_t>(i)];
    if (bj < 0) continue;  // hinge inactive or masked out
    dx[i * c + labels[static_cast<size_t>(i)]] += g * sy;
    dx[i * c + bj] -= g * sy;
  }
}

Tensor hinge_margin_loss(const Tensor& logits, const std::vector<int>& labels,
                         const std::vector<std::uint8_t>& mask, bool targeted) {
  check_matrix(logits, "hinge_margin_loss");
  check(logits.dim(1) >= 2, "hinge_margin_loss: needs at least 2 classes");
  check_labels(logits, labels, mask, "hinge_margin_loss");
  // ibuf holds each row's competing argmax (j != y), or -1 where the hinge
  // is inactive or the row is masked out; the forward rewrites it.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.resize(static_cast<size_t>(logits.dim(0)));
  ctx->labels = labels;
  ctx->mask = mask;
  return make_node({1}, {logits.impl()}, Op::kHingeMarginLoss,
                   {.flag = targeted, .ctx = std::move(ctx)});
}

static void smoothness_penalty_fwd(TensorImpl& node) {
  TensorImpl* px_node = parent(node, 0);
  const std::int64_t alpha = node.op_i0;
  const std::int64_t n = px_node->shape[0], c = px_node->shape[1];
  const auto& idx = node.ctx->ibuf;
  const float* px = px_node->data.data();
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < alpha; ++k) {
      const std::int64_t j = idx[static_cast<size_t>(i * alpha + k)];
      double d2 = 0.0;
      for (std::int64_t t = 0; t < c; ++t) {
        const double d = px[i * c + t] - px[j * c + t];
        d2 += d * d;
      }
      total += std::sqrt(d2);
    }
  }
  node.data[0] = static_cast<float>(total);
}

static void smoothness_penalty_bw(TensorImpl& node) {
  float* dx = grad_of(node, 0);
  if (dx == nullptr) return;
  constexpr float kEps = 1e-8f;
  const std::int64_t alpha = node.op_i0;
  const std::int64_t n = parent(node, 0)->shape[0], c = parent(node, 0)->shape[1];
  const auto& idx = node.ctx->ibuf;
  const float g = node.grad[0];
  const float* px = parent(node, 0)->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < alpha; ++k) {
      const std::int64_t j = idx[static_cast<size_t>(i * alpha + k)];
      float d2 = 0.0f;
      for (std::int64_t t = 0; t < c; ++t) {
        const float d = px[i * c + t] - px[j * c + t];
        d2 += d * d;
      }
      const float dist = std::sqrt(std::max(d2, kEps * kEps));
      for (std::int64_t t = 0; t < c; ++t) {
        const float u = (px[i * c + t] - px[j * c + t]) / dist;
        dx[i * c + t] += g * u;
        dx[j * c + t] -= g * u;
      }
    }
  }
}

Tensor smoothness_penalty(const Tensor& x, const std::vector<std::int64_t>& neighbor_idx,
                          std::int64_t alpha) {
  check_matrix(x, "smoothness_penalty");
  const std::int64_t n = x.dim(0);
  check(alpha > 0 && static_cast<std::int64_t>(neighbor_idx.size()) == n * alpha,
        "smoothness_penalty: neighbor_idx must have N*alpha entries");
  for (const std::int64_t j : neighbor_idx) {
    if (j < 0 || j >= n) tensor_fail("smoothness_penalty: neighbor index out of range");
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = neighbor_idx;
  return make_node({1}, {x.impl()}, Op::kSmoothnessPenalty,
                   {.i0 = alpha, .ctx = std::move(ctx)});
}

// ---------------------------------------------------------------------------
// Non-differentiable helpers
// ---------------------------------------------------------------------------

std::vector<int> argmax_rows(const Tensor& x) {
  check_matrix(x, "argmax_rows");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  std::vector<int> out(static_cast<size_t>(n));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (px[i * c + j] > px[i * c + best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The op table: one OpDef per Op, in enum order. An Op with no entry, or
// an entry out of order, fails the static_asserts below.
// ---------------------------------------------------------------------------

namespace {

constexpr OpDef kOpDefs[] = {
    {Op::kNone, "none", nullptr, nullptr},
    {Op::kAdd, "add", add_fwd, add_bw},
    {Op::kSub, "sub", sub_fwd, sub_bw},
    {Op::kMul, "mul", mul_fwd, mul_bw},
    {Op::kScale, "scale", scale_fwd, scale_bw},
    {Op::kAddScalar, "add_scalar", add_scalar_fwd, add_scalar_bw},
    {Op::kAddRowvec, "add_rowvec", add_rowvec_fwd, add_rowvec_bw},
    {Op::kMulRows, "mul_rows", mul_rows_fwd, mul_rows_bw},
    {Op::kRelu, "relu", relu_fwd, relu_bw},
    {Op::kTanh, "tanh_op", tanh_fwd, tanh_bw},
    {Op::kSquare, "square", square_fwd, square_bw},
    {Op::kSqrt, "sqrt_op", sqrt_fwd, sqrt_bw},
    {Op::kSum, "sum", sum_fwd, sum_bw},
    {Op::kRowSum, "row_sum", row_sum_fwd, row_sum_bw},
    {Op::kMatmul, "matmul", matmul_fwd, matmul_bw},
    {Op::kLinear, "linear", linear_fwd, linear_bw},
    {Op::kGatherRows, "gather_rows", gather_rows_fwd, gather_rows_bw},
    {Op::kScatterRows, "scatter_rows", scatter_rows_fwd, scatter_rows_bw},
    {Op::kWeightedGatherRows, "weighted_gather_rows", weighted_gather_rows_fwd,
     weighted_gather_rows_bw},
    {Op::kGatherSubRows, "gather_sub_rows", gather_sub_rows_fwd, gather_sub_rows_bw},
    {Op::kRepeatRows, "repeat_rows", repeat_rows_fwd, repeat_rows_bw},
    {Op::kConcatCols, "concat_cols", concat_cols_fwd, concat_cols_bw},
    {Op::kConcatCols4, "concat_cols4", concat_cols4_fwd, concat_cols4_bw},
    {Op::kSliceCols, "slice_cols", slice_cols_fwd, slice_cols_bw},
    {Op::kScatterAddCols, "scatter_add_cols", scatter_add_cols_fwd, scatter_add_cols_bw},
    {Op::kSegmentMax, "segment_max", segment_max_fwd, segment_max_bw},
    {Op::kSegmentSum, "segment_sum", segment_sum_fwd, segment_sum_bw},
    {Op::kSegmentSoftmax, "segment_softmax", segment_softmax_fwd, segment_softmax_bw},
    {Op::kAttentivePool, "attentive_pool", attentive_pool_fwd, attentive_pool_bw},
    {Op::kBatchNorm, "batch_norm", nullptr, batch_norm_bw},
    {Op::kBnReluEval, "bn_relu_eval", bn_relu_eval_fwd, bn_relu_eval_bw},
    {Op::kDropout, "dropout", nullptr, dropout_bw},
    {Op::kEdgeLinear, "edge_linear", edge_linear_fwd, edge_linear_bw},
    {Op::kEdgeConvEval, "edge_conv_eval", edge_conv_eval_fwd, edge_conv_eval_bw},
    {Op::kNeighborLinear, "neighbor_linear", neighbor_linear_fwd, neighbor_linear_bw},
    {Op::kLogSoftmaxRows, "log_softmax_rows", log_softmax_rows_fwd, log_softmax_rows_bw},
    {Op::kNllLossMasked, "nll_loss_masked", nll_loss_masked_fwd, nll_loss_masked_bw},
    {Op::kHingeMarginLoss, "hinge_margin_loss", hinge_margin_loss_fwd, hinge_margin_loss_bw},
    {Op::kSmoothnessPenalty, "smoothness_penalty", smoothness_penalty_fwd,
     smoothness_penalty_bw},
};

constexpr bool in_enum_order() {
  for (size_t i = 0; i < std::size(kOpDefs); ++i) {
    if (kOpDefs[i].op != static_cast<Op>(i)) return false;
  }
  return true;
}

static_assert(std::size(kOpDefs) == static_cast<size_t>(Op::kCount), "one OpDef per Op");
static_assert(in_enum_order(), "kOpDefs lists the ops in enum order");

}  // namespace

}  // namespace pcss::tensor::ops

namespace pcss::tensor {

const OpDef& op_def(Op op) { return ops::kOpDefs[static_cast<size_t>(op)]; }

}  // namespace pcss::tensor
