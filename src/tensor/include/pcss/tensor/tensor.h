#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pcss/tensor/pool.h"
#include "pcss/tensor/rng.h"

namespace pcss::tensor {

using Shape = std::vector<std::int64_t>;

/// Returns the product of all dimensions in `shape` (1 for rank-0).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]" form, used in error messages.
std::string shape_str(const Shape& shape);

struct TensorImpl;
using TensorImplPtr = std::shared_ptr<TensorImpl>;

/// Every differentiable op, one per builder in ops.h, in ops.cpp's order.
/// A node records the op that computed it; kNone marks leaves,
/// predict-mode results and nodes whose graph was released.
enum class Op : std::uint8_t {
  kNone,
  // elementwise and scalar
  kAdd, kSub, kMul, kScale, kAddScalar, kAddRowvec, kMulRows, kRelu, kTanh, kSquare, kSqrt,
  // reductions and linear algebra
  kSum, kRowSum, kMatmul, kLinear,
  // gather and structure
  kGatherRows, kScatterRows, kWeightedGatherRows, kGatherSubRows, kRepeatRows, kConcatCols,
  kConcatCols4, kSliceCols, kScatterAddCols,
  // segment reductions
  kSegmentMax, kSegmentSum, kSegmentSoftmax, kAttentivePool,
  // normalization and regularization
  kBatchNorm, kBnReluEval, kDropout,
  // fused edge ops
  kEdgeLinear, kEdgeConvEval, kNeighborLinear,
  // heads and losses
  kLogSoftmaxRows, kNllLossMasked, kHingeMarginLoss, kSmoothnessPenalty,
  kCount  ///< the number of enumerators, not an op
};

/// One rule of an op, run on a node the op computed.
using Rule = void (*)(TensorImpl& node);

/// An op's definition: its entry in the table at the end of ops.cpp.
/// Per-node state lives in the TensorImpl's inline scalar slots or, for
/// ops that save buffers, in its BackwardCtx, so a node costs no closure
/// and a rule is one indirect call.
struct OpDef {
  Op op;             ///< the entry's own index (a static_assert checks it)
  const char* name;  ///< the builder's name in ops.h
  /// The one forward: writes node.data, and any value-dependent saved
  /// state such as argmax indices, from the parents' current data. The
  /// builder runs it for the eager value and a compiled step plan
  /// (plan.h) reruns it on every replay, so replay and eager execution
  /// share one definition. Null for batch_norm and dropout, which compute
  /// their value in the builder: training batch norm updates running
  /// statistics and training dropout draws a fresh mask, effects a replay
  /// must not repeat. A graph holding either is never captured.
  Rule fwd;
  /// Reads the node's grad and saved state and accumulates into the
  /// parents' grads. Null only for kNone.
  Rule bw;
};

/// The table entry of `op`.
const OpDef& op_def(Op op);

/// Saved-state record for backward rules that need more than scalars.
/// Field meaning is op-specific; `fbuf` returns to the buffer pool on
/// destruction.
struct BackwardCtx {
  FloatBuffer fbuf;                   ///< saved activations / weights / stats
  std::vector<std::int64_t> ibuf;     ///< saved indices
  std::vector<int> labels;            ///< class labels (loss ops)
  std::vector<std::uint8_t> mask;     ///< row mask (loss ops)
  ~BackwardCtx();
};

/// Storage node shared by Tensor handles. Holds the value, the gradient
/// (allocated lazily from the per-thread buffer pool), and the reverse-mode
/// dispatch record linking it to its parents in the autograd graph.
struct TensorImpl {
  FloatBuffer data;  ///< pooled, 32-byte aligned (see pool.h)
  FloatBuffer grad;  ///< empty until touched by backward()
  Shape shape;
  bool requires_grad = false;
  std::vector<TensorImplPtr> parents;
  /// Set on gradient-carrying nodes: backward() and compiled step plans
  /// run op_def(op)'s rules on this node.
  Op op = Op::kNone;
  /// Inline op state (meaning is op-specific: a stride, a segment width,
  /// a scale factor...). Avoids a BackwardCtx allocation for most ops.
  std::int64_t op_i0 = 0;
  float op_f0 = 0.0f;
  bool op_flag = false;
  /// Set by release_graph() on nodes that carried backward state: a
  /// later backward() visiting such a node fails loudly instead of
  /// silently producing truncated gradients.
  bool graph_released = false;
  std::unique_ptr<BackwardCtx> ctx;

  ~TensorImpl();  ///< returns data/grad to the thread's buffer pool

  std::int64_t numel() const { return shape_numel(shape); }
  /// Allocates (zero-filled, from the pool) the gradient buffer if absent.
  void ensure_grad();
  /// Drops graph edges and backward state while keeping data/grad.
  /// Called by Tensor::backward() once traversal completes, so a long
  /// attack run never retains a step's graph through lingering handles.
  void release_graph();
};

/// Value-semantic handle to a TensorImpl. Copies alias the same storage;
/// use detach()/clone() for independent copies.
///
/// Tensors are float32, row-major, with dynamic rank. The engine is
/// define-by-run: ops build the graph as they execute, and
/// Tensor::backward() runs reverse-mode accumulation from a scalar root.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorImplPtr impl) : impl_(std::move(impl)) {}

  // -- Factories ----------------------------------------------------------
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor from_data(Shape shape, std::vector<float> data);
  /// Zero-copy variant for callers that assembled the values directly in
  /// a pooled (32-byte aligned) buffer.
  static Tensor from_buffer(Shape shape, FloatBuffer data);
  /// i.i.d. normal entries with the given stddev.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// i.i.d. uniform entries in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);

  // -- Introspection -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  std::int64_t dim(int i) const;
  int rank() const;
  std::int64_t numel() const;
  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);

  // -- Data access ---------------------------------------------------------
  float* data();
  const float* data() const;
  float item() const;  ///< value of a 1-element tensor
  float at(std::int64_t i) const;

  // -- Autograd ------------------------------------------------------------
  /// Gradient buffer (empty vector if backward never reached this node).
  const FloatBuffer& grad() const;
  FloatBuffer& grad_ref();
  void zero_grad();
  /// Reverse-mode accumulation from this (scalar) tensor. After the
  /// traversal the graph is released (PyTorch's retain_graph=false):
  /// every visited node drops its parent edges and backward state, so
  /// intermediate buffers return to the pool as soon as the last handle
  /// dies. Calling backward() twice on the same graph is unsupported;
  /// rebuild the graph (define-by-run) instead.
  void backward();

  /// Copy of the data with no autograd history.
  Tensor detach() const;
  /// Alias for detach(); reads naturally when an independent buffer is the
  /// point rather than graph-cutting.
  Tensor clone() const { return detach(); }

  TensorImplPtr impl() const { return impl_; }

 private:
  TensorImplPtr impl_;
};

/// Raised on shape mismatches and misuse of the autograd API.
[[noreturn]] void tensor_fail(const std::string& message);

namespace detail {
void check(bool condition, const std::string& message);
}

}  // namespace pcss::tensor
