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

/// Reverse-mode rule for one node: reads the node's grad (and the inline
/// op state / context below) and accumulates into its parents' grads.
///
/// A plain function pointer acts as the op tag; per-node state lives in
/// the TensorImpl's inline scalar slots or, for ops that must save
/// buffers, in an optional BackwardCtx. This replaces the previous
/// std::function closures (one type-erased heap allocation per node) with
/// a single indirect call and zero allocations for scalar-parameterized
/// ops.
using BackwardFn = void (*)(TensorImpl& node);

/// The one forward of an op: writes node.data — and any value-dependent
/// saved state such as argmax indices — from the parents' current data.
/// The op's builder runs it once to compute the eager value, and a
/// compiled step plan (plan.h) runs it again on every replay, so replay
/// and eager execution share one definition. Symmetric to BackwardFn: a
/// plain function pointer resolved once at op-build time, so a replay is a
/// flat loop of indirect calls with no dispatch and no allocation. Only
/// batch norm and dropout have none (training batch norm mutates running
/// stats; training dropout draws a fresh mask).
using ForwardFn = void (*)(TensorImpl& node);

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
  BackwardFn backward_fn = nullptr;
  /// Set alongside backward_fn on gradient-carrying nodes; compiled step
  /// plans call it to recompute the value on replay.
  ForwardFn forward_fn = nullptr;
  /// Inline op state (meaning is op-specific: a stride, a segment width,
  /// a scale factor...). Avoids a BackwardCtx allocation for most ops.
  std::int64_t op_i0 = 0;
  std::int64_t op_i1 = 0;
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
