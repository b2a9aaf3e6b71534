#include "pcss/tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"

namespace pcss::tensor {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

[[noreturn]] void tensor_fail(const std::string& message) {
  throw std::runtime_error("pcss::tensor: " + message);
}

namespace detail {
void check(bool condition, const std::string& message) {
  if (!condition) tensor_fail(message);
}
}  // namespace detail

BackwardCtx::~BackwardCtx() { pool::release(std::move(fbuf)); }

TensorImpl::~TensorImpl() {
  pool::release(std::move(data));
  pool::release(std::move(grad));
}

void TensorImpl::ensure_grad() {
  // Sized from the shape, the size every backward rule indexes the
  // gradient by, so it never depends on how the value buffer was filled.
  const size_t n = static_cast<size_t>(shape_numel(shape));
  if (grad.size() != n) {
    pool::release(std::move(grad));
    grad = pool::acquire_zeroed(n);
  }
}

void TensorImpl::release_graph() {
  // Pure leaves must take a read-only path: frozen model parameters are
  // shared by every concurrently-built per-cloud graph, so backward() on
  // one thread must not write (even idempotently) to a node another
  // thread's backward() is reading. A leaf has no graph state to drop.
  if (parents.empty() && op == Op::kNone && ctx == nullptr) return;
  if (op != Op::kNone) graph_released = true;
  parents.clear();
  op = Op::kNone;
  ctx.reset();
}

Tensor Tensor::zeros(Shape shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = pool::acquire_zeroed(static_cast<size_t>(shape_numel(impl->shape)));
  return Tensor(std::move(impl));
}

Tensor Tensor::full(Shape shape, float value) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = pool::acquire(static_cast<size_t>(shape_numel(impl->shape)));
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data) {
  detail::check(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
                "from_data: shape " + shape_str(shape) + " does not match data size " +
                    std::to_string(data.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  // Copy into a pooled buffer so the storage meets the pool's 32-byte
  // alignment contract (a plain std::vector only guarantees 16 on glibc).
  impl->data = pool::acquire(data.size());
  std::copy(data.begin(), data.end(), impl->data.begin());
  return Tensor(std::move(impl));
}

Tensor Tensor::from_buffer(Shape shape, FloatBuffer data) {
  detail::check(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
                "from_buffer: shape " + shape_str(shape) + " does not match data size " +
                    std::to_string(data.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = Tensor::full(std::move(shape), 0.0f);
  for (auto& v : t.impl()->data) v = rng.normal(stddev);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Tensor::full(std::move(shape), 0.0f);
  for (auto& v : t.impl()->data) v = rng.uniform(lo, hi);
  return t;
}

const Shape& Tensor::shape() const {
  detail::check(defined(), "shape() on undefined tensor");
  return impl_->shape;
}

std::int64_t Tensor::dim(int i) const {
  const Shape& s = shape();
  if (i < 0) i += static_cast<int>(s.size());
  detail::check(i >= 0 && i < static_cast<int>(s.size()), "dim index out of range");
  return s[static_cast<size_t>(i)];
}

int Tensor::rank() const { return static_cast<int>(shape().size()); }

std::int64_t Tensor::numel() const {
  detail::check(defined(), "numel() on undefined tensor");
  return impl_->numel();
}

bool Tensor::requires_grad() const { return defined() && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  detail::check(defined(), "set_requires_grad on undefined tensor");
  impl_->requires_grad = value;
  return *this;
}

float* Tensor::data() {
  detail::check(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

const float* Tensor::data() const {
  detail::check(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

float Tensor::item() const {
  detail::check(defined() && numel() == 1, "item() requires a 1-element tensor");
  return impl_->data[0];
}

float Tensor::at(std::int64_t i) const {
  detail::check(defined() && i >= 0 && i < numel(), "at(): index out of range");
  return impl_->data[static_cast<size_t>(i)];
}

const FloatBuffer& Tensor::grad() const {
  detail::check(defined(), "grad() on undefined tensor");
  return impl_->grad;
}

FloatBuffer& Tensor::grad_ref() {
  detail::check(defined(), "grad_ref() on undefined tensor");
  impl_->ensure_grad();
  return impl_->grad;
}

void Tensor::zero_grad() {
  detail::check(defined(), "zero_grad() on undefined tensor");
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

namespace {

// Iterative post-order topological sort over the autograd DAG.
void topo_sort(const TensorImplPtr& root, std::vector<TensorImplPtr>& order) {
  std::unordered_set<TensorImpl*> visited;
  // Stack frames: (node, next parent index to visit).
  std::vector<std::pair<TensorImplPtr, size_t>> stack;
  if (visited.insert(root.get()).second) stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      TensorImplPtr parent = node->parents[idx++];
      if (parent && visited.insert(parent.get()).second) {
        stack.emplace_back(std::move(parent), 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::backward() {
  detail::check(defined(), "backward() on undefined tensor");
  detail::check(numel() == 1, "backward() requires a scalar root, got shape " +
                                  shape_str(shape()));
  std::vector<TensorImplPtr> order;
  topo_sort(impl_, order);
  for (const auto& node : order) {
    detail::check(!node->graph_released,
                  "backward(): a reachable node was already released by an earlier "
                  "backward(); rebuild the graph (define-by-run) instead of "
                  "backpropagating through it twice");
  }
  impl_->ensure_grad();
  impl_->grad[0] = 1.0f;
  // Post-order puts the root last; walk in reverse so every node's grad is
  // complete before it propagates to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl& node = **it;
    if (const Rule bw = op_def(node.op).bw; bw && !node.grad.empty()) bw(node);
  }
  // A compiled-plan capture pins the finished graph instead of releasing
  // it: the reverse schedule just executed is exactly what the plan will
  // replay (see plan.h).
  if (plan::detail::capture_backward(impl_, order)) return;
  // Release the graph: parent edges and backward state are dropped for
  // every visited node. Nodes kept alive only by the graph die when
  // `order` unwinds, returning their buffers to the pool; externally-held
  // nodes keep data and grad but no longer pin their subgraph.
  for (auto& node : order) node->release_graph();
}

Tensor Tensor::detach() const {
  detail::check(defined(), "detach() on undefined tensor");
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = pool::acquire(impl_->data.size());
  std::copy(impl_->data.begin(), impl_->data.end(), impl->data.begin());
  return Tensor(std::move(impl));
}

}  // namespace pcss::tensor
