#include "pcss/tensor/plan.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

// Replay is allocation-free by contract: every buffer a replay touches was
// pinned at capture time, so this TU never consults the buffer pool (lint
// rule D008 enforces the absence of pool::acquire here).

namespace pcss::tensor::plan {

namespace {

/// Per-thread capture state. One PlanBuilder owns this at a time; the
/// recording flag is what make_node polls.
struct Recorder {
  bool active = false;
  bool backward_captured = false;
  std::vector<TensorImplPtr> recorded;  ///< rg nodes, creation order
  TensorImplPtr root;                   ///< scalar backward root
  std::vector<TensorImplPtr> order;     ///< backward's post-order walk

  void clear() {
    active = false;
    backward_captured = false;
    recorded.clear();
    root.reset();
    order.clear();
  }
};

thread_local Recorder tl_recorder;

}  // namespace

namespace detail {

bool recording() noexcept { return tl_recorder.active; }

void record_node(const TensorImplPtr& node) { tl_recorder.recorded.push_back(node); }

bool capture_backward(const TensorImplPtr& root,
                      const std::vector<TensorImplPtr>& order) {
  Recorder& rec = tl_recorder;
  if (!rec.active) return false;
  rec.root = root;
  rec.order = order;
  rec.backward_captured = true;
  return true;  // the plan pins the graph; the caller must not release it
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CompiledPlan
// ---------------------------------------------------------------------------

void CompiledPlan::reset() {
  forward_.clear();
  backward_.clear();
  zeroed_.clear();
  root_ = nullptr;
  keep_.clear();  // unpins the graph; buffers return to the pool as nodes die
}

void CompiledPlan::replay_forward() const {
  for (const Step& step : forward_) step.fn(*step.node);
}

void CompiledPlan::replay_backward() const {
  // Same starting state as eager: every gradient backward will touch is
  // zero-filled (eager gets this from lazily pool-zeroed fresh buffers;
  // the plan reuses the pinned ones), then the scalar root seeds the walk.
  for (FloatBuffer* grad : zeroed_) std::fill(grad->begin(), grad->end(), 0.0f);
  root_->grad[0] = 1.0f;
  for (const Step& step : backward_) step.fn(*step.node);
}

PlanStats CompiledPlan::stats() const {
  PlanStats s;
  s.forward_ops = forward_.size();
  s.backward_ops = backward_.size();
  s.grad_buffers = zeroed_.size();
  s.nodes = keep_.size();
  return s;
}

PlanBytes CompiledPlan::pinned_bytes() const {
  PlanBytes b;
  for (const TensorImplPtr& node : keep_) {
    b.values += node->data.capacity() * sizeof(float);
    b.grads += node->grad.capacity() * sizeof(float);
    if (const BackwardCtx* ctx = node->ctx.get()) {
      b.saved += ctx->fbuf.capacity() * sizeof(float) +
                 ctx->ibuf.capacity() * sizeof(std::int64_t) +
                 ctx->labels.capacity() * sizeof(int) + ctx->mask.capacity();
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

PlanBuilder::PlanBuilder() {
  if (tl_recorder.active) {
    tensor_fail("PlanBuilder: a capture is already active on this thread");
  }
  tl_recorder.clear();
  tl_recorder.active = true;
  active_ = true;
}

PlanBuilder::~PlanBuilder() {
  if (active_) abort();
}

void PlanBuilder::abort() {
  tl_recorder.clear();
  active_ = false;
}

bool PlanBuilder::finish(CompiledPlan& out) {
  Recorder& rec = tl_recorder;
  rec.active = false;
  active_ = false;
  const bool capturable =
      rec.backward_captured && rec.root != nullptr && rec.root->numel() == 1 &&
      std::all_of(rec.recorded.begin(), rec.recorded.end(),
                  [](const TensorImplPtr& n) { return op_def(n->op).fwd != nullptr; });
  if (!capturable) {
    // Not a replayable step (no backward ran, or an op without a forward
    // rule — batch norm / dropout). Dropping the recorder state
    // lets the step's graph unwind exactly as an eager step would.
    rec.clear();
    return false;
  }

  CompiledPlan plan;
  plan.forward_.reserve(rec.recorded.size());
  for (const TensorImplPtr& node : rec.recorded) {
    plan.forward_.push_back({op_def(node->op).fwd, node.get()});
  }
  // The backward walk visits `order` in reverse; a node's gradient is only
  // ever allocated by its children, all of which fire before the walk
  // reaches it — so the post-backward grad/op state of each node
  // reproduces exactly the schedule the eager walk executed.
  for (auto it = rec.order.rbegin(); it != rec.order.rend(); ++it) {
    TensorImpl& node = **it;
    if (const Rule bw = op_def(node.op).bw; bw && !node.grad.empty()) {
      plan.backward_.push_back({bw, &node});
    }
  }
  for (const TensorImplPtr& node : rec.order) {
    if (!node->grad.empty()) plan.zeroed_.push_back(&node->grad);
  }
  plan.root_ = rec.root.get();

  // Pin every node either schedule can touch: the backward order (which
  // includes leaves and constants) plus any recorded node that is not
  // reachable from the root.
  plan.keep_ = rec.order;
  std::unordered_set<TensorImpl*> kept;
  kept.reserve(plan.keep_.size());
  for (const TensorImplPtr& node : plan.keep_) kept.insert(node.get());
  for (const TensorImplPtr& node : rec.recorded) {
    if (kept.insert(node.get()).second) plan.keep_.push_back(node);
  }

  rec.clear();
  out = std::move(plan);
  return true;
}

}  // namespace pcss::tensor::plan
