#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pcss/tensor/tensor.h"

namespace pcss::tensor::plan {

// ---------------------------------------------------------------------------
// Compiled step plans: capture-once / replay-many execution for loops that
// run the *same* autograd graph every iteration (the attack inner loop).
//
// Capture: a PlanBuilder turns on thread-local recording; one ordinary eager
// step then runs — every gradient-carrying node that ops.cpp materializes is
// appended to a flat op list in creation order (a valid topological order by
// construction), and Tensor::backward() hands the builder its reverse-walk
// schedule instead of releasing the graph. finish() freezes the result into
// a CompiledPlan.
//
// The arena: a plan does not copy values into new storage — it *pins* the
// step's pooled buffers by retaining every graph node. Buffer addresses,
// gradient addresses, saved-index contexts and each op's rules (looked up
// once in the op table, tensor.h's op_def) are therefore all fixed at
// capture time; a replay touches the buffer pool zero times (lint rule
// D008 keeps this file's TU free of pool::acquire) and re-resolves no
// dispatch.
//
// Replay:
//   replay_forward()  — run each recorded node's forward rule (OpDef::fwd)
//                       in capture order, rewriting node.data (and
//                       value-dependent saved state such as segment-max
//                       argmaxes) in place from the parents' current data.
//                       The rule is the function the op's eager builder ran
//                       to compute the captured value, so a replayed
//                       forward is the eager forward.
//   replay_backward() — zero every gradient buffer backward touched last
//                       time, seed the scalar root with 1, and fire the
//                       captured reverse schedule. Accumulation order is the
//                       capture step's eager order, so replayed gradients
//                       are bit-identical to eager mode.
//
// Capturability: every recorded node's op must have a forward rule. The
// two ops that compute their value in the builder have none (batch norm
// in either mode, whose training form updates running statistics, and
// training-mode dropout, which draws a fresh RNG mask), so finish() fails
// and the caller stays eager.
// Graphs whose *shape* changes between steps (host-side kNN over perturbed
// positions, L0 masks shrinking) must not be replayed either — callers key
// re-capture off an explicit invalidation epoch (the attack projection's
// plan_epoch() in attack_engine.cpp).
// ---------------------------------------------------------------------------

/// Size/shape summary of a captured plan, for tooling (pcss_run stats).
struct PlanStats {
  std::size_t forward_ops = 0;   ///< recorded nodes replayed per step
  std::size_t backward_ops = 0;  ///< backward rules fired per step
  std::size_t grad_buffers = 0;  ///< gradient buffers zeroed per step
  std::size_t nodes = 0;         ///< retained graph nodes (incl. constants)
};

/// Bytes a captured plan pins, by owner, summed over its retained nodes.
/// Counts allocated capacity: a pooled buffer holds its whole size class.
struct PlanBytes {
  std::size_t values = 0;  ///< node value buffers
  std::size_t grads = 0;   ///< gradient buffers
  std::size_t saved = 0;   ///< BackwardCtx state: scratch, indices, labels, masks
  std::size_t total() const { return values + grads + saved; }
};

/// One captured step: flat forward/backward schedules over pinned graph
/// nodes. Replay-only; build one with PlanBuilder. Movable, not copyable
/// (the plan owns the retained graph).
class CompiledPlan {
 public:
  CompiledPlan() = default;
  CompiledPlan(CompiledPlan&&) = default;
  CompiledPlan& operator=(CompiledPlan&&) = default;
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  bool valid() const { return root_ != nullptr; }
  /// Drops the plan and its retained graph (buffers return to the pool as
  /// the node refcounts unwind).
  void reset();

  /// Recomputes every recorded node's value in capture order. The caller
  /// must have refreshed any persistent leaf values first (the plan reads
  /// leaves, it never writes them).
  void replay_forward() const;

  /// Zeroes captured gradients, seeds the root, fires the captured
  /// reverse schedule. Call after replay_forward().
  void replay_backward() const;

  PlanStats stats() const;
  /// What the plan keeps alive between replays (telemetry:
  /// tensor.plan_arena_mb.<model>).
  PlanBytes pinned_bytes() const;

 private:
  friend class PlanBuilder;

  /// One schedule entry: the op's rule, resolved at capture, plus the
  /// node it executes on (whose pinned buffers are the operands).
  struct Step {
    Rule fn = nullptr;
    TensorImpl* node = nullptr;
  };

  std::vector<Step> forward_;          ///< capture order (topological)
  std::vector<Step> backward_;         ///< eager reverse-walk order
  std::vector<FloatBuffer*> zeroed_;   ///< grads backward wrote last time
  TensorImpl* root_ = nullptr;         ///< scalar loss node
  std::vector<TensorImplPtr> keep_;    ///< pins every graph node (the arena)
};

/// Records the next eager step on this thread into a CompiledPlan. Scoped:
/// construction turns recording on, finish()/abort()/destruction turn it
/// off. One builder per thread at a time; capture and replay of the
/// resulting plan may happen on different threads (but not concurrently).
class PlanBuilder {
 public:
  PlanBuilder();
  ~PlanBuilder();
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Freezes the recorded step into `out`. Returns false — leaving `out`
  /// untouched — when the step was not capturable: no backward() ran, or
  /// a recorded op has no forward rule (batch norm or training-mode
  /// dropout). The builder is spent either way.
  bool finish(CompiledPlan& out);

  /// Stops recording and discards everything recorded so far.
  void abort();

 private:
  bool active_ = false;
};

namespace detail {

/// True while the current thread is inside an active PlanBuilder. ops.cpp
/// checks this in make_node to record each node.
bool recording() noexcept;

/// Appends a freshly built gradient-carrying node to the recording
/// thread's op list. Called by make_node only when recording() is true.
void record_node(const TensorImplPtr& node);

/// Hook at the end of Tensor::backward(): when this thread is recording,
/// captures the reverse schedule implied by `order` (post-order, root
/// last) and returns true — the caller must then *skip* releasing the
/// graph, since the plan pins it. Returns false when not recording.
bool capture_backward(const TensorImplPtr& root,
                      const std::vector<TensorImplPtr>& order);

}  // namespace detail

}  // namespace pcss::tensor::plan
