#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "pcss/core/attack.h"

namespace pcss::core {

// ---------------------------------------------------------------------------
// Strategy interfaces
//
// The paper's eight attack configurations (objective x norm x field) are
// compositions of four orthogonal pieces:
//
//   Objective     - what the attacker optimizes: the degradation hinge
//                   (Eq. 4/5, Eq. 11) or the hiding hinge (Eq. 1/3, Eq. 10).
//   Projection    - how the perturbation is parameterized and kept
//                   feasible: the bounded epsilon-clip of Algorithm 1, or
//                   the CW tanh reparameterization of Eq. 7 with its
//                   distance + smoothness penalties (Eq. 3/5, Eq. 9) and
//                   the Eq. 12 L0 restoration schedule.
//   StepRule      - how gradients become updates: sign-PGD or Adam.
//   StopCriterion - when to stop or restart: step budget, the paper's
//                   success_accuracy / PSR convergence thresholds, and the
//                   stall-triggered random restart of §IV-B.
//
// AttackEngine::recipe() assembles the paper's default composition from an
// AttackConfig; every factory can be swapped to build new attack variants
// without touching the engine loop.
// ---------------------------------------------------------------------------

/// Differentiable raw-unit perturbations for one optimization step.
/// Undefined tensors mean "this field is not attacked".
struct FieldDeltas {
  Tensor color;  ///< [N,3] additive RGB delta, raw [0,1] units
  Tensor coord;  ///< [N,3] additive position delta, meters
};

/// Attacker objective: the adversarial loss and its progress measure.
class Objective {
 public:
  virtual ~Objective() = default;
  virtual const char* name() const = 0;

  /// Adversarial loss term over the targeted points (Eq. 10 / Eq. 11).
  virtual Tensor loss(const Tensor& logits, const PointCloud& cloud,
                      const std::vector<std::uint8_t>& mask) const = 0;

  /// Scalar attack progress; larger is always better for the attacker
  /// (1 - accuracy for degradation, PSR for hiding).
  virtual double gain(const std::vector<int>& predictions, const PointCloud& cloud,
                      const std::vector<std::uint8_t>& mask, int num_classes) const = 0;

  /// Whether `gain` meets the configured success threshold.
  virtual bool converged(double gain) const = 0;
};

/// How a Projection interacts with compiled step plans (plan.h).
enum class PlanCompat {
  /// Never replay through this projection (safe default for custom
  /// projections the engine knows nothing about).
  kIncompatible,
  /// The step graph hangs off persistent leaf tensors whose *values* the
  /// step rule mutates out-of-graph; the engine calls make_deltas() before
  /// every replay so the projection can refresh the leaves in place
  /// (bounded clip).
  kRefreshLeaves,
  /// The whole delta-mapping graph was captured; make_deltas/total_loss
  /// are skipped during replay and the optimization variables are updated
  /// in place by the step rule (CW tanh).
  kCapturedGraph,
};

/// Perturbation parameterization. Stateful per run: init() is called once
/// per cloud, then the engine alternates make_deltas / updates / post_step.
class Projection {
 public:
  /// Elementwise view of one optimization variable for in-place step
  /// rules (sign-PGD). `grad` is null until backward has produced one.
  struct VarView {
    float* value = nullptr;                            ///< [points*3] storage
    const float* grad = nullptr;                       ///< [points*3] or null
    const std::vector<std::uint8_t>* active = nullptr; ///< per-point update mask
    std::int64_t points = 0;
  };

  virtual ~Projection() = default;

  virtual void init(const PointCloud& cloud, const std::vector<std::uint8_t>& mask,
                    Rng& rng) = 0;

  /// Builds this step's differentiable deltas (kept internally so that
  /// total_loss / post_step / snapshots can reference them).
  virtual FieldDeltas make_deltas() = 0;

  /// Persistent optimization variables, for tensor-based step rules
  /// (Adam). Empty when variables live in raw storage (bounded clip).
  virtual std::vector<Tensor> variables() = 0;

  /// Views over the variables for elementwise step rules.
  virtual std::vector<VarView> views() = 0;

  /// Composes the full step loss from the adversarial term. The bounded
  /// regime optimizes the hinge alone (constraints live in project());
  /// the unbounded regime adds the Eq. 3/5 distance and Eq. 9 smoothness.
  virtual Tensor total_loss(const Tensor& adversarial) { return adversarial; }

  /// Re-projects variables into the feasible set after an update
  /// (epsilon-ball and valid color box). No-op for tanh.
  virtual void project() {}

  /// Called with each step's measured gain before the stop decision;
  /// the CW projection snapshots its best-so-far deltas here.
  virtual void observe_gain(double gain) { (void)gain; }

  /// Stall-triggered random restart (§IV-B): re-noise the variables.
  virtual void random_restart(Rng& rng) { (void)rng; }

  /// Eq. 12 L0 restoration using this step's gradients.
  virtual void post_step() {}

  /// Whether — and how — the engine may replay this projection's step
  /// through a compiled plan. See PlanCompat.
  virtual PlanCompat plan_compat() const { return PlanCompat::kIncompatible; }

  /// Explicit capture-invalidation epoch: bumped whenever the step graph's
  /// *shape* changed (an L0 restoration shrank a mask that is baked into
  /// the graph, for example). The engine drops its plan and re-captures
  /// when the epoch moves.
  virtual std::uint64_t plan_epoch() const { return 0; }

  /// Final raw-unit deltas to apply to the cloud; null = field untouched.
  /// Called once after the loop ends; may materialize internal state.
  virtual const std::vector<float>* final_color_delta() = 0;
  virtual const std::vector<float>* final_coord_delta() = 0;
};

/// Gradient-to-update rule over a Projection's variables.
class StepRule {
 public:
  virtual ~StepRule() = default;
  /// Clears persistent-variable gradients before backward (no-op for
  /// rules whose variables are rebuilt every step).
  virtual void zero_grad(Projection& projection) { (void)projection; }
  /// Applies one update from the gradients produced by backward().
  virtual void apply(Projection& projection) = 0;
};

/// Verdict of StopCriterion::on_gain for one step.
enum class StepAction {
  kContinue,  ///< keep optimizing
  kStop,      ///< end the run; steps_used = current step
  kRestart,   ///< keep optimizing but random-restart the variables
};

/// Stop/restart policy, consulted once per step after the forward pass.
class StopCriterion {
 public:
  virtual ~StopCriterion() = default;
  /// Hard step budget (the engine's loop bound).
  virtual int max_steps() const = 0;
  /// `converged` is the Objective's verdict on this step's gain.
  virtual StepAction on_gain(int step, double gain, bool converged) = 0;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Factories producing fresh per-run strategy instances (strategies are
/// stateful, so concurrent clouds in run_batch each get their own set).
struct AttackRecipe {
  std::function<std::unique_ptr<Objective>()> make_objective;
  std::function<std::unique_ptr<Projection>()> make_projection;
  std::function<std::unique_ptr<StepRule>()> make_step_rule;
  std::function<std::unique_ptr<StopCriterion>()> make_stop;

  /// The paper's default composition for `config`:
  /// bounded   -> ClipProjection + SignStep + budget/convergence stop
  /// unbounded -> TanhProjection + AdamStep + stall-restart stop
  static AttackRecipe from_config(const AttackConfig& config);
};

/// Per-step progress event delivered to the engine observer. For batched
/// runs the callback may fire from worker threads (delivery is serialized
/// by the engine, but ordering across clouds is scheduling-dependent).
struct AttackProgress {
  std::size_t cloud_index = 0;  ///< position within run_batch (0 for run)
  int step = 0;
  double gain = 0.0;  ///< Objective::gain of this step's forward pass
};
using ProgressObserver = std::function<void(const AttackProgress&)>;

/// Execution policy shared by every engine entry point (run / run_batch /
/// run_shared): how to run, never *what* to compute. Any policy produces
/// byte-identical results — threads only schedule independent work, plans
/// replay bit-identically, and observers are pure taps — so ExecPolicy
/// values must never enter cache keys or documents.
struct ExecPolicy {
  int threads = 0;    ///< worker threads for batched modes (0 = hardware)
  bool plan = true;   ///< allow compiled-plan capture/replay (plan.h)
  ProgressObserver observer{};  ///< per-step progress tap (may be empty)
};

/// Result of the shared-delta ("universal") mode: one color perturbation
/// optimized jointly against every cloud in the batch.
struct SharedDeltaResult {
  std::vector<float> color_delta;       ///< shared [N*3] perturbation
  std::vector<double> accuracy_before;  ///< per cloud
  std::vector<double> accuracy_after;   ///< per cloud, delta applied
  int steps_used = 0;
};

/// Composable attack driver. Owns a reference to the model for its
/// lifetime and a validated AttackConfig; assembles per-run strategies
/// from an AttackRecipe.
///
/// Batched execution: run_batch schedules clouds across a worker pool.
/// Each cloud gets an independent RNG stream seeded `config.seed + index`,
/// so results are bit-identical regardless of thread count or scheduling
/// (run_batch(clouds)[i] == run(clouds[i], config.seed + i)).
///
/// Thread safety: during batched runs the engine freezes model-parameter
/// gradient accumulation (attacks only need input gradients), which makes
/// concurrent forward/backward passes over the shared model safe. The
/// model must not be trained or mutated elsewhere while a batch runs.
class AttackEngine {
 public:
  /// Validates `config` against the model (throws std::invalid_argument
  /// listing every problem) and builds the default recipe.
  AttackEngine(SegmentationModel& model, AttackConfig config);
  /// Same, with a custom strategy composition.
  AttackEngine(SegmentationModel& model, AttackConfig config, AttackRecipe recipe);

  const AttackConfig& config() const { return config_; }
  SegmentationModel& model() const { return model_; }

  /// Attacks one cloud with the configured seed.
  AttackResult run(const PointCloud& cloud, const ExecPolicy& policy = {}) const;
  /// Attacks one cloud with an explicit RNG seed (overrides config.seed).
  AttackResult run(const PointCloud& cloud, std::uint64_t seed,
                   const ExecPolicy& policy = {}) const;

  /// Attacks every cloud independently across the worker pool.
  ///
  /// The config's target_mask (when set) is applied to EVERY cloud — it
  /// is only valid for index-aligned batches where point i means the
  /// same thing in each cloud. For per-cloud masks (e.g. object hiding
  /// on unrelated scenes), build one engine per mask as bench_hiding.h
  /// does; a cloud whose size does not match the mask throws.
  std::vector<AttackResult> run_batch(std::span<const PointCloud> clouds,
                                      const ExecPolicy& policy = {}) const;

  /// Optimizes one shared color delta against all clouds jointly (the
  /// min-max "universal" formulation, §VI limitation 4). Clouds must be
  /// index-aligned and equal-sized. Per-cloud gradient passes run on the
  /// worker pool; accumulation order is fixed, so results match the
  /// sequential implementation exactly. Uses the bounded-attack fields
  /// (steps, epsilon, step_size) regardless of config.norm and throws if
  /// they are not positive. Progress observers are not invoked (the
  /// shared loop has no per-cloud Objective::gain to report).
  SharedDeltaResult run_shared(std::span<const PointCloud> clouds,
                               const ExecPolicy& policy = {}) const;

 private:
  AttackResult attack_cloud(const PointCloud& cloud, std::uint64_t seed,
                            std::size_t cloud_index, const ExecPolicy& policy) const;
  void emit(const ExecPolicy& policy, const AttackProgress& event) const;
  int worker_count(std::size_t jobs, int threads) const;

  SegmentationModel& model_;
  AttackConfig config_;
  AttackRecipe recipe_;
  // GUARDS: policy observer invocations (serializes per-cloud progress
  // callbacks fired from concurrent worker threads during run_batch)
  mutable std::mutex observer_mutex_;
};

// ---------------------------------------------------------------------------
// Built-in strategies (the paper's pieces, exposed for custom recipes)
// ---------------------------------------------------------------------------

/// Untargeted performance degradation: maximize 1 - accuracy (Eq. 4/5).
std::unique_ptr<Objective> make_degradation_objective(float success_accuracy);
/// Targeted object hiding: maximize PSR toward `target_class` (Eq. 1/3).
std::unique_ptr<Objective> make_hiding_objective(int target_class, float success_psr);

/// Bounded epsilon-clip parameterization (Algorithm 1).
std::unique_ptr<Projection> make_clip_projection(const AttackConfig& config);
/// CW tanh reparameterization with distance + smoothness penalties.
std::unique_ptr<Projection> make_tanh_projection(const AttackConfig& config);

/// Sign-of-gradient descent with fixed step size.
std::unique_ptr<StepRule> make_sign_step(float step_size);
/// Adam over the projection's persistent variables.
std::unique_ptr<StepRule> make_adam_step(float lr);

/// Budget + convergence stop; `stall_patience > 0` additionally requests
/// a random restart whenever the gain fails to improve for that many
/// consecutive steps.
std::unique_ptr<StopCriterion> make_standard_stop(int max_steps, int stall_patience);

}  // namespace pcss::core
