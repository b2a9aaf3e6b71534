#include "pcss/core/attack_engine.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/optim.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/simd.h"

namespace pcss::core {

namespace ops = pcss::tensor::ops;
namespace obs = pcss::obs;
namespace tplan = pcss::tensor::plan;
using pcss::pointcloud::Vec3;

namespace {

float atanh_clamped(float x) {
  const float c = std::clamp(x, -1.0f + 1e-6f, 1.0f - 1e-6f);
  return 0.5f * std::log((1.0f + c) / (1.0f - c));
}

/// Initialization variant: saturated channels (exactly 0 or 1) would map
/// to |w| ~ 7 where tanh' ~ 1e-6 and Adam cannot move them. Pulling the
/// start point into tanh's live region costs at most ~2% initial color
/// shift and keeps every channel attackable.
float atanh_init(float x) { return atanh_clamped(std::clamp(x, -0.96f, 0.96f)); }

std::vector<std::uint8_t> full_mask_if_empty(const std::vector<std::uint8_t>& mask,
                                             std::int64_t n) {
  if (!mask.empty()) return mask;
  return std::vector<std::uint8_t>(static_cast<size_t>(n), 1);
}

/// Eq. 12 L0 schedule: per iteration the least impactful points are
/// removed from the perturbable set until fewer than 10% of X_T remain.
struct MinImpactSchedule {
  std::vector<std::uint8_t> allowed;
  std::int64_t initial_count = 0;
  std::int64_t current_count = 0;
  std::int64_t n_per_iter = 0;
  bool restoring = true;

  void init(const std::vector<std::uint8_t>& mask, float fraction) {
    allowed = mask;
    initial_count = std::count(mask.begin(), mask.end(), std::uint8_t{1});
    current_count = initial_count;
    n_per_iter = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<float>(initial_count) * fraction));
  }

  /// Removes the n least impactful (|g . r| smallest) allowed points;
  /// returns their indices so the caller can restore their perturbation.
  std::vector<std::int64_t> restore_step(const pcss::tensor::FloatBuffer& grad,
                                         const std::vector<float>& delta) {
    if (!restoring) return {};
    std::vector<std::pair<float, std::int64_t>> impact;
    for (size_t i = 0; i < allowed.size(); ++i) {
      if (!allowed[i]) continue;
      float dot = 0.0f;
      for (int a = 0; a < 3; ++a) dot += grad[i * 3 + a] * delta[i * 3 + a];
      impact.emplace_back(std::abs(dot), static_cast<std::int64_t>(i));
    }
    const auto n = static_cast<size_t>(std::min<std::int64_t>(
        n_per_iter, static_cast<std::int64_t>(impact.size())));
    std::partial_sort(impact.begin(), impact.begin() + static_cast<std::ptrdiff_t>(n),
                      impact.end());
    std::vector<std::int64_t> removed;
    for (size_t i = 0; i < n; ++i) {
      allowed[static_cast<size_t>(impact[i].second)] = 0;
      removed.push_back(impact[i].second);
    }
    current_count -= static_cast<std::int64_t>(n);
    // Once fewer than 10% of X_T remain, perturb without restoration.
    if (current_count < initial_count / 10 + 1) restoring = false;
    return removed;
  }
};

/// Differentiable raw-unit perturbations for one optimization step.
/// Undefined tensors mean "this field is not attacked".
struct FieldDeltas {
  Tensor color;  ///< [N,3] additive RGB delta, raw [0,1] units
  Tensor coord;  ///< [N,3] additive position delta, meters
};

// ---------------------------------------------------------------------------
// Objective (Eq. 10 / Eq. 11)
// ---------------------------------------------------------------------------

/// What the attacker optimizes: the untargeted degradation hinge (Eq. 4/5,
/// Eq. 11) or the targeted hiding hinge (Eq. 1/3, Eq. 10), with the scalar
/// progress measure the loop reports and stops on.
struct Objective {
  explicit Objective(const AttackConfig& config)
      : hiding(config.objective == AttackObjective::kObjectHiding),
        target_class(config.target_class),
        threshold(hiding ? config.success_psr : config.success_accuracy) {}

  Tensor loss(const Tensor& logits, const PointCloud& cloud,
              const std::vector<std::uint8_t>& mask) const {
    if (!hiding) {
      return ops::hinge_margin_loss(logits, cloud.labels, mask, /*targeted=*/false);
    }
    std::vector<int> targets(static_cast<size_t>(cloud.size()), target_class);
    return ops::hinge_margin_loss(logits, targets, mask, /*targeted=*/true);
  }

  /// Larger is always better for the attacker: PSR for hiding,
  /// 1 - accuracy for degradation.
  double gain(const std::vector<int>& predictions, const PointCloud& cloud,
              const std::vector<std::uint8_t>& mask, int num_classes) const {
    if (hiding) return point_success_rate(predictions, mask, target_class);
    return 1.0 -
           evaluate_segmentation_masked(predictions, cloud.labels, num_classes, mask).accuracy;
  }

  /// Whether `gain` meets the success threshold (negative: never).
  bool converged(double gain) const {
    if (threshold < 0.0f) return false;
    return hiding ? gain >= threshold : (1.0 - gain) <= threshold;
  }

  bool hiding;
  int target_class;
  float threshold;  ///< success_psr (hiding) or success_accuracy
};

// ---------------------------------------------------------------------------
// Projections: how the perturbation is parameterized, kept feasible and
// updated. One per norm regime; stateful per run, so every cloud gets its
// own instance.
// ---------------------------------------------------------------------------

class Projection {
 public:
  explicit Projection(const AttackConfig& config) : config_(config) {}
  virtual ~Projection() = default;

  virtual void init(const PointCloud& cloud, const std::vector<std::uint8_t>& mask,
                    Rng& rng) = 0;

  /// Builds this eager step's differentiable deltas (kept internally so
  /// the loss, the gain snapshot and the restoration can reference them).
  virtual FieldDeltas make_deltas() = 0;

  /// Called before every plan replay, in place of make_deltas.
  virtual void before_replay() {}

  /// Composes the full step loss from the adversarial term. The bounded
  /// regime optimizes the hinge alone (constraints live in update());
  /// the unbounded regime adds the Eq. 3/5 distance and Eq. 9 smoothness.
  virtual Tensor total_loss(const Tensor& adversarial) { return adversarial; }

  /// Clears the persistent variables' gradients before backward.
  virtual void zero_grad() {}

  /// Called with each step's measured gain before the stop decision.
  virtual void observe_gain(double gain) { (void)gain; }

  /// One update from this step's gradients: the step rule, the
  /// feasibility projection, a due random restart, then the Eq. 12 L0
  /// restoration.
  virtual void update(Rng& rng) = 0;

  /// Explicit capture-invalidation epoch: bumped whenever the step graph's
  /// *shape* changed (an L0 restoration shrank a mask that is baked into
  /// the graph, for example). The engine drops its plan and re-captures
  /// when the epoch moves.
  std::uint64_t plan_epoch() const { return epoch_; }

  /// Final raw-unit deltas to apply to the cloud; null = field untouched.
  /// Called once after the loop ends; may materialize internal state.
  virtual const std::vector<float>* final_color_delta() = 0;
  virtual const std::vector<float>* final_coord_delta() = 0;

 protected:
  /// Per-cloud setup shared by both regimes: the attacked fields, the
  /// perturbable set and the Eq. 12 schedules.
  void init_common(const PointCloud& cloud, const std::vector<std::uint8_t>& mask) {
    mask_ = mask;
    n_ = cloud.size();
    use_color_ = config_.field != AttackField::kCoordinate;
    use_coord_ = config_.field != AttackField::kColor;
    sparsify_color_ = use_color_ && config_.l0_on_color;
    if (use_coord_) coord_schedule_.init(mask_, config_.min_impact_fraction);
    if (sparsify_color_) color_schedule_.init(mask_, config_.min_impact_fraction);
  }

  const AttackConfig& config_;
  std::vector<std::uint8_t> mask_;
  std::int64_t n_ = 0;
  bool use_color_ = false, use_coord_ = false, sparsify_color_ = false;
  MinImpactSchedule coord_schedule_, color_schedule_;
  std::uint64_t epoch_ = 0;  ///< capture-invalidation counter
};

// ---------------------------------------------------------------------------
// Bounded epsilon-clip parameterization with sign-PGD (Algorithm 1)
// ---------------------------------------------------------------------------

class ClipProjection final : public Projection {
 public:
  using Projection::Projection;

  void init(const PointCloud& cloud, const std::vector<std::uint8_t>& mask,
            Rng& rng) override {
    init_common(cloud, mask);
    cloud_ = &cloud;
    cdelta_.assign(static_cast<size_t>(n_ * 3), 0.0f);
    pdelta_.assign(static_cast<size_t>(n_ * 3), 0.0f);

    // Random initialization (Algorithm 1); color and coordinate draws are
    // interleaved per point to keep the RNG stream stable across fields.
    for (std::int64_t i = 0; i < n_; ++i) {
      if (!mask_[static_cast<size_t>(i)]) continue;
      for (int a = 0; a < 3; ++a) {
        if (use_color_) {
          cdelta_[static_cast<size_t>(i * 3 + a)] =
              rng.uniform(-config_.epsilon, config_.epsilon);
        }
        if (use_coord_) {
          pdelta_[static_cast<size_t>(i * 3 + a)] =
              rng.uniform(-config_.coord_epsilon, config_.coord_epsilon);
        }
      }
    }
    if (use_color_) project_color();
  }

  FieldDeltas make_deltas() override {
    refresh_leaves();
    return {cd_, pd_};
  }

  /// A replay reads the same persistent leaves the eager step built.
  void before_replay() override { refresh_leaves(); }

  void update(Rng& /*rng*/) override {
    // Sign-of-gradient descent; both hinges (Eq. 10 and Eq. 11) are
    // positive while the attack has not yet succeeded on a point, so
    // descent is the working direction for both objectives.
    if (use_color_) {
      sign_step(cdelta_, cd_, sparsify_color_ ? color_schedule_.allowed : mask_);
    }
    if (use_coord_) sign_step(pdelta_, pd_, coord_schedule_.allowed);

    if (use_color_) project_color();
    if (use_coord_) {
      for (auto& d : pdelta_) d = std::clamp(d, -config_.coord_epsilon,
                                             config_.coord_epsilon);
    }

    if (sparsify_color_) restore(cdelta_, cd_, color_schedule_);
    if (use_coord_) restore(pdelta_, pd_, coord_schedule_);
  }

  const std::vector<float>* final_color_delta() override {
    return use_color_ ? &cdelta_ : nullptr;
  }
  const std::vector<float>* final_coord_delta() override {
    return use_coord_ ? &pdelta_ : nullptr;
  }

 private:
  /// The leaf tensors persist across steps: values are refreshed from the
  /// raw delta storage the sign step mutates, and gradients zeroed in
  /// place, so the inner loop re-tensorizes without allocating (backward()
  /// released last step's graph, leaving these leaves untouched).
  void refresh_leaves() {
    if (use_color_) refresh_leaf(cd_, cdelta_);
    if (use_coord_) refresh_leaf(pd_, pdelta_);
  }

  void refresh_leaf(Tensor& leaf, const std::vector<float>& values) const {
    if (!leaf.defined()) {
      leaf = Tensor::from_data({n_, 3}, values);
      leaf.set_requires_grad(true);
      return;
    }
    std::copy(values.begin(), values.end(), leaf.data());
    leaf.zero_grad();
  }

  void sign_step(std::vector<float>& delta, const Tensor& leaf,
                 const std::vector<std::uint8_t>& active) const {
    const auto& g = leaf.grad();
    if (g.empty()) return;
    for (std::int64_t i = 0; i < n_; ++i) {
      if (!active[static_cast<size_t>(i)]) continue;
      for (int a = 0; a < 3; ++a) {
        const float gv = g[static_cast<size_t>(i * 3 + a)];
        if (gv != 0.0f) {
          delta[static_cast<size_t>(i * 3 + a)] -=
              config_.step_size * (gv > 0.0f ? 1.0f : -1.0f);
        }
      }
    }
  }

  /// Eq. 12: zero the least impactful points' deltas. Every restoration
  /// bumps the epoch, the explicit capture invalidation the engine's plan
  /// fallback keys off instead of replaying through a stale perturbable set.
  void restore(std::vector<float>& delta, const Tensor& leaf, MinImpactSchedule& schedule) {
    if (leaf.grad().empty()) return;
    const auto removed_pts = schedule.restore_step(leaf.grad(), delta);
    if (!removed_pts.empty()) ++epoch_;
    for (std::int64_t removed : removed_pts) {
      for (int a = 0; a < 3; ++a) delta[static_cast<size_t>(removed * 3 + a)] = 0.0f;
    }
  }

  void project_color() {
    for (std::int64_t i = 0; i < n_; ++i) {
      for (int a = 0; a < 3; ++a) {
        float& d = cdelta_[static_cast<size_t>(i * 3 + a)];
        d = std::clamp(d, -config_.epsilon, config_.epsilon);
        const float c = cloud_->colors[static_cast<size_t>(i)][a];
        d = std::clamp(c + d, 0.0f, 1.0f) - c;  // keep color physically valid
      }
    }
  }

  const PointCloud* cloud_ = nullptr;
  std::vector<float> cdelta_, pdelta_;
  Tensor cd_, pd_;  ///< this step's leaf tensors (gradients land here)
};

// ---------------------------------------------------------------------------
// CW tanh reparameterization (Eq. 7) with Eq. 3/5 penalties, Adam and the
// stall-triggered random restart (§IV-B)
// ---------------------------------------------------------------------------

class TanhProjection final : public Projection {
 public:
  using Projection::Projection;

  void init(const PointCloud& cloud, const std::vector<std::uint8_t>& mask,
            Rng& rng) override {
    init_common(cloud, mask);

    // Color maps to [0,1]; coordinates map into the cloud's bounding box.
    const auto box = pcss::pointcloud::compute_bbox(cloud.positions);
    Vec3 lo = box.min, hi = box.max;
    for (int a = 0; a < 3; ++a) {
      if (hi[a] - lo[a] < 1e-4f) hi[a] = lo[a] + 1e-4f;
    }

    w_color0_.assign(static_cast<size_t>(n_ * 3), 0.0f);
    w_coord0_.assign(static_cast<size_t>(n_ * 3), 0.0f);
    for (std::int64_t i = 0; i < n_; ++i) {
      for (int a = 0; a < 3; ++a) {
        const float c = cloud.colors[static_cast<size_t>(i)][a];
        w_color0_[static_cast<size_t>(i * 3 + a)] = atanh_init(2.0f * c - 1.0f);
        const float p = cloud.positions[static_cast<size_t>(i)][a];
        w_coord0_[static_cast<size_t>(i * 3 + a)] =
            atanh_init(2.0f * (p - lo[a]) / (hi[a] - lo[a]) - 1.0f);
      }
    }
    w_color_ = Tensor::from_data({n_, 3}, w_color0_);
    w_coord_ = Tensor::from_data({n_, 3}, w_coord0_);
    // Small random start so the optimizer does not begin exactly at zero
    // perturbation (mirrors the bounded attack's random init).
    for (std::int64_t i = 0; i < n_ * 3; ++i) {
      if (!mask_[static_cast<size_t>(i / 3)]) continue;
      if (use_color_) w_color_.data()[i] += rng.normal(0.05f);
      if (use_coord_) w_coord_.data()[i] += rng.normal(0.05f);
    }
    w_color_.set_requires_grad(use_color_);
    w_coord_.set_requires_grad(use_coord_);
    std::vector<Tensor> vars;
    if (use_color_) vars.push_back(w_color_);
    if (use_coord_) vars.push_back(w_coord_);
    adam_.emplace(std::move(vars), config_.adam_lr);

    // Constant tensors reused every step.
    std::vector<float> color0(static_cast<size_t>(n_ * 3)),
        coord0(static_cast<size_t>(n_ * 3));
    for (std::int64_t i = 0; i < n_; ++i) {
      for (int a = 0; a < 3; ++a) {
        color0[static_cast<size_t>(i * 3 + a)] = cloud.colors[static_cast<size_t>(i)][a];
        coord0[static_cast<size_t>(i * 3 + a)] = cloud.positions[static_cast<size_t>(i)][a];
      }
    }
    color0_t_ = Tensor::from_data({n_, 3}, color0);
    coord0_t_ = Tensor::from_data({n_, 3}, coord0);
    std::vector<float> coord_scale(static_cast<size_t>(n_ * 3)),
        coord_offset(static_cast<size_t>(n_ * 3));
    for (std::int64_t i = 0; i < n_; ++i) {
      for (int a = 0; a < 3; ++a) {
        coord_scale[static_cast<size_t>(i * 3 + a)] = (hi[a] - lo[a]) * 0.5f;
        coord_offset[static_cast<size_t>(i * 3 + a)] = lo[a] + (hi[a] - lo[a]) * 0.5f;
      }
    }
    coord_scale_t_ = Tensor::from_data({n_, 3}, coord_scale);
    coord_offset_t_ = Tensor::from_data({n_, 3}, coord_offset);

    // Smoothness (Eq. 9) neighborhoods from the unperturbed geometry.
    alpha_ = static_cast<int>(std::min<std::int64_t>(config_.smooth_alpha, n_ - 1));
    if (alpha_ > 0) {
      smooth_idx_ = pcss::pointcloud::knn_self(cloud.positions, alpha_,
                                               /*include_self=*/false);
    }
  }

  /// The whole tanh mapping + penalty graph is captured, so a replay needs
  /// no before_replay work: the optimization variables (w_color_/w_coord_)
  /// are persistent leaves Adam updates in place, and cdelta_t_/pdelta_t_
  /// keep pointing at the captured mapped nodes so observe_gain reads
  /// replay-fresh values.
  FieldDeltas make_deltas() override {
    FieldDeltas deltas;
    if (use_color_) {
      if (!color_mask_t_.defined()) {
        color_mask_t_ =
            mask_tensor(sparsify_color_ ? color_schedule_.allowed : mask_);
      }
      Tensor mapped = ops::scale(ops::add_scalar(ops::tanh_op(w_color_), 1.0f), 0.5f);
      cdelta_t_ = ops::mul(ops::sub(mapped, color0_t_), color_mask_t_);
      deltas.color = cdelta_t_;
    }
    if (use_coord_) {
      if (!coord_mask_t_.defined()) coord_mask_t_ = mask_tensor(coord_schedule_.allowed);
      Tensor mapped =
          ops::add(ops::mul(ops::tanh_op(w_coord_), coord_scale_t_), coord_offset_t_);
      pdelta_t_ = ops::mul(ops::sub(mapped, coord0_t_), coord_mask_t_);
      deltas.coord = pdelta_t_;
    }
    return deltas;
  }

  /// Loss of Eq. 3 (hiding) / Eq. 5 (degradation):
  ///   D(R) + lambda1 * L + lambda2 * S(X').
  /// Both hinge losses are minimized: Eq. 4 writes "arg max L_NT", but
  /// maximizing the Eq. 11 hinge would *increase* the correct-class
  /// margin; the working update is descent once the loss signs are
  /// reconciled.
  Tensor total_loss(const Tensor& adversarial) override {
    Tensor distance = Tensor::from_data({1}, {0.0f});
    if (use_color_) distance = ops::add(distance, ops::sum(ops::square(cdelta_t_)));
    if (use_coord_) distance = ops::add(distance, ops::sum(ops::square(pdelta_t_)));
    Tensor loss = ops::add(distance, ops::scale(adversarial, config_.lambda1));
    if (alpha_ > 0) {
      if (use_color_) {
        Tensor smooth =
            ops::smoothness_penalty(ops::add(color0_t_, cdelta_t_), smooth_idx_, alpha_);
        loss = ops::add(loss, ops::scale(smooth, config_.lambda2));
      }
      if (use_coord_) {
        Tensor smooth =
            ops::smoothness_penalty(ops::add(coord0_t_, pdelta_t_), smooth_idx_, alpha_);
        loss = ops::add(loss, ops::scale(smooth, config_.lambda2));
      }
    }
    return loss;
  }

  void zero_grad() override { adam_->zero_grad(); }

  /// Snapshots the best-so-far deltas and counts the steps since the gain
  /// last improved. Restarts never reset the best gain.
  void observe_gain(double gain) override {
    if (gain > best_gain_ + 1e-9) {
      best_gain_ = gain;
      stall_ = 0;
      if (use_color_) {
        best_cdelta_.assign(cdelta_t_.data(), cdelta_t_.data() + n_ * 3);
      }
      if (use_coord_) {
        best_pdelta_.assign(pdelta_t_.data(), pdelta_t_.data() + n_ * 3);
      }
    } else {
      ++stall_;
    }
  }

  void update(Rng& rng) override {
    adam_->step();
    if (stall_ >= config_.stall_patience) {
      stall_ = 0;
      random_restart(rng);
    }
    restore();
  }

  const std::vector<float>* final_color_delta() override {
    materialize();
    return use_color_ ? &best_cdelta_ : nullptr;
  }
  const std::vector<float>* final_coord_delta() override {
    materialize();
    return use_coord_ ? &best_pdelta_ : nullptr;
  }

 private:
  /// Random restart when the gain stalls (paper §IV-B): add uniform
  /// noise to the optimization variable on the attacked points.
  void random_restart(Rng& rng) {
    for (std::int64_t i = 0; i < n_; ++i) {
      if (!mask_[static_cast<size_t>(i)]) continue;
      for (int a = 0; a < 3; ++a) {
        if (use_color_) w_color_.data()[i * 3 + a] += rng.uniform(0.0f, 1.0f) - 0.5f;
        if (use_coord_) w_coord_.data()[i * 3 + a] += rng.uniform(0.0f, 1.0f) - 0.5f;
      }
    }
  }

  /// Eq. 12 restoration: reset the restored points' variables to their
  /// zero-perturbation value.
  void restore() {
    if (use_coord_ && !w_coord_.grad().empty()) {
      std::vector<float> pdata(pdelta_t_.data(), pdelta_t_.data() + n_ * 3);
      const auto removed_pts = coord_schedule_.restore_step(w_coord_.grad(), pdata);
      if (!removed_pts.empty()) {
        // Schedule shrank: the next make_deltas builds a fresh mask node,
        // so any captured graph (which multiplies by the *old* node) is
        // structurally stale — bump the epoch to force re-capture.
        coord_mask_t_ = Tensor();
        ++epoch_;
      }
      for (std::int64_t removed : removed_pts) {
        for (int a = 0; a < 3; ++a) {
          w_coord_.data()[removed * 3 + a] = w_coord0_[static_cast<size_t>(removed * 3 + a)];
        }
      }
    }
    if (sparsify_color_ && !w_color_.grad().empty()) {
      std::vector<float> cdata(cdelta_t_.data(), cdelta_t_.data() + n_ * 3);
      const auto removed_pts = color_schedule_.restore_step(w_color_.grad(), cdata);
      if (!removed_pts.empty()) {
        color_mask_t_ = Tensor();
        ++epoch_;
      }
      for (std::int64_t removed : removed_pts) {
        for (int a = 0; a < 3; ++a) {
          w_color_.data()[removed * 3 + a] = w_color0_[static_cast<size_t>(removed * 3 + a)];
        }
      }
    }
  }

  void materialize() {
    if (best_gain_ < 0.0) {  // no step ran; fall back to zero perturbation
      best_cdelta_.assign(static_cast<size_t>(n_ * 3), 0.0f);
      best_pdelta_.assign(static_cast<size_t>(n_ * 3), 0.0f);
      best_gain_ = 0.0;
    }
  }

  Tensor mask_tensor(const std::vector<std::uint8_t>& m) const {
    std::vector<float> md(static_cast<size_t>(n_ * 3), 0.0f);
    for (std::int64_t i = 0; i < n_; ++i) {
      if (m[static_cast<size_t>(i)]) {
        for (int a = 0; a < 3; ++a) md[static_cast<size_t>(i * 3 + a)] = 1.0f;
      }
    }
    return Tensor::from_data({n_, 3}, std::move(md));
  }

  int alpha_ = 0;
  std::vector<float> w_color0_, w_coord0_;
  Tensor w_color_, w_coord_;
  std::optional<pcss::tensor::optim::Adam> adam_;  ///< over the attacked w_* only
  Tensor color0_t_, coord0_t_, coord_scale_t_, coord_offset_t_;
  std::vector<std::int64_t> smooth_idx_;
  Tensor cdelta_t_, pdelta_t_;  ///< this step's mapped deltas
  /// Cached constant mask tensors; invalidated when a restoration step
  /// shrinks the corresponding schedule.
  Tensor color_mask_t_, coord_mask_t_;
  double best_gain_ = -1.0;
  int stall_ = 0;  ///< steps since best_gain_ last improved
  std::vector<float> best_cdelta_, best_pdelta_;
};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Temporarily disables gradient accumulation into the model's
/// parameters. Attacks only need input gradients; skipping parameter
/// accumulation makes concurrent backward passes over one shared model
/// race-free (and saves work).
class ScopedParamFreeze {
 public:
  explicit ScopedParamFreeze(SegmentationModel& model) : params_(model.parameters()) {
    saved_.reserve(params_.size());
    for (auto& p : params_) {
      saved_.push_back(p.requires_grad());
      p.set_requires_grad(false);
    }
  }
  ~ScopedParamFreeze() {
    for (size_t i = 0; i < params_.size(); ++i) params_[i].set_requires_grad(saved_[i]);
  }
  ScopedParamFreeze(const ScopedParamFreeze&) = delete;
  ScopedParamFreeze& operator=(const ScopedParamFreeze&) = delete;

 private:
  std::vector<Tensor> params_;
  std::vector<bool> saved_;
};

/// Long-lived worker pool for loops that dispatch many small parallel
/// rounds (run_shared runs one round per optimization step). Unlike
/// parallel_for, the threads persist across rounds, so each worker's
/// thread-local tensor buffer pool stays warm instead of being rebuilt
/// from malloc and torn down every step. Job results are independent;
/// scheduling affects only timing, never values.
class WorkerPool {
 public:
  explicit WorkerPool(int workers) {
    for (int t = 0; t < workers - 1; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn) {
    if (threads_.empty() || jobs <= 1) {
      for (std::size_t i = 0; i < jobs; ++i) fn(i);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      jobs_ = jobs;
      next_.store(0);
      failed_.store(false);
      error_ = nullptr;
      active_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    cv_.notify_all();
    drain();  // the calling thread participates
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] { return active_ == 0; });
    fn_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void worker_loop() {
    std::uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      lock.unlock();
      drain();
      lock.lock();
      if (--active_ == 0) cv_done_.notify_all();
    }
  }

  /// Claims indices until the round is exhausted. On an exception the
  /// first error is kept and remaining indices drain without executing.
  void drain() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1);
      if (i >= jobs_) return;
      if (failed_.load(std::memory_order_relaxed)) continue;
      try {
        (*fn_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
  }

  std::vector<std::thread> threads_;  // pcss-lint: allow(C001) — this IS the WorkerPool
  // GUARDS: fn_, jobs_, error_, active_, generation_, stop_ (round
  // hand-off state; next_/failed_ are atomics claimed lock-free in drain)
  std::mutex mutex_;
  std::condition_variable cv_, cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t jobs_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  int active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Runs fn(0..jobs-1) across `workers` threads (inline when <= 1) via a
/// one-shot WorkerPool, so there is a single work-distribution and
/// error-propagation implementation. Deterministic for independent jobs:
/// scheduling affects only timing.
void parallel_for(std::size_t jobs, int workers,
                  const std::function<void(std::size_t)>& fn) {
  WorkerPool pool(workers);
  pool.run(jobs, fn);
}

/// Why a step fell back from plan replay to eager execution.
enum class Fallback {
  kEpoch,         ///< the projection changed the graph (an L0 restore)
  kUncapturable,  ///< the capture failed: an op in the graph has no forward rule
};

/// Counts one fallback under its reason and in the plan.fallbacks total.
/// Telemetry only (D006).
void count_fallback(Fallback reason) {
  static obs::metrics::Counter& total = obs::metrics::counter("plan.fallbacks");
  static obs::metrics::Counter& epoch = obs::metrics::counter("plan.fallbacks.epoch");
  static obs::metrics::Counter& uncapturable =
      obs::metrics::counter("plan.fallbacks.uncapturable");
  total.add(1);
  (reason == Fallback::kEpoch ? epoch : uncapturable).add(1);
}

/// The histogram of captured plans' pinned memory,
/// tensor.plan_arena_mb.<model>, where <model> is the model name's letters
/// and digits in lower case ("resgcn"). Telemetry only (D006).
obs::metrics::Histogram& plan_arena_mb(const SegmentationModel& model) {
  static const std::vector<double> kBoundsMb = {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::string tag;
  for (const char ch : model.name()) {
    const auto u = static_cast<unsigned char>(ch);
    if (std::isalnum(u)) tag += static_cast<char>(std::tolower(u));
  }
  return obs::metrics::histogram("tensor.plan_arena_mb." + tag, kBoundsMb);
}

/// Records one captured plan's pinned bytes (values, grads, saved state).
void observe_arena(obs::metrics::Histogram& arena_mb, const tplan::CompiledPlan& plan) {
  arena_mb.observe(static_cast<double>(plan.pinned_bytes().total()) / (1024.0 * 1024.0));
}

std::string join_errors(const std::vector<std::string>& errors) {
  std::ostringstream os;
  os << "invalid AttackConfig:";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// AttackEngine
// ---------------------------------------------------------------------------

AttackEngine::AttackEngine(SegmentationModel& model, AttackConfig config)
    : model_(model), config_(std::move(config)) {
  const auto errors = config_.validate(model_.num_classes());
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));
}

int AttackEngine::worker_count(std::size_t jobs, int threads) const {
  int workers = threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), std::max<std::size_t>(jobs, 1)));
}

void AttackEngine::emit(const ExecPolicy& policy, const AttackProgress& event) const {
  if (!policy.observer) return;
  const std::lock_guard<std::mutex> lock(observer_mutex_);
  policy.observer(event);
}

AttackResult AttackEngine::run(const PointCloud& cloud, const ExecPolicy& policy) const {
  return run(cloud, config_.seed, policy);
}

AttackResult AttackEngine::run(const PointCloud& cloud, std::uint64_t seed,
                               const ExecPolicy& policy) const {
  ScopedParamFreeze freeze(model_);
  return attack_cloud(cloud, seed, 0, policy);
}

std::vector<AttackResult> AttackEngine::run_batch(std::span<const PointCloud> clouds,
                                                  const ExecPolicy& policy) const {
  ScopedParamFreeze freeze(model_);
  std::vector<AttackResult> results(clouds.size());
  parallel_for(clouds.size(), worker_count(clouds.size(), policy.threads),
               [&](std::size_t i) {
                 results[i] = attack_cloud(clouds[i], config_.seed + i, i, policy);
               });
  return results;
}

AttackResult AttackEngine::attack_cloud(const PointCloud& cloud, std::uint64_t seed,
                                        std::size_t cloud_index,
                                        const ExecPolicy& policy) const {
  if (cloud.empty()) throw std::invalid_argument("AttackEngine: empty cloud");
  if (!config_.target_mask.empty() &&
      config_.target_mask.size() != static_cast<size_t>(cloud.size())) {
    throw std::invalid_argument("AttackEngine: target_mask size mismatch");
  }
  const auto mask = full_mask_if_empty(config_.target_mask, cloud.size());

  // Telemetry only (never reaches AttackResult or any cached document):
  // spans for the trace timeline, a per-model x ISA step-latency
  // histogram, and a global step counter. Labels are interned once per
  // process; the histogram lookup happens once per cloud.
  static const obs::trace::Label kCloudSpan = obs::trace::intern("attack.cloud");
  static const obs::trace::Label kStepSpan = obs::trace::intern("attack.step");
  static const obs::trace::Label kForwardSpan = obs::trace::intern("attack.forward");
  static const obs::trace::Label kObjectiveSpan = obs::trace::intern("attack.objective");
  static const obs::trace::Label kBackwardSpan = obs::trace::intern("attack.backward");
  static const obs::trace::Label kProjectionSpan = obs::trace::intern("attack.projection");
  static const obs::trace::Label kStepArg = obs::trace::intern("step");
  obs::metrics::Histogram& step_ms = obs::metrics::histogram(
      std::string("attack.step_ms.") + model_.name() + "." +
      tensor::simd::active_name());
  obs::metrics::Counter& steps_total = obs::metrics::counter("attack.steps");
  obs::metrics::Counter& plan_captures = obs::metrics::counter("plan.captures");
  obs::metrics::Counter& plan_replays = obs::metrics::counter("plan.replays");
  obs::metrics::Histogram& arena_mb = plan_arena_mb(model_);
  obs::trace::ScopedSpan cloud_span(kCloudSpan);

  Rng rng(seed);
  const Objective objective(config_);
  // The bounded regime never restarts (Algorithm 1); the unbounded CW loop
  // restarts on a stalled gain inside its projection.
  const bool bounded = config_.norm == AttackNorm::kBounded;
  std::unique_ptr<Projection> projection;
  if (bounded) {
    projection = std::make_unique<ClipProjection>(config_);
  } else {
    projection = std::make_unique<TanhProjection>(config_);
  }
  projection->init(cloud, mask, rng);

  // Capture-once / replay-many: the first eager step is recorded into a
  // compiled plan and subsequent steps replay its flat op schedule
  // (byte-identical by construction — same kernels, same buffers, same
  // order). Restricted to color-field attacks: coordinate deltas change
  // the host-side neighbor graphs every step, so there is no fixed graph
  // to capture, and skipping that rebuild is exactly what replay buys.
  bool plan_enabled =
      policy.plan && config_.field == AttackField::kColor && model_.plan_safe_forward();
  tplan::CompiledPlan plan;
  Tensor plan_logits;  // keeps the captured graph's output node alive
  std::uint64_t plan_epoch = 0;

  int step = 0;
  const int budget = bounded ? config_.steps : config_.cw_steps;
  for (; step < budget; ++step) {
    obs::trace::ScopedSpan step_span(kStepSpan);
    step_span.arg(kStepArg, step);
    obs::metrics::ScopedTimerMs step_timer(step_ms);
    steps_total.add(1);

    if (plan.valid() && projection->plan_epoch() != plan_epoch) {
      // The projection invalidated the captured graph (an L0 restoration
      // changed its shape): drop the plan and fall back to an eager step,
      // which re-captures below.
      plan.reset();
      plan_logits = Tensor();
      count_fallback(Fallback::kEpoch);
    }

    // One step body for both modes. With a live plan the forward and
    // backward passes replay its flat schedule and the step graph is not
    // rebuilt; otherwise the step runs eagerly and, with plans enabled, is
    // recorded for replay by the builder.
    const bool replay = plan.valid();
    std::optional<tplan::PlanBuilder> builder;
    if (!replay && plan_enabled) builder.emplace();
    Tensor logits;
    if (replay) {
      plan_replays.add(1);
      projection->before_replay();
      obs::trace::ScopedSpan span(kForwardSpan);
      plan.replay_forward();
    } else {
      const FieldDeltas deltas = projection->make_deltas();
      obs::trace::ScopedSpan span(kForwardSpan);
      logits = model_.forward({&cloud, deltas.color, deltas.coord}, /*training=*/false);
    }
    const std::vector<int> pred = ops::argmax_rows(replay ? plan_logits : logits);
    const double gain = objective.gain(pred, cloud, mask, model_.num_classes());
    projection->observe_gain(gain);
    emit(policy, {cloud_index, step, gain});
    if (objective.converged(gain)) break;  // builder dtor aborts the capture

    Tensor loss;
    if (!replay) {
      obs::trace::ScopedSpan span(kObjectiveSpan);
      loss = projection->total_loss(objective.loss(logits, cloud, mask));
    }
    projection->zero_grad();
    {
      obs::trace::ScopedSpan span(kBackwardSpan);
      if (replay) {
        plan.replay_backward();
      } else {
        loss.backward();
      }
    }
    if (builder) {
      if (builder->finish(plan)) {
        plan_logits = logits;
        plan_epoch = projection->plan_epoch();
        plan_captures.add(1);
        observe_arena(arena_mb, plan);
      } else {
        // Uncapturable op in the graph (training-mode statistics, fresh
        // RNG state): stay eager for the rest of this run.
        plan_enabled = false;
        count_fallback(Fallback::kUncapturable);
      }
    }
    {
      obs::trace::ScopedSpan span(kProjectionSpan);
      projection->update(rng);
    }
  }

  AttackResult result;
  result.steps_used = step;
  result.perturbed = apply_field_deltas(cloud, projection->final_color_delta(),
                                        projection->final_coord_delta());
  result.predictions = model_.predict(result.perturbed);
  measure_perturbation(cloud, result.perturbed, result);
  return result;
}

SharedDeltaResult AttackEngine::run_shared(std::span<const PointCloud> clouds,
                                           const ExecPolicy& policy) const {
  if (clouds.empty()) throw std::invalid_argument("run_shared: no clouds");
  // The shared-delta loop always runs sign-PGD on the color field, so it
  // needs the bounded-attack fields even when config.norm is kUnbounded
  // (where validate() does not require them).
  if (config_.steps <= 0 || config_.epsilon <= 0.0f || config_.step_size <= 0.0f) {
    throw std::invalid_argument(
        "run_shared: needs positive steps, epsilon and step_size "
        "(the shared delta is optimized with bounded sign-PGD)");
  }
  const std::int64_t n = clouds.front().size();
  for (const auto& c : clouds) {
    if (c.size() != n) {
      throw std::invalid_argument("run_shared: clouds must be index-aligned");
    }
  }
  ScopedParamFreeze freeze(model_);
  // One persistent pool for every per-step round: worker threads (and
  // their thread-local tensor buffer pools) live for the whole run
  // instead of being respawned each optimization step.
  WorkerPool pool(worker_count(clouds.size(), policy.threads));

  Rng rng(config_.seed);
  SharedDeltaResult result;
  result.color_delta.assign(static_cast<size_t>(n * 3), 0.0f);
  for (auto& v : result.color_delta) v = rng.uniform(-config_.epsilon, config_.epsilon);

  result.accuracy_before.resize(clouds.size());
  pool.run(clouds.size(), [&](std::size_t ci) {
    const auto pred = model_.predict(clouds[ci]);
    result.accuracy_before[ci] =
        evaluate_segmentation(pred, clouds[ci].labels, model_.num_classes()).accuracy;
  });

  // Min-max style weights: clouds whose hinge loss is still high (attack
  // not yet succeeding) receive more of the shared update budget. The
  // per-cloud gradient passes are independent and run on the pool; the
  // weighted accumulation below walks clouds in index order, so the
  // result is identical to sequential execution.
  std::vector<double> weights(clouds.size(), 1.0);
  // Per-cloud leaf tensors persist across steps: each step refreshes the
  // values from the shared delta and zeroes the gradient in place instead
  // of re-tensorizing (backward() released the previous step's graph).
  std::vector<Tensor> deltas(clouds.size());
  std::vector<float> losses(clouds.size(), 0.0f);
  // Per-cloud compiled plans: round 0 captures each cloud's gradient pass,
  // later rounds refresh the leaf values and replay the flat schedule.
  // A plan may replay on a different worker thread than the one that
  // captured it — safe, because replay touches only the pinned buffers and
  // pool.run barriers order the rounds. plan_dead marks clouds whose
  // capture failed (they stay eager for the whole run).
  const bool plans_enabled = policy.plan && model_.plan_safe_forward();
  std::vector<tplan::CompiledPlan> plans(clouds.size());
  std::vector<Tensor> plan_losses(clouds.size());
  std::vector<std::uint8_t> plan_dead(clouds.size(), 0);
  // Telemetry only: one span per shared-PGD round plus a per-cloud
  // gradient-pass span emitted from the worker threads.
  static const obs::trace::Label kRoundSpan = obs::trace::intern("attack.shared.step");
  static const obs::trace::Label kGradSpan = obs::trace::intern("attack.shared.grad");
  static const obs::trace::Label kStepArg = obs::trace::intern("step");
  obs::metrics::Counter& shared_steps = obs::metrics::counter("attack.shared.steps");
  obs::metrics::Counter& plan_captures = obs::metrics::counter("plan.captures");
  obs::metrics::Counter& plan_replays = obs::metrics::counter("plan.replays");
  obs::metrics::Histogram& arena_mb = plan_arena_mb(model_);
  int step = 0;
  for (; step < config_.steps; ++step) {
    obs::trace::ScopedSpan round_span(kRoundSpan);
    round_span.arg(kStepArg, step);
    shared_steps.add(1);
    pool.run(clouds.size(), [&](std::size_t ci) {
      obs::trace::ScopedSpan grad_span(kGradSpan);
      Tensor& delta = deltas[ci];
      tplan::CompiledPlan& plan = plans[ci];
      const bool replay = plan.valid();
      std::optional<tplan::PlanBuilder> builder;
      if (!replay && plans_enabled && !plan_dead[ci]) builder.emplace();
      if (!delta.defined()) {
        delta = Tensor::from_data({n, 3}, result.color_delta);
        delta.set_requires_grad(true);
      } else {
        std::copy(result.color_delta.begin(), result.color_delta.end(), delta.data());
        if (!replay) delta.zero_grad();
      }
      Tensor logits;
      Tensor loss;
      if (replay) {
        plan_replays.add(1);
        plan.replay_forward();
        plan.replay_backward();
      } else {
        logits = model_.forward(ModelInput{&clouds[ci], delta, {}}, /*training=*/false);
        loss = ops::hinge_margin_loss(logits, clouds[ci].labels, {}, /*targeted=*/false);
        loss.backward();
      }
      losses[ci] = (replay ? plan_losses[ci] : loss).item();
      if (builder) {
        if (builder->finish(plan)) {
          plan_losses[ci] = loss;
          plan_captures.add(1);
          observe_arena(arena_mb, plan);
        } else {
          plan_dead[ci] = 1;
          count_fallback(Fallback::kUncapturable);
        }
      }
    });

    std::vector<double> grad_sum(static_cast<size_t>(n * 3), 0.0);
    double weight_total = 0.0;
    for (std::size_t ci = 0; ci < clouds.size(); ++ci) {
      weights[ci] = 0.5 + static_cast<double>(losses[ci]) /
                              (1.0 + static_cast<double>(losses[ci]));
      weight_total += weights[ci];
      const auto& g = deltas[ci].grad();
      if (!g.empty()) {
        for (size_t i = 0; i < grad_sum.size(); ++i) {
          grad_sum[i] += weights[ci] * static_cast<double>(g[i]);
        }
      }
    }
    if (weight_total <= 0.0) break;
    for (size_t i = 0; i < grad_sum.size(); ++i) {
      const double g = grad_sum[i];
      if (g == 0.0) continue;
      float& d = result.color_delta[i];
      // Descend the summed hinge (all clouds' margins shrink together).
      d -= config_.step_size * (g > 0.0 ? 1.0f : -1.0f);
      d = std::clamp(d, -config_.epsilon, config_.epsilon);
    }
  }
  result.steps_used = step;

  result.accuracy_after.resize(clouds.size());
  pool.run(clouds.size(), [&](std::size_t ci) {
    const PointCloud adv = apply_field_deltas(clouds[ci], &result.color_delta, nullptr);
    const auto pred = model_.predict(adv);
    result.accuracy_after[ci] =
        evaluate_segmentation(pred, clouds[ci].labels, model_.num_classes()).accuracy;
  });
  return result;
}

}  // namespace pcss::core
