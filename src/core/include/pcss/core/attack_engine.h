#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "pcss/core/attack.h"

namespace pcss::core {

/// Per-step progress event delivered to the engine observer. For batched
/// runs the callback may fire from worker threads (delivery is serialized
/// by the engine, but ordering across clouds is scheduling-dependent).
struct AttackProgress {
  std::size_t cloud_index = 0;  ///< position within run_batch (0 for run)
  int step = 0;
  double gain = 0.0;  ///< attack progress: 1 - accuracy, or PSR for hiding
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

/// Attack driver. Owns a reference to the model for its lifetime and a
/// validated AttackConfig, which alone selects the attack: the objective
/// (degradation or hiding hinge), the norm regime (bounded: epsilon-clip
/// with sign-PGD, Algorithm 1; unbounded: CW tanh with Adam and the
/// stall-triggered random restart of §IV-B) and the attacked field.
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
  /// listing every problem).
  AttackEngine(SegmentationModel& model, AttackConfig config);

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
  /// shared loop has no per-cloud gain to report).
  SharedDeltaResult run_shared(std::span<const PointCloud> clouds,
                               const ExecPolicy& policy = {}) const;

 private:
  AttackResult attack_cloud(const PointCloud& cloud, std::uint64_t seed,
                            std::size_t cloud_index, const ExecPolicy& policy) const;
  void emit(const ExecPolicy& policy, const AttackProgress& event) const;
  int worker_count(std::size_t jobs, int threads) const;

  SegmentationModel& model_;
  AttackConfig config_;
  // GUARDS: policy observer invocations (serializes per-cloud progress
  // callbacks fired from concurrent worker threads during run_batch)
  mutable std::mutex observer_mutex_;
};

}  // namespace pcss::core
