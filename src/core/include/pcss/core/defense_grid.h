#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_stage.h"

namespace pcss::core {

// ---------------------------------------------------------------------------
// Attack x defense x victim evaluation grid (paper §V-F + §V-G).
//
// One driver subsumes the defended evaluation (Table VIII: defense on,
// victim == source) and the transferability evaluation (Table IX:
// defense "none", victim != source): each attack column runs once on the
// source model, and every (defense, victim) pair then scores the same
// adversarial clouds — victims are compared on identical defended input.
// ---------------------------------------------------------------------------

/// One attack column. A `clean` column skips the engine and evaluates
/// the unperturbed clouds (the grid's baseline row).
struct GridAttack {
  std::string label;
  bool clean = false;
  AttackConfig config{};
};

struct GridDefense {
  std::string label;
  DefensePipeline pipeline;  ///< empty = "none"
};

struct GridVictim {
  std::string label;
  SegmentationModel* model = nullptr;
};

/// One cloud in one (attack x defense x victim) cell. Metrics are scored
/// on the surviving points against the original ground truth permuted
/// through the pipeline's index map.
struct GridCase {
  double accuracy = 0.0;
  double aiou = 0.0;
  std::int64_t points_kept = 0;
};

struct GridCell {
  std::string attack;
  std::string defense;
  std::string victim;
  std::vector<GridCase> cases;  ///< cloud order
};

/// Attack-side bookkeeping, one per attack column (zeros for clean).
struct GridAttackTrace {
  std::string label;
  std::vector<double> l2_color;   ///< per cloud
  std::vector<long long> steps;   ///< per cloud
};

struct DefenseGridResult {
  std::vector<GridCell> cells;  ///< attack-major, then defense, then victim
  std::vector<GridAttackTrace> attacks;
};

struct DefenseGridOptions {
  /// Base seed of the defense draws; cell (attack, defense, cloud g)
  /// uses defense_cell_seed(defense_seed, labels, g).
  std::uint64_t defense_seed = 11000;
  /// Global index of clouds[0]. Shard executors pass their offset so
  /// attack RNG (config.seed + global index) and defense streams are
  /// invariant under any partitioning of the cloud list.
  std::size_t cloud_index_base = 0;
  /// How the attack columns execute (threads, compiled plans). Never
  /// changes the result.
  ExecPolicy policy;
};

/// Runs every non-clean attack column once on `source` (batched, RNG
/// stream seed + global cloud index), applies every defense once per
/// (attack, cloud), and scores every victim on the shared defended
/// clouds. Deterministic: the result is a pure function of the inputs,
/// seeds, and cloud_index_base for any thread count.
DefenseGridResult evaluate_defense_grid(SegmentationModel& source,
                                        std::span<const GridVictim> victims,
                                        std::span<const PointCloud> clouds,
                                        std::span<const GridAttack> attacks,
                                        std::span<const GridDefense> defenses,
                                        const DefenseGridOptions& options = {});

}  // namespace pcss::core
