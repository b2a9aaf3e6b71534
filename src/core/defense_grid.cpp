#include "pcss/core/defense_grid.h"

#include <stdexcept>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/obs/trace.h"

namespace pcss::core {

DefenseGridResult evaluate_defense_grid(SegmentationModel& source,
                                        std::span<const GridVictim> victims,
                                        std::span<const PointCloud> clouds,
                                        std::span<const GridAttack> attacks,
                                        std::span<const GridDefense> defenses,
                                        const DefenseGridOptions& options) {
  if (victims.empty()) throw std::invalid_argument("evaluate_defense_grid: no victims");
  if (clouds.empty()) throw std::invalid_argument("evaluate_defense_grid: no clouds");
  if (attacks.empty()) throw std::invalid_argument("evaluate_defense_grid: no attacks");
  if (defenses.empty()) throw std::invalid_argument("evaluate_defense_grid: no defenses");
  for (const GridVictim& victim : victims) {
    if (victim.model == nullptr) {
      throw std::invalid_argument("evaluate_defense_grid: null victim model '" +
                                  victim.label + "'");
    }
  }

  DefenseGridResult result;

  // Attack columns run once each; every (defense, victim) pair below
  // scores the same adversarial clouds.
  std::vector<std::vector<PointCloud>> adversarial(attacks.size());
  for (std::size_t ai = 0; ai < attacks.size(); ++ai) {
    const GridAttack& attack = attacks[ai];
    GridAttackTrace trace;
    trace.label = attack.label;
    if (attack.clean) {
      adversarial[ai].assign(clouds.begin(), clouds.end());
      trace.l2_color.assign(clouds.size(), 0.0);
      trace.steps.assign(clouds.size(), 0);
    } else {
      AttackConfig config = attack.config;
      // Same convention as the runner's shards: cloud g always runs on
      // RNG stream config.seed + g, for any cloud_index_base split.
      config.seed += options.cloud_index_base;
      std::vector<AttackResult> attacked =
          AttackEngine(source, config).run_batch(clouds, options.policy);
      adversarial[ai].reserve(attacked.size());
      for (AttackResult& r : attacked) {
        trace.l2_color.push_back(r.l2_color);
        trace.steps.push_back(r.steps_used);
        adversarial[ai].push_back(std::move(r.perturbed));
      }
    }
    result.attacks.push_back(std::move(trace));
  }

  // Telemetry only: one span per (attack, defense) grid cell so a trace
  // shows which cells dominate grid wall-time. The arg records how many
  // clouds the cell scored.
  static const obs::trace::Label kCellSpan = obs::trace::intern("grid.cell");
  static const obs::trace::Label kCloudsArg = obs::trace::intern("clouds");
  for (std::size_t ai = 0; ai < attacks.size(); ++ai) {
    for (std::size_t di = 0; di < defenses.size(); ++di) {
      obs::trace::ScopedSpan cell_span(kCellSpan);
      cell_span.arg(kCloudsArg, static_cast<std::int64_t>(clouds.size()));
      const GridDefense& defense = defenses[di];
      const std::string defense_describe = defense.pipeline.describe();
      std::vector<GridCell> cells(victims.size());
      for (std::size_t vi = 0; vi < victims.size(); ++vi) {
        cells[vi].attack = attacks[ai].label;
        cells[vi].defense = defense.label;
        cells[vi].victim = victims[vi].label;
        cells[vi].cases.reserve(clouds.size());
      }
      for (std::size_t g = 0; g < clouds.size(); ++g) {
        // One defense draw per (attack, defense, cloud): every victim
        // predicts the identical defended cloud, so victim columns are
        // directly comparable. The stream depends only on the labels,
        // the defense seed, and the *global* cloud index.
        Rng rng(defense_cell_seed(options.defense_seed, attacks[ai].label,
                                  defense_describe,
                                  options.cloud_index_base + g));
        const PointCloud& adv = adversarial[ai][g];
        const DefenseOutcome outcome = defense.pipeline.apply(adv, rng);
        for (std::size_t vi = 0; vi < victims.size(); ++vi) {
          SegmentationModel& model = *victims[vi].model;
          std::vector<int> pred = model.predict(outcome.cloud);
          defense.pipeline.smooth_predictions(outcome.cloud, pred);
          std::vector<int> truth(outcome.kept.size());
          for (size_t i = 0; i < truth.size(); ++i) {
            truth[i] = adv.labels[static_cast<size_t>(outcome.kept[i])];
          }
          const SegMetrics m = evaluate_segmentation(pred, truth, model.num_classes());
          cells[vi].cases.push_back({m.accuracy, m.aiou, outcome.cloud.size()});
        }
      }
      for (GridCell& cell : cells) result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

}  // namespace pcss::core
