// Ablation: attack step budget. The paper uses Steps=50 (bounded) and
// 1000 (unbounded) and notes cost is linear in Steps; this sweep shows
// the convergence curve, i.e. how much of the damage lands in the first
// tens of iterations — the basis for this repo's CPU-scaled default of
// 150 CW steps.
#include "bench_common.h"

using namespace pcss::core;
using pcss::bench::base_config;
using pcss::bench::print_header;

int main() {
  print_header("Ablation - step budget convergence, ResGCN (degradation, color)");
  pcss::train::ModelZoo zoo;
  auto model = zoo.resgcn_indoor();
  const auto clouds = zoo.indoor_eval_scenes(2, 7300);

  std::printf("\n[norm-bounded]\n  %-7s %-9s %s\n", "steps", "Acc(%)", "L2");
  for (int steps : {5, 15, 30, 50}) {
    double acc = 0.0, l2 = 0.0;
    for (const auto& cloud : clouds) {
      AttackConfig config = base_config(AttackNorm::kBounded, AttackField::kColor);
      config.steps = steps;
      const AttackResult r = AttackEngine(*model, config).run(cloud);
      acc += evaluate_segmentation(r.predictions, cloud.labels, 13).accuracy;
      l2 += r.l2_color;
    }
    std::printf("  %-7d %-9.2f %.2f\n", steps, 100.0 * acc / clouds.size(),
                l2 / clouds.size());
  }

  std::printf("\n[norm-unbounded]\n  %-7s %-9s %s\n", "steps", "Acc(%)", "L2");
  for (int steps : {10, 40, 100, 200}) {
    double acc = 0.0, l2 = 0.0;
    for (const auto& cloud : clouds) {
      AttackConfig config = base_config(AttackNorm::kUnbounded, AttackField::kColor);
      config.cw_steps = steps;
      const AttackResult r = AttackEngine(*model, config).run(cloud);
      acc += evaluate_segmentation(r.predictions, cloud.labels, 13).accuracy;
      l2 += r.l2_color;
    }
    std::printf("  %-7d %-9.2f %.2f\n", steps, 100.0 * acc / clouds.size(),
                l2 / clouds.size());
  }
  std::printf("\nExpected shape: accuracy falls steeply within the first tens of\n"
              "steps and flattens, so the paper's 1000-step budget is a safety\n"
              "margin rather than a requirement — justifying the CPU-scaled 150.\n");
  return 0;
}
