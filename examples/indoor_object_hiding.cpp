// Object-hiding walkthrough (the paper's integrity attack): recolor a
// board so PointNet++ labels it as wall — the board "disappears" from
// the model's view (paper Figs. 1 & 4). Exports before/after clouds as
// PLY (open in MeshLab/CloudCompare) and a 4-panel PPM.
#include <cstdio>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/pointcloud/io.h"
#include "pcss/train/model_zoo.h"
#include "pcss/viz/render.h"

using namespace pcss::core;
using pcss::data::IndoorClass;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;

int main() {
  pcss::train::ModelZoo zoo;
  auto model = zoo.pointnet2_indoor();

  // Pick a scene with a usable board, like the paper's Office 33 scenes.
  IndoorSceneGenerator gen(pcss::train::zoo_indoor_config());
  Rng rng(2024);
  const int source = static_cast<int>(IndoorClass::kBoard);
  const int target = static_cast<int>(IndoorClass::kWall);
  const auto cloud = gen.generate_with_class(rng, source, 12);
  std::printf("scene: %lld points, %lld on the board\n",
              static_cast<long long>(cloud.size()),
              static_cast<long long>(pcss::data::count_label(cloud, source)));

  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.norm = AttackNorm::kUnbounded;
  config.field = AttackField::kColor;
  config.cw_steps = 150;
  config.target_class = target;
  config.target_mask = mask_for_class(cloud.labels, source);
  config.success_psr = 0.95f;

  // The engine validates the config against the model (target class in
  // range, mask present) and reports optimization progress through the
  // observer callback of its execution policy.
  ExecPolicy policy;
  policy.observer = [](const AttackProgress& p) {
    if (p.step % 25 == 0) {
      std::printf("  step %3d: PSR=%5.1f%%\n", p.step, 100.0 * p.gain);
    }
  };
  const AttackResult result = AttackEngine(*model, config).run(cloud, policy);
  const double psr = point_success_rate(result.predictions, config.target_mask, target);
  const SegMetrics oob = evaluate_oob(result.predictions, cloud.labels, 13,
                                      config.target_mask);
  std::printf("PSR=%.1f%% (board points now labeled wall), OOB accuracy=%.1f%%, "
              "L2=%.2f, %d steps\n",
              100.0 * psr, 100.0 * oob.accuracy, result.l2_color, result.steps_used);

  pcss::pointcloud::save_ply(cloud, "hiding_before.ply");
  pcss::pointcloud::save_ply(result.perturbed, "hiding_after.ply");
  const auto clean_pred = model->predict(cloud);
  const auto panel = pcss::viz::Image::hstack({
      pcss::viz::render_cloud_colors(cloud, 240, 240, pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_labels(cloud, clean_pred, 240, 240,
                                     pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_colors(result.perturbed, 240, 240,
                                     pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_labels(result.perturbed, result.predictions, 240, 240,
                                     pcss::viz::ViewAxis::kSide),
  });
  panel.save_ppm("hiding_panels.ppm");
  std::printf("wrote hiding_before.ply, hiding_after.ply, hiding_panels.ppm\n");
  return 0;
}
