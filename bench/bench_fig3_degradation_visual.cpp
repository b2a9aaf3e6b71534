// Reproduces Figure 3: three indoor scenes (the paper uses conference
// room / hallway / lobby) under the color-based norm-unbounded
// performance-degradation attack against PointNet++. For each scene a
// 4-panel PPM is written: original scene, original segmentation,
// perturbed scene, perturbed segmentation.
#include "bench_common.h"
#include "pcss/viz/render.h"

using namespace pcss::core;
using pcss::bench::base_config;
using pcss::bench::print_header;
using pcss::viz::Image;

int main() {
  print_header("Figure 3 - degradation visualizations (PointNet++, 3 scenes)");
  pcss::train::ModelZoo zoo;
  auto model = zoo.pointnet2_indoor();
  const auto clouds = zoo.indoor_eval_scenes(3, /*seed=*/3100);
  const std::string dir = pcss::bench::figures_dir();

  AttackConfig config = base_config(AttackNorm::kUnbounded, AttackField::kColor);
  config.success_accuracy = 1.0f / 13.0f;

  for (size_t i = 0; i < clouds.size(); ++i) {
    const auto& cloud = clouds[i];
    const auto clean_pred = model->predict(cloud);
    const AttackResult adv = AttackEngine(*model, config).run(cloud);

    const int w = 220, h = 220;
    const Image panel = Image::hstack({
        pcss::viz::render_cloud_colors(cloud, w, h),
        pcss::viz::render_cloud_labels(cloud, clean_pred, w, h),
        pcss::viz::render_cloud_colors(adv.perturbed, w, h),
        pcss::viz::render_cloud_labels(adv.perturbed, adv.predictions, w, h),
    });
    const std::string path = dir + "/fig3_scene" + std::to_string(i) + ".ppm";
    panel.save_ppm(path);

    const double clean_acc =
        evaluate_segmentation(clean_pred, cloud.labels, 13).accuracy;
    const double adv_acc =
        evaluate_segmentation(adv.predictions, cloud.labels, 13).accuracy;
    std::printf("  scene %zu: acc %.2f%% -> %.2f%% (L2=%.2f), wrote %s\n", i,
                100.0 * clean_acc, 100.0 * adv_acc, adv.l2_color, path.c_str());
  }
  std::printf("\nExpected shape (paper Fig. 3): visually small color perturbations\n"
              "produce drastic changes in the segmentation panels.\n");
  return 0;
}
