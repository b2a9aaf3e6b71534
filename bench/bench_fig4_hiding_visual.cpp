// Reproduces Figures 1 and 4: object hiding in an office-like scene —
// the board (and in Fig. 1 additional furniture) recolored so the model
// labels it as wall, making it "disappear" from the segmentation. Writes
// a 4-panel PPM: original scene, perturbed scene, original segmentation,
// perturbed segmentation (the paper's Fig. 4 layout).
#include "bench_common.h"
#include "pcss/data/indoor.h"
#include "pcss/viz/render.h"

using namespace pcss::core;
using pcss::bench::base_config;
using pcss::bench::print_header;
using pcss::data::IndoorClass;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;
using pcss::viz::Image;

int main() {
  print_header("Figures 1 & 4 - object-hiding visualization (board -> wall, PointNet++)");
  pcss::train::ModelZoo zoo;
  auto model = zoo.pointnet2_indoor();
  IndoorSceneGenerator gen(pcss::train::zoo_indoor_config());
  Rng rng(4100);
  const auto cloud =
      gen.generate_with_class(rng, static_cast<int>(IndoorClass::kBoard), 12);
  const std::string dir = pcss::bench::figures_dir();

  const auto mask = mask_for_class(cloud.labels, static_cast<int>(IndoorClass::kBoard));
  AttackConfig config = base_config(AttackNorm::kUnbounded, AttackField::kColor);
  config.objective = AttackObjective::kObjectHiding;
  config.target_class = static_cast<int>(IndoorClass::kWall);
  config.target_mask = mask;
  config.success_psr = 0.98f;

  const auto clean_pred = model->predict(cloud);
  const AttackResult adv = AttackEngine(*model, config).run(cloud);

  const int w = 260, h = 260;
  const Image panel = Image::hstack({
      pcss::viz::render_cloud_colors(cloud, w, h, pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_colors(adv.perturbed, w, h, pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_labels(cloud, clean_pred, w, h, pcss::viz::ViewAxis::kSide),
      pcss::viz::render_cloud_labels(adv.perturbed, adv.predictions, w, h,
                                     pcss::viz::ViewAxis::kSide),
  });
  const std::string path = dir + "/fig4_board_to_wall.ppm";
  panel.save_ppm(path);

  const double psr = point_success_rate(adv.predictions, mask,
                                        static_cast<int>(IndoorClass::kWall));
  const auto oob = evaluate_oob(adv.predictions, cloud.labels, 13, mask);
  std::printf("  board points: %lld  PSR=%.2f%%  OOB acc=%.2f%%  L2=%.2f\n",
              static_cast<long long>(pcss::data::count_label(
                  cloud, static_cast<int>(IndoorClass::kBoard))),
              100.0 * psr, 100.0 * oob.accuracy, adv.l2_color);
  std::printf("  wrote %s\n", path.c_str());
  std::printf("\nExpected shape (paper Figs. 1/4): most board points classified as\n"
              "wall after the attack, i.e. the board disappears from the model's\n"
              "view while the rest of the scene is barely affected.\n");
  return 0;
}
