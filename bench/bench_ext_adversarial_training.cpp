// Extension bench (paper §V-F): the paper lists adversarial training as
// a defense but skips it as "heavyweight". This quantifies both sides:
// robustness gained vs clean accuracy and training overhead, comparing a
// vanilla ResGCN with an adversarially trained twin under the bounded
// attack.
#include <chrono>

#include "bench_common.h"
#include "pcss/core/adv_train.h"
#include "pcss/models/resgcn.h"
#include "pcss/train/trainer.h"

using namespace pcss::core;
using pcss::bench::base_config;
using pcss::bench::print_header;
using pcss::bench::scale;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;

namespace {

double attacked_accuracy(SegmentationModel& model, const std::vector<PointCloud>& clouds,
                         const AttackConfig& config) {
  double acc = 0.0;
  for (const auto& cloud : clouds) {
    const auto r = AttackEngine(model, config).run(cloud);
    acc += evaluate_segmentation(r.predictions, cloud.labels, 13).accuracy;
  }
  return acc / static_cast<double>(clouds.size());
}

}  // namespace

int main() {
  print_header("Extension (SSV-F) - adversarial training: robustness vs overhead");
  IndoorSceneGenerator gen(pcss::train::zoo_indoor_config());
  const bool fast = pcss::bench::fast_mode();

  pcss::models::ResGCNConfig mc;
  mc.num_classes = pcss::data::kIndoorNumClasses;
  mc.channels = 24;
  mc.blocks = 3;

  using clock = std::chrono::steady_clock;

  // Vanilla twin.
  Rng init_a(81);
  pcss::models::ResGCNSeg vanilla(mc, init_a);
  pcss::train::TrainConfig tc;
  tc.iterations = fast ? 60 : 250;
  tc.scene_pool = 12;
  const auto t0 = clock::now();
  pcss::train::train_model(vanilla, [&gen](Rng& rng) { return gen.generate(rng); }, tc);
  const double vanilla_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();

  // Adversarially trained twin (same init seed, same budget of steps).
  Rng init_b(81);
  pcss::models::ResGCNSeg robust(mc, init_b);
  AdvTrainConfig atc;
  atc.iterations = tc.iterations;
  atc.scene_pool = tc.scene_pool;
  atc.attack_steps = fast ? 2 : 5;
  const auto t1 = clock::now();
  const auto adv_stats = adversarial_train(
      robust, [&gen](Rng& rng) { return gen.generate(rng); }, atc);
  const double robust_seconds =
      std::chrono::duration<double>(clock::now() - t1).count();

  pcss::train::ModelZoo zoo;
  const auto clouds = zoo.indoor_eval_scenes(scale().scenes);
  AttackConfig attack = base_config(AttackNorm::kBounded, AttackField::kColor);

  const double vanilla_clean = clean_metrics(vanilla, clouds).accuracy;
  const double robust_clean = clean_metrics(robust, clouds).accuracy;
  const double vanilla_adv = attacked_accuracy(vanilla, clouds, attack);
  const double robust_adv = attacked_accuracy(robust, clouds, attack);

  std::printf("\n  %-22s %-12s %-14s %s\n", "model", "clean Acc", "attacked Acc",
              "train time");
  std::printf("  %-22s %10.2f%% %12.2f%% %9.1fs\n", "vanilla", 100.0 * vanilla_clean,
              100.0 * vanilla_adv, vanilla_seconds);
  std::printf("  %-22s %10.2f%% %12.2f%% %9.1fs  (%d adv steps)\n", "adv-trained",
              100.0 * robust_clean, 100.0 * robust_adv, robust_seconds,
              adv_stats.adversarial_steps);
  std::printf("\nExpected shape: adversarial training raises attacked accuracy at a\n"
              "multiple of the training cost (the overhead the paper cites for not\n"
              "evaluating it) and a small clean-accuracy tax.\n");
  return 0;
}
