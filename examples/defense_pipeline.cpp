// Defense pipeline walkthrough: trains a fresh (not zoo-cached) ResGCN,
// attacks it, and measures the §V-F defenses three ways:
//
//   1. the classic static evaluation — attack the undefended model,
//      then run the adversarial cloud through a DefensePipeline
//      (SRS -> revised SOR) and score the survivors;
//   2. a chained pipeline with color quantization + kNN label voting;
//   3. the *adaptive* attacker — the same AttackEngine run unchanged
//      against a DefendedModel, so the optimization differentiates
//      through the defense (gradients gathered over surviving points,
//      quantization handled straight-through, SRS resampled per step
//      with deterministic input-keyed streams).
//
// Demonstrates the training API alongside the attack/defense APIs.
#include <cstdio>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defended_model.h"
#include "pcss/core/defense_stage.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/train/trainer.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;

namespace {

void report(const char* label, const DefenseReport& r) {
  std::printf("%-34s %5.1f%%  (aIoU %5.1f%%, %lld pts kept)\n", label,
              100.0 * r.metrics.accuracy, 100.0 * r.metrics.aiou,
              static_cast<long long>(r.outcome.cloud.size()));
}

}  // namespace

int main() {
  // Train a small ResGCN from scratch (a minute-scale CPU job).
  IndoorSceneGenerator gen({.num_points = 384});
  Rng init(7);
  pcss::models::ResGCNConfig mc;
  mc.num_classes = pcss::data::kIndoorNumClasses;
  mc.channels = 24;
  mc.blocks = 3;
  pcss::models::ResGCNSeg model(mc, init);

  pcss::train::TrainConfig tc;
  tc.iterations = 250;
  tc.scene_pool = 12;
  tc.verbose = true;
  const auto stats = pcss::train::train_model(
      model, [&gen](Rng& rng) { return gen.generate(rng); }, tc);
  std::printf("trained: final loss %.3f, train accuracy %.1f%%\n\n", stats.final_loss,
              100.0 * stats.final_train_accuracy);

  Rng eval_rng(99);
  const auto cloud = gen.generate(eval_rng);
  const double clean_acc =
      evaluate_segmentation(model.predict(cloud), cloud.labels, 13).accuracy;

  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.field = AttackField::kColor;
  config.cw_steps = 100;
  const AttackResult adv = AttackEngine(model, config).run(cloud);
  const double adv_acc =
      evaluate_segmentation(adv.predictions, cloud.labels, 13).accuracy;

  // 1. Static evaluation through a chained pipeline. The pipeline owns
  // the surviving-index map, so metrics always score against correctly
  // permuted ground truth, stage after stage.
  DefensePipeline anomaly;
  anomaly.add(make_srs_fraction_stage(0.01f)).add(make_sor_stage(/*k=*/2, 1.0f, 1.0f));
  Rng def_rng(11);
  const DefenseReport static_eval = run_defended(model, anomaly, adv.perturbed, 13, def_rng);

  // 2. A smoothing pipeline: 8-level color quantization plus kNN label
  // voting on the predictions.
  DefensePipeline smoothing;
  smoothing.add(make_color_quantize_stage(8)).add(make_knn_label_vote_stage(5));
  Rng def_rng2(12);
  const DefenseReport smooth_eval =
      run_defended(model, smoothing, adv.perturbed, 13, def_rng2);

  // 3. The adaptive attacker: the engine runs *through* the defense.
  DefendedModel defended(model, anomaly, {.seed = 2024});
  const AttackResult adaptive = AttackEngine(defended, config).run(cloud);
  Rng def_rng3 = defended.stream(adaptive.perturbed, 0);
  const DefenseReport adaptive_eval =
      run_defended(model, anomaly, adaptive.perturbed, 13, def_rng3);

  std::printf("pipeline [%s]\n\n", anomaly.describe().c_str());
  std::printf("%-34s %5.1f%%\n", "clean accuracy:", 100.0 * clean_acc);
  std::printf("%-34s %5.1f%%  (L2=%.2f)\n", "attacked (no defense):", 100.0 * adv_acc,
              adv.l2_color);
  report("static attack + srs|sor:", static_eval);
  report("static attack + quantize|vote:", smooth_eval);
  report("ADAPTIVE attack + srs|sor:", adaptive_eval);
  std::printf("\nPaper Finding 7: neither defense restores clean accuracy — and the\n"
              "adaptive attacker, optimizing through the defense, degrades the\n"
              "defended model further than the static attack the defense was\n"
              "evaluated against.\n");
  return 0;
}
