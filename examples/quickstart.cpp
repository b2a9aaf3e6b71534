// Quickstart: the smallest end-to-end tour of the public API.
//
//   1. Generate synthetic indoor scenes (the S3DIS substitute).
//   2. Get a "pre-trained" ResGCN from the model zoo (trains once and
//      caches under artifacts/ on first use).
//   3. Build an AttackEngine and run the paper's two performance-
//      degradation attacks on the color field, compare against a
//      random-noise baseline, then attack a whole batch at once.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/train/model_zoo.h"

using namespace pcss::core;

int main() {
  pcss::train::ModelZoo zoo;
  auto model = zoo.resgcn_indoor();
  const auto clouds = zoo.indoor_eval_scenes(/*count=*/3, /*seed=*/12345);
  const auto& cloud = clouds.front();

  // Clean prediction.
  const auto clean_pred = model->predict(cloud);
  const SegMetrics clean = evaluate_segmentation(clean_pred, cloud.labels, 13);
  std::printf("clean:          Acc=%5.1f%%  aIoU=%5.1f%%\n", 100.0 * clean.accuracy,
              100.0 * clean.aiou);

  // Norm-bounded attack (PGD-style, Algorithm 1 of the paper). The
  // engine validates the config at construction; the config alone picks
  // the attack: degradation objective, epsilon-clip projection with
  // sign-PGD, `steps` budget.
  AttackConfig bounded;
  bounded.norm = AttackNorm::kBounded;
  bounded.field = AttackField::kColor;
  bounded.steps = 50;
  bounded.epsilon = 0.15f;
  const AttackResult pgd = AttackEngine(*model, bounded).run(cloud);
  const SegMetrics m_pgd = evaluate_segmentation(pgd.predictions, cloud.labels, 13);
  std::printf("norm-bounded:   Acc=%5.1f%%  aIoU=%5.1f%%  (L2=%.2f, %d steps)\n",
              100.0 * m_pgd.accuracy, 100.0 * m_pgd.aiou, pgd.l2_color, pgd.steps_used);

  // Norm-unbounded attack (CW-style, Eq. 5 of the paper): tanh
  // projection + Adam + stall-restart stop.
  AttackConfig unbounded;
  unbounded.norm = AttackNorm::kUnbounded;
  unbounded.field = AttackField::kColor;
  unbounded.cw_steps = 120;
  unbounded.success_accuracy = 1.0f / 13.0f;  // stop at random-guess level
  const AttackEngine cw_engine(*model, unbounded);
  const AttackResult cw = cw_engine.run(cloud);
  const SegMetrics m_cw = evaluate_segmentation(cw.predictions, cloud.labels, 13);
  std::printf("norm-unbounded: Acc=%5.1f%%  aIoU=%5.1f%%  (L2=%.2f, %d steps)\n",
              100.0 * m_cw.accuracy, 100.0 * m_cw.aiou, cw.l2_color, cw.steps_used);

  // Random noise at the same L2 barely hurts (paper Finding: attacks are
  // non-trivial, not an artifact of any perturbation).
  const AttackResult noise = random_noise_baseline(*model, cloud, cw.l2_color, 1);
  const SegMetrics m_noise = evaluate_segmentation(noise.predictions, cloud.labels, 13);
  std::printf("random noise:   Acc=%5.1f%%  aIoU=%5.1f%%  (same L2)\n",
              100.0 * m_noise.accuracy, 100.0 * m_noise.aiou);

  // Batched execution: every cloud is attacked on the engine's worker
  // pool with an independent RNG stream (config.seed + index), so the
  // results do not depend on thread count or scheduling.
  const std::vector<AttackResult> batch = cw_engine.run_batch(clouds);
  double batch_acc = 0.0;
  for (size_t i = 0; i < clouds.size(); ++i) {
    batch_acc +=
        evaluate_segmentation(batch[i].predictions, clouds[i].labels, 13).accuracy;
  }
  std::printf("run_batch(%zu):   mean Acc=%5.1f%% after attack\n", clouds.size(),
              100.0 * batch_acc / static_cast<double>(clouds.size()));
  return 0;
}
