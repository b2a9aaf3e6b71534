#include "pcss/core/attack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcss::core {

const char* to_string(AttackObjective o) {
  return o == AttackObjective::kPerformanceDegradation ? "performance-degradation"
                                                       : "object-hiding";
}
const char* to_string(AttackNorm n) {
  return n == AttackNorm::kBounded ? "norm-bounded" : "norm-unbounded";
}
const char* to_string(AttackField f) {
  switch (f) {
    case AttackField::kColor: return "color";
    case AttackField::kCoordinate: return "coordinate";
    case AttackField::kBoth: return "both";
  }
  return "?";
}

std::vector<std::string> AttackConfig::validate(int num_classes,
                                               std::int64_t num_points) const {
  std::vector<std::string> errors;
  const bool use_color = field != AttackField::kCoordinate;
  const bool use_coord = field != AttackField::kColor;

  // The range checks below are false for NaN and pass some infinities, so
  // non-finite values are reported here, once per field whatever the norm,
  // and skipped there.
  const std::pair<const char*, float> floats[] = {
      {"epsilon", epsilon},         {"coord_epsilon", coord_epsilon},
      {"step_size", step_size},     {"adam_lr", adam_lr},
      {"lambda1", lambda1},         {"lambda2", lambda2},
      {"min_impact_fraction", min_impact_fraction},
      {"success_accuracy", success_accuracy},
      {"success_psr", success_psr}};
  for (const auto& [name, value] : floats) {
    if (!std::isfinite(value)) errors.push_back(std::string(name) + " must be finite");
  }
  const auto nonpositive = [](float value) { return std::isfinite(value) && value <= 0.0f; };

  if (norm == AttackNorm::kBounded) {
    if (steps <= 0) errors.push_back("steps must be positive for the bounded attack");
    if (nonpositive(step_size)) errors.push_back("step_size must be positive");
    if (use_color && nonpositive(epsilon)) {
      errors.push_back("epsilon must be positive for a bounded color attack");
    }
    if (use_coord && nonpositive(coord_epsilon)) {
      errors.push_back("coord_epsilon must be positive for a bounded coordinate attack");
    }
  } else {
    if (cw_steps <= 0) errors.push_back("cw_steps must be positive for the unbounded attack");
    if (nonpositive(adam_lr)) errors.push_back("adam_lr must be positive");
    if (stall_patience <= 0) errors.push_back("stall_patience must be positive");
    if (smooth_alpha < 0) errors.push_back("smooth_alpha must be non-negative");
  }

  if (std::isfinite(min_impact_fraction) && min_impact_fraction < 0.0f) {
    errors.push_back("min_impact_fraction must be non-negative");
  }
  if (std::isfinite(success_accuracy) && success_accuracy > 1.0f) {
    errors.push_back("success_accuracy is a fraction; values above 1 never trigger");
  }
  if (std::isfinite(success_psr) && success_psr > 1.0f) {
    errors.push_back("success_psr is a fraction; values above 1 never trigger");
  }

  if (objective == AttackObjective::kObjectHiding) {
    if (target_class < 0) {
      errors.push_back("object hiding needs target_class set (it is " +
                       std::to_string(target_class) + ")");
    } else if (num_classes >= 0 && target_class >= num_classes) {
      errors.push_back("target_class " + std::to_string(target_class) +
                       " out of range [0, " + std::to_string(num_classes) + ")");
    }
    if (target_mask.empty()) {
      errors.push_back("object hiding needs a target_mask (X_T membership)");
    }
  }
  if (num_points >= 0 && !target_mask.empty() &&
      target_mask.size() != static_cast<size_t>(num_points)) {
    errors.push_back("target_mask has " + std::to_string(target_mask.size()) +
                     " entries but the cloud has " + std::to_string(num_points) +
                     " points");
  }
  return errors;
}

PointCloud apply_field_deltas(const PointCloud& cloud, const std::vector<float>* color_delta,
                              const std::vector<float>* coord_delta) {
  const std::int64_t n = cloud.size();
  for (const std::vector<float>* delta : {color_delta, coord_delta}) {
    if (delta && delta->size() != static_cast<size_t>(n * 3)) {
      throw std::invalid_argument("apply_field_deltas: delta has " +
                                  std::to_string(delta->size()) + " values, cloud needs " +
                                  std::to_string(n * 3));
    }
  }
  PointCloud out = cloud;
  for (std::int64_t i = 0; i < n; ++i) {
    for (int a = 0; a < 3; ++a) {
      if (color_delta) {
        out.colors[static_cast<size_t>(i)][a] = std::clamp(
            cloud.colors[static_cast<size_t>(i)][a] + (*color_delta)[i * 3 + a], 0.0f, 1.0f);
      }
      if (coord_delta) {
        out.positions[static_cast<size_t>(i)][a] += (*coord_delta)[i * 3 + a];
      }
    }
  }
  return out;
}

AttackResult random_noise_baseline(SegmentationModel& model, const PointCloud& cloud,
                                   double l2_target, std::uint64_t seed) {
  const std::int64_t n = cloud.size();
  Rng rng(seed);
  std::vector<float> noise(static_cast<size_t>(n * 3));
  double norm2 = 0.0;
  for (auto& v : noise) {
    v = rng.normal();
    norm2 += static_cast<double>(v) * v;
  }
  const float scale =
      norm2 > 0.0 ? static_cast<float>(l2_target / std::sqrt(norm2)) : 0.0f;
  for (auto& v : noise) v *= scale;

  AttackResult result;
  result.perturbed = apply_field_deltas(cloud, &noise, nullptr);
  result.predictions = model.predict(result.perturbed);
  result.steps_used = 0;
  measure_perturbation(cloud, result.perturbed, result);
  return result;
}

void measure_perturbation(const PointCloud& original, const PointCloud& perturbed,
                          AttackResult& out) {
  if (original.size() != perturbed.size()) {
    throw std::invalid_argument("measure_perturbation: cloud size mismatch");
  }
  // Physical perceptibility thresholds for the L0 count (Eq. 8): one
  // 8-bit color quantization step, and one millimeter of geometry.
  constexpr float kColorTiny = 1.0f / 255.0f;
  constexpr float kCoordTiny = 1e-3f;
  double c2 = 0.0, p2 = 0.0;
  std::int64_t c0 = 0, p0 = 0;
  for (std::int64_t i = 0; i < original.size(); ++i) {
    float cmag = 0.0f, pmag = 0.0f;
    for (int a = 0; a < 3; ++a) {
      const float dc = perturbed.colors[static_cast<size_t>(i)][a] -
                       original.colors[static_cast<size_t>(i)][a];
      const float dp = perturbed.positions[static_cast<size_t>(i)][a] -
                       original.positions[static_cast<size_t>(i)][a];
      c2 += static_cast<double>(dc) * dc;
      p2 += static_cast<double>(dp) * dp;
      cmag = std::max(cmag, std::abs(dc));
      pmag = std::max(pmag, std::abs(dp));
    }
    if (cmag > kColorTiny) ++c0;
    if (pmag > kCoordTiny) ++p0;
  }
  out.l2_color = std::sqrt(c2);
  out.l2_coord = std::sqrt(p2);
  out.l0_color = c0;
  out.l0_coord = p0;
}

}  // namespace pcss::core
