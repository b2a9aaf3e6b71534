#include "pcss/runner/experiment_spec.h"

#include <cstdio>
#include <stdexcept>

#include "pcss/runner/hash.h"

namespace pcss::runner {

using pcss::core::AttackField;
using pcss::core::AttackNorm;
using pcss::core::AttackObjective;

const char* to_string(ModelId id) {
  switch (id) {
    case ModelId::kPointNet2Indoor: return "pointnet2_indoor";
    case ModelId::kResGCNIndoor: return "resgcn_indoor";
    case ModelId::kRandLAIndoor: return "randla_indoor";
    case ModelId::kRandLAOutdoor: return "randla_outdoor";
  }
  return "?";
}

const char* to_string(Dataset dataset) {
  return dataset == Dataset::kIndoor ? "indoor" : "outdoor";
}

const char* to_string(VariantKind kind) {
  switch (kind) {
    case VariantKind::kPerCloud: return "per_cloud";
    case VariantKind::kNoiseBaseline: return "noise_baseline";
    case VariantKind::kSharedDelta: return "shared_delta";
  }
  return "?";
}

const char* to_string(DefenseStageKind kind) {
  switch (kind) {
    case DefenseStageKind::kSrs: return "srs";
    case DefenseStageKind::kSor: return "sor";
    case DefenseStageKind::kVoxel: return "voxel";
    case DefenseStageKind::kQuantize: return "quantize";
    case DefenseStageKind::kKnnVote: return "knn_vote";
  }
  return "?";
}

const char* to_string(SpecKind kind) {
  switch (kind) {
    case SpecKind::kAttackTable: return "attack_table";
    case SpecKind::kDefenseGrid: return "defense_grid";
  }
  return "?";
}

std::shared_ptr<const pcss::core::DefenseStage> build_stage(const DefenseStageSpec& spec) {
  switch (spec.kind) {
    case DefenseStageKind::kSrs:
      return spec.srs_fraction >= 0.0f ? pcss::core::make_srs_fraction_stage(spec.srs_fraction)
                                       : pcss::core::make_srs_stage(spec.srs_remove);
    case DefenseStageKind::kSor:
      return pcss::core::make_sor_stage(spec.k, spec.stddev_mult, spec.color_weight);
    case DefenseStageKind::kVoxel:
      return pcss::core::make_voxel_stage(spec.voxel);
    case DefenseStageKind::kQuantize:
      return pcss::core::make_color_quantize_stage(spec.quantize_levels);
    case DefenseStageKind::kKnnVote:
      return pcss::core::make_knn_label_vote_stage(spec.k);
  }
  throw std::invalid_argument("build_stage: unknown defense stage kind");
}

pcss::core::DefensePipeline build_pipeline(const DefensePipelineSpec& spec) {
  pcss::core::DefensePipeline pipeline;
  for (const DefenseStageSpec& stage : spec.stages) pipeline.add(build_stage(stage));
  return pipeline;
}

AttackConfig scaled_config(const AttackVariant& variant, const Scale& scale) {
  AttackConfig config = variant.config;
  if (variant.apply_scale) {
    config.steps = scale.pgd_steps;
    config.cw_steps = scale.cw_steps;
    config.epsilon = scale.eps_color;
    config.coord_epsilon = scale.eps_coord;
  }
  return config;
}

namespace {

void append_kv(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += ';';
}

std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void append_config(std::string& out, const AttackConfig& c) {
  append_kv(out, "objective", to_string(c.objective));
  append_kv(out, "norm", to_string(c.norm));
  append_kv(out, "field", to_string(c.field));
  append_kv(out, "steps", std::to_string(c.steps));
  append_kv(out, "cw_steps", std::to_string(c.cw_steps));
  append_kv(out, "epsilon", num(c.epsilon));
  append_kv(out, "coord_epsilon", num(c.coord_epsilon));
  append_kv(out, "step_size", num(c.step_size));
  append_kv(out, "lambda1", num(c.lambda1));
  append_kv(out, "lambda2", num(c.lambda2));
  append_kv(out, "adam_lr", num(c.adam_lr));
  append_kv(out, "smooth_alpha", std::to_string(c.smooth_alpha));
  append_kv(out, "target_class", std::to_string(c.target_class));
  append_kv(out, "mask_points", std::to_string(c.target_mask.size()));
  append_kv(out, "success_accuracy", num(c.success_accuracy));
  append_kv(out, "success_psr", num(c.success_psr));
  append_kv(out, "min_impact_fraction", num(c.min_impact_fraction));
  append_kv(out, "l0_on_color", c.l0_on_color ? "1" : "0");
  append_kv(out, "stall_patience", std::to_string(c.stall_patience));
  append_kv(out, "seed", std::to_string(c.seed));
}

/// The degradation specs share one shape: a clean baseline plus labelled
/// attack columns at the paper's success threshold.
AttackVariant degradation_variant(std::string label, AttackNorm norm, AttackField field,
                                  float success_accuracy) {
  AttackVariant v;
  v.label = std::move(label);
  v.config.norm = norm;
  v.config.field = field;
  v.config.success_accuracy = success_accuracy;
  return v;
}

AttackVariant noise_variant(std::string calibrate_from, std::uint64_t seed_base) {
  AttackVariant v;
  v.label = "random-noise";
  v.kind = VariantKind::kNoiseBaseline;
  v.calibrate_from = std::move(calibrate_from);
  v.noise_seed_base = seed_base;
  return v;
}

std::vector<ExperimentSpec> build_registry() {
  std::vector<ExperimentSpec> specs;
  const float indoor_floor = 1.0f / 13.0f;   // random-guess accuracy, S3DIS classes
  const float outdoor_floor = 1.0f / 8.0f;   // 8 outdoor classes

  {
    ExperimentSpec s;
    s.name = "table2";
    s.title = "Table II — attacked fields (color vs coordinate vs both), ResGCN, L0";
    s.models = {ModelId::kResGCNIndoor};
    s.use_l0_distance = true;
    const AttackField fields[] = {AttackField::kColor, AttackField::kCoordinate,
                                  AttackField::kBoth};
    const AttackNorm norms[] = {AttackNorm::kUnbounded, AttackNorm::kBounded};
    for (AttackField field : fields) {
      for (AttackNorm norm : norms) {
        s.variants.push_back(degradation_variant(
            std::string(pcss::core::to_string(field)) + " / " + pcss::core::to_string(norm),
            norm, field, indoor_floor));
      }
    }
    specs.push_back(std::move(s));
  }
  {
    ExperimentSpec s;
    s.name = "table3";
    s.title = "Table III — color degradation on PointNet++/ResGCN/RandLA-Net, L2";
    s.models = {ModelId::kPointNet2Indoor, ModelId::kResGCNIndoor, ModelId::kRandLAIndoor};
    // Computation order: the unbounded attack first, because the noise
    // baseline is calibrated to its per-cloud L2 (the paper compares
    // baseline and attack at matched distance).
    s.variants.push_back(degradation_variant("norm-unbounded", AttackNorm::kUnbounded,
                                             AttackField::kColor, indoor_floor));
    s.variants.push_back(noise_variant("norm-unbounded", 7000));
    s.variants.push_back(degradation_variant("norm-bounded", AttackNorm::kBounded,
                                             AttackField::kColor, indoor_floor));
    specs.push_back(std::move(s));
  }
  {
    ExperimentSpec s;
    s.name = "table6";
    s.title = "Table VI — outdoor color degradation, RandLA-Net, L2";
    s.dataset = Dataset::kOutdoor;
    s.models = {ModelId::kRandLAOutdoor};
    s.scene_seed = 6000;
    s.variants.push_back(degradation_variant("norm-unbounded", AttackNorm::kUnbounded,
                                             AttackField::kColor, outdoor_floor));
    s.variants.push_back(noise_variant("norm-unbounded", 8000));
    specs.push_back(std::move(s));
  }
  {
    ExperimentSpec s;
    s.name = "ext_universal";
    s.title = "Extension (§VI-L4) — universal multi-cloud color perturbation, ResGCN";
    s.models = {ModelId::kResGCNIndoor};
    s.scene_seed = 9700;
    AttackVariant universal;
    universal.label = "universal";
    universal.kind = VariantKind::kSharedDelta;
    universal.config.norm = AttackNorm::kBounded;
    universal.config.field = AttackField::kColor;
    s.variants.push_back(std::move(universal));
    AttackVariant per_scene;
    per_scene.label = "per-scene";
    per_scene.config.norm = AttackNorm::kBounded;
    per_scene.config.field = AttackField::kColor;
    s.variants.push_back(std::move(per_scene));
    specs.push_back(std::move(s));
  }
  {
    // Table VIII as a defense grid: both attack regimes on ResGCN, the
    // paper's SRS (~1% removed) and revised SOR (k=2, color-aware)
    // defenses, victim == source.
    ExperimentSpec s;
    s.name = "table8";
    s.title = "Table VIII — SRS / SOR defenses vs both attacks, ResGCN";
    s.kind = SpecKind::kDefenseGrid;
    s.models = {ModelId::kResGCNIndoor};
    s.victims = {ModelId::kResGCNIndoor};
    s.variants.push_back(degradation_variant("norm-bounded", AttackNorm::kBounded,
                                             AttackField::kColor, indoor_floor));
    s.variants.push_back(degradation_variant("norm-unbounded", AttackNorm::kUnbounded,
                                             AttackField::kColor, indoor_floor));
    s.defenses.push_back({"none", {}});
    s.defenses.push_back({"srs", {{.kind = DefenseStageKind::kSrs, .srs_fraction = 0.01f}}});
    s.defenses.push_back(
        {"sor", {{.kind = DefenseStageKind::kSor, .k = 2, .stddev_mult = 1.0f,
                  .color_weight = 1.0f}}});
    specs.push_back(std::move(s));
  }
  {
    // The full robustness matrix: attacks through chained and smoothing
    // defenses, scored on the source model and on a cross-family
    // transfer victim (subsumes the Table IX transfer block: the "none"
    // defense column on the pointnet2 victim).
    ExperimentSpec s;
    s.name = "defense_grid";
    s.title = "Defense grid — attack x defense x victim robustness matrix, ResGCN source";
    s.kind = SpecKind::kDefenseGrid;
    s.models = {ModelId::kResGCNIndoor};
    s.victims = {ModelId::kResGCNIndoor, ModelId::kPointNet2Indoor};
    s.scene_seed = 5100;
    s.variants.push_back(degradation_variant("norm-bounded", AttackNorm::kBounded,
                                             AttackField::kColor, indoor_floor));
    s.variants.push_back(degradation_variant("norm-unbounded", AttackNorm::kUnbounded,
                                             AttackField::kColor, indoor_floor));
    s.defenses.push_back({"none", {}});
    s.defenses.push_back({"srs", {{.kind = DefenseStageKind::kSrs, .srs_fraction = 0.01f}}});
    s.defenses.push_back(
        {"sor", {{.kind = DefenseStageKind::kSor, .k = 2, .stddev_mult = 1.0f,
                  .color_weight = 1.0f}}});
    s.defenses.push_back({"srs+sor",
                          {{.kind = DefenseStageKind::kSrs, .srs_fraction = 0.01f},
                           {.kind = DefenseStageKind::kSor, .k = 2, .stddev_mult = 1.0f,
                            .color_weight = 1.0f}}});
    s.defenses.push_back(
        {"quantize8+vote",
         {{.kind = DefenseStageKind::kQuantize, .quantize_levels = 8},
          {.kind = DefenseStageKind::kKnnVote, .k = 5}}});
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace

const std::vector<ExperimentSpec>& spec_registry() {
  static const std::vector<ExperimentSpec> registry = build_registry();
  return registry;
}

const ExperimentSpec* find_spec(const std::string& name) {
  for (const ExperimentSpec& spec : spec_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string canonical_description(const ExperimentSpec& spec, const Scale& scale,
                                  ModelProvider& provider) {
  std::string out;
  append_kv(out, "spec", spec.name);
  // Numerics revision: bump it whenever an accumulation order changes,
  // so documents that are no longer byte-reproducible miss. History
  // (DESIGN.md §5): "lane8" fixed the 8-lane reduction order of the SIMD
  // layer; "edge_linear" factors ResGCN's edge Linear through the
  // neighbor gather, reordering the block sums; "attentive_pool" fuses
  // RandLA-Net's attentive pooling, factors its LFA shared Linear through
  // the gather and moves the softmax exp from libm to an in-source
  // polynomial (PCT's softmax too). (The dispatch path itself
  // — scalar vs avx2 — is deliberately NOT part of the key: both paths
  // produce identical bytes, so a store warmed under one ISA stays a 100%
  // hit under the other.)
  append_kv(out, "numerics", "attentive_pool");
  // The kind tag is appended only for non-default kinds so that every
  // attack-table key (and its warm shard cache) from before the grid
  // kind existed stays valid byte-for-byte.
  if (spec.kind != SpecKind::kAttackTable) append_kv(out, "kind", to_string(spec.kind));
  append_kv(out, "dataset", to_string(spec.dataset));
  append_kv(out, "scene_seed", std::to_string(spec.scene_seed));
  append_kv(out, "scenes", std::to_string(scale.scenes));
  append_kv(out, "pgd_steps", std::to_string(scale.pgd_steps));
  append_kv(out, "cw_steps", std::to_string(scale.cw_steps));
  append_kv(out, "eps_color", num(scale.eps_color));
  append_kv(out, "eps_coord", num(scale.eps_coord));
  append_kv(out, "l0_distance", spec.use_l0_distance ? "1" : "0");
  for (ModelId id : spec.models) {
    out += "model{";
    append_kv(out, "id", to_string(id));
    append_kv(out, "weights", provider.model_fingerprint(id));
    out += "}";
  }
  for (const AttackVariant& variant : spec.variants) {
    out += "variant{";
    append_kv(out, "label", variant.label);
    append_kv(out, "kind", to_string(variant.kind));
    if (variant.kind == VariantKind::kNoiseBaseline) {
      append_kv(out, "calibrate_from", variant.calibrate_from);
      append_kv(out, "noise_seed_base", std::to_string(variant.noise_seed_base));
    }
    // Every kind hashes its scaled config: even the noise baseline
    // consults it (distance selection branches on config.field), so it
    // must be part of the key for cached rows to stay valid.
    append_config(out, scaled_config(variant, scale));
    out += "}";
  }
  if (spec.kind == SpecKind::kDefenseGrid) {
    append_kv(out, "defense_seed", std::to_string(spec.defense_seed));
    append_kv(out, "include_clean", spec.grid_include_clean ? "1" : "0");
    for (const DefensePipelineSpec& defense : spec.defenses) {
      out += "defense{";
      append_kv(out, "label", defense.label);
      // The built pipeline's describe() string is the one hashed into
      // defense RNG streams, so hashing it here keeps the cache key and
      // the draws in lockstep with every stage parameter.
      append_kv(out, "stages", build_pipeline(defense).describe());
      out += "}";
    }
    for (ModelId id : spec.victims) {
      out += "victim{";
      append_kv(out, "id", to_string(id));
      append_kv(out, "weights", provider.model_fingerprint(id));
      out += "}";
    }
  }
  return out;
}

std::string run_key(const ExperimentSpec& spec, const Scale& scale,
                    ModelProvider& provider) {
  Fnv64 hash;
  hash.update(canonical_description(spec, scale, provider));
  return spec.name + "-" + hash.hex();
}

}  // namespace pcss::runner
