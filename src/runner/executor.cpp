#include "pcss/runner/executor.h"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_grid.h"
#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/hash.h"
#include "pcss/runner/lease.h"
#include "pcss/runner/perf.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"

namespace pcss::runner {

using pcss::core::AttackConfig;
using pcss::core::AttackEngine;
using pcss::core::AttackResult;
using pcss::core::CaseRecord;
using pcss::core::ExecPolicy;
using pcss::core::SegMetrics;
using pcss::core::SharedDeltaResult;

namespace obs = pcss::obs;

namespace {

/// Upper edges (ms) for the shard wall-time histogram: a shard runs a
/// whole attack batch, so the buckets stretch well past the sub-second
/// latency defaults.
const std::vector<double>& shard_ms_buckets() {
  static const std::vector<double> buckets{1.0,    5.0,     10.0,    25.0,   50.0,
                                           100.0,  250.0,   500.0,   1000.0, 2500.0,
                                           5000.0, 10000.0, 30000.0, 60000.0};
  return buckets;
}

/// Telemetry plumbing for the shard loop: registry metrics plus the
/// RunOptions::on_progress callback. Observation only — it reads loop
/// state and copies of counters; nothing here can reach document bytes.
class ShardTelemetry {
 public:
  ShardTelemetry(const RunOptions& options, const WallTimer& timer, int planned_total)
      : options_(options), timer_(timer), planned_total_(planned_total) {}

  /// Call after every shard (cached or computed) with the shard's wall
  /// time and the running outcome counters.
  void finish_shard(bool from_cache, double shard_seconds, const RunOutcome& out) {
    if (from_cache) {
      cached_.add(1);
    } else {
      computed_.add(1);
      shard_ms_.observe(shard_seconds * 1000.0);
      live_seconds_ += shard_seconds;
      ++live_count_;
    }
    ++done_;
    if (!options_.on_progress) return;
    ShardProgress progress;
    progress.shards_done = done_;
    progress.shards_total = planned_total_;
    progress.shards_from_cache = out.shards_from_cache;
    progress.attack_steps = out.attack_steps;
    progress.wall_seconds = timer_.seconds();
    const int remaining = planned_total_ > done_ ? planned_total_ - done_ : 0;
    if (live_count_ > 0 && remaining > 0) {
      // Optimistic when the remaining shards replay from cache; exact
      // when they all run live. Good enough for a heartbeat line.
      progress.eta_seconds =
          static_cast<double>(remaining) * (live_seconds_ / live_count_);
    }
    options_.on_progress(progress);
  }

 private:
  const RunOptions& options_;
  const WallTimer& timer_;
  int planned_total_;
  int done_ = 0;
  double live_seconds_ = 0.0;
  int live_count_ = 0;
  obs::metrics::Counter& computed_ = obs::metrics::counter("runner.shards.computed");
  obs::metrics::Counter& cached_ = obs::metrics::counter("runner.shards.cached");
  obs::metrics::Histogram& shard_ms_ =
      obs::metrics::histogram("runner.shard_ms", shard_ms_buckets());
};

VariantKind variant_kind_from_string(const std::string& kind) {
  if (kind == "per_cloud") return VariantKind::kPerCloud;
  if (kind == "noise_baseline") return VariantKind::kNoiseBaseline;
  if (kind == "shared_delta") return VariantKind::kSharedDelta;
  throw std::runtime_error("RunDocument: unknown variant kind '" + kind + "'");
}

Json record_to_json(const CaseRecord& record) {
  Json j = Json::object();
  j.set("distance", record.distance);
  j.set("accuracy", record.accuracy);
  j.set("aiou", record.aiou);
  return j;
}

CaseRecord record_from_json(const Json& j) {
  return {j.at("distance").number(), j.at("accuracy").number(), j.at("aiou").number()};
}

Json row_to_json(const CaseRow& row) {
  Json j = record_to_json(row.record);
  j.set("l2_color", row.l2_color);
  j.set("steps", row.steps);
  return j;
}

CaseRow row_from_json(const Json& j) {
  CaseRow row;
  row.record = record_from_json(j);
  row.l2_color = j.at("l2_color").number();
  row.steps = j.at("steps").integer<long long>();
  return row;
}

Json doubles_to_json(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push(v);
  return arr;
}

std::vector<double> doubles_from_json(const Json& arr) {
  std::vector<double> out;
  out.reserve(arr.size());
  for (const Json& v : arr.items()) out.push_back(v.number());
  return out;
}

Json steps_to_json(const std::vector<long long>& steps) {
  Json arr = Json::array();
  for (long long s : steps) arr.push(s);
  return arr;
}

std::vector<long long> steps_from_json(const Json& arr) {
  std::vector<long long> out;
  out.reserve(arr.size());
  for (const Json& s : arr.items()) out.push_back(s.integer<long long>());
  return out;
}

/// One defense-grid case row; grid shards and grid documents share it.
Json grid_row_to_json(const GridCaseRow& row) {
  Json j = Json::object();
  j.set("accuracy", row.accuracy);
  j.set("aiou", row.aiou);
  j.set("points_kept", row.points_kept);
  return j;
}

GridCaseRow grid_row_from_json(const Json& j) {
  return {j.at("accuracy").number(), j.at("aiou").number(),
          j.at("points_kept").integer<long long>()};
}

/// Everything one shard computes, in storable form. Per-cloud and noise
/// shards fill `rows`; shared-delta shards the accuracy/delta fields;
/// defense-grid shards `attacks` and `cells` — per-attack traces and
/// per-cell case rows for the shard's clouds, in the spec's enumeration
/// order (which the cache key pins, so order is identity).
struct ShardData {
  std::vector<CaseRow> rows;
  std::vector<double> accuracy_before, accuracy_after;
  double delta_l2 = 0.0;
  int steps_used = 0;
  std::vector<pcss::core::GridAttackTrace> attacks;
  std::vector<std::vector<GridCaseRow>> cells;
};

/// Optimization steps a freshly computed shard of `count` clouds ran:
/// rows and grid traces carry their own, and a shared delta's steps
/// count once per cloud. Fields a kind does not fill are empty or zero,
/// so one sum covers every kind.
long long shard_steps(const ShardData& shard, std::size_t count) {
  long long steps =
      static_cast<long long>(shard.steps_used) * static_cast<long long>(count);
  for (const CaseRow& row : shard.rows) steps += row.steps;
  for (const auto& trace : shard.attacks) {
    for (long long s : trace.steps) steps += s;
  }
  return steps;
}

Json shard_to_json(const ShardData& shard, VariantKind kind) {
  Json j = Json::object();
  if (kind == VariantKind::kSharedDelta) {
    j.set("accuracy_before", doubles_to_json(shard.accuracy_before));
    j.set("accuracy_after", doubles_to_json(shard.accuracy_after));
    j.set("delta_l2", shard.delta_l2);
    j.set("steps_used", shard.steps_used);
  } else {
    Json cases = Json::array();
    for (const CaseRow& row : shard.rows) cases.push(row_to_json(row));
    j.set("cases", std::move(cases));
  }
  return j;
}

ShardData shard_from_json(const Json& j, VariantKind kind) {
  ShardData shard;
  if (kind == VariantKind::kSharedDelta) {
    shard.accuracy_before = doubles_from_json(j.at("accuracy_before"));
    shard.accuracy_after = doubles_from_json(j.at("accuracy_after"));
    shard.delta_l2 = j.at("delta_l2").number();
    shard.steps_used = j.at("steps_used").integer<int>();
  } else {
    for (const Json& row : j.at("cases").items()) shard.rows.push_back(row_from_json(row));
  }
  return shard;
}

Json grid_shard_to_json(const ShardData& shard) {
  Json j = Json::object();
  Json attacks = Json::array();
  for (const auto& trace : shard.attacks) {
    Json a = Json::object();
    a.set("l2_color", doubles_to_json(trace.l2_color));
    a.set("steps", steps_to_json(trace.steps));
    attacks.push(std::move(a));
  }
  j.set("attacks", std::move(attacks));
  Json cells = Json::array();
  for (const auto& cell : shard.cells) {
    Json cases = Json::array();
    for (const GridCaseRow& row : cell) cases.push(grid_row_to_json(row));
    cells.push(std::move(cases));
  }
  j.set("cells", std::move(cells));
  return j;
}

ShardData grid_shard_from_json(const Json& j) {
  ShardData shard;
  for (const Json& a : j.at("attacks").items()) {
    pcss::core::GridAttackTrace trace;
    trace.l2_color = doubles_from_json(a.at("l2_color"));
    trace.steps = steps_from_json(a.at("steps"));
    shard.attacks.push_back(std::move(trace));
  }
  for (const Json& cell : j.at("cells").items()) {
    std::vector<GridCaseRow> rows;
    for (const Json& c : cell.items()) rows.push_back(grid_row_from_json(c));
    shard.cells.push_back(std::move(rows));
  }
  return shard;
}

/// Store keys of the two shard families. plan_shards is their only
/// caller, so run_spec and the worker loop name every shard alike — the
/// multi-process contract is "same key = same bytes".
std::string table_shard_key(const std::string& key, std::size_t mi, std::size_t vi,
                            std::size_t offset, std::size_t count) {
  return "shards/" + key + "-m" + std::to_string(mi) + "-v" + std::to_string(vi) + "-o" +
         std::to_string(offset) + "-n" + std::to_string(count) + ".json";
}

std::string grid_shard_key(const std::string& key, std::size_t offset, std::size_t count) {
  return "shards/" + key + "-grid-o" + std::to_string(offset) + "-n" +
         std::to_string(count) + ".json";
}

/// The per-shard engine execution policy a RunOptions selects. Pure
/// execution knobs only (threads, plans, no observer) — nothing here can
/// change document bytes.
ExecPolicy shard_policy(const RunOptions& options) {
  return {options.num_threads, options.plan, {}};
}

ShardData compute_attack_shard(SegmentationModel& model, const AttackConfig& config,
                               std::span<const PointCloud> clouds, std::size_t offset,
                               std::size_t count, bool use_l0, const ExecPolicy& policy) {
  AttackConfig shard_config = config;
  // Seed offset keeps cloud g on RNG stream seed+g under any sharding:
  // run_batch seeds cloud i of the shard with shard_config.seed + i.
  shard_config.seed += offset;
  AttackEngine engine(model, shard_config);
  const std::vector<AttackResult> results =
      engine.run_batch(clouds.subspan(offset, count), policy);
  ShardData shard;
  shard.rows.reserve(count);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointCloud& cloud = clouds[offset + i];
    const SegMetrics m = pcss::core::evaluate_segmentation(results[i].predictions,
                                                           cloud.labels, model.num_classes());
    CaseRow row;
    row.record = {pcss::core::case_distance(config, use_l0, results[i]), m.accuracy,
                  m.aiou};
    row.l2_color = results[i].l2_color;
    row.steps = results[i].steps_used;
    shard.rows.push_back(row);
  }
  return shard;
}

/// Noise rows for clouds [offset, offset+count), cloud offset+i
/// calibrated to the L2 of `source[i]`: the calibration variant's row
/// for the same cloud.
ShardData compute_noise_shard(SegmentationModel& model, const AttackVariant& variant,
                              const AttackConfig& config, std::span<const PointCloud> clouds,
                              std::size_t offset, std::size_t count, bool use_l0,
                              const std::vector<CaseRow>& source) {
  ShardData shard;
  shard.rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t g = offset + i;
    const AttackResult noise = pcss::core::random_noise_baseline(
        model, clouds[g], source[i].l2_color, variant.noise_seed_base + g);
    const SegMetrics m = pcss::core::evaluate_segmentation(noise.predictions,
                                                           clouds[g].labels,
                                                           model.num_classes());
    CaseRow row;
    // Same distance selection as the attack rows (the noise perturbs
    // the color field), so an L0 spec never mixes metrics in a column.
    row.record = {pcss::core::case_distance(config, use_l0, noise), m.accuracy, m.aiou};
    row.l2_color = noise.l2_color;
    row.steps = 0;
    shard.rows.push_back(row);
  }
  return shard;
}

ShardData compute_shared_shard(SegmentationModel& model, const AttackConfig& config,
                               std::span<const PointCloud> clouds,
                               const ExecPolicy& policy) {
  AttackEngine engine(model, config);
  const SharedDeltaResult result = engine.run_shared(clouds, policy);
  ShardData shard;
  shard.accuracy_before = result.accuracy_before;
  shard.accuracy_after = result.accuracy_after;
  shard.steps_used = result.steps_used;
  double sum_sq = 0.0;
  for (float d : result.color_delta) sum_sq += static_cast<double>(d) * d;
  shard.delta_l2 = std::sqrt(sum_sq);
  return shard;
}

/// Everything a defense-grid shard computation needs beyond the clouds:
/// materialized models and the attack/defense/victim enumerations, in
/// the spec's order (which the cache key pins, so order is identity).
struct GridSetup {
  std::shared_ptr<SegmentationModel> source;
  std::vector<std::shared_ptr<SegmentationModel>> victim_models;  ///< keeps victims alive
  std::vector<pcss::core::GridVictim> victims;
  std::vector<pcss::core::GridAttack> attacks;
  std::vector<pcss::core::GridDefense> defenses;
};

/// Validates a kDefenseGrid spec and materializes its grid, so run_spec
/// and run_spec_worker reject malformed specs with the same message and
/// enumerate identical grids.
GridSetup make_grid_setup(const ExperimentSpec& spec, ModelProvider& provider,
                          const RunOptions& options) {
  if (spec.models.size() != 1) {
    throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                "' needs exactly one source model");
  }
  if (spec.victims.empty() || spec.defenses.empty()) {
    throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                "' needs victims and defenses");
  }
  for (const AttackVariant& variant : spec.variants) {
    if (variant.kind != VariantKind::kPerCloud) {
      throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                  "' supports per_cloud attack variants only");
    }
  }
  GridSetup setup;
  setup.source = provider.model(spec.models[0]);
  for (ModelId id : spec.victims) {
    setup.victim_models.push_back(provider.model(id));
    setup.victims.push_back({to_string(id), setup.victim_models.back().get()});
  }
  if (spec.grid_include_clean) setup.attacks.push_back({"clean", true, {}});
  for (const AttackVariant& variant : spec.variants) {
    setup.attacks.push_back({variant.label, false, scaled_config(variant, options.scale)});
  }
  for (const DefensePipelineSpec& defense : spec.defenses) {
    setup.defenses.push_back({defense.label, build_pipeline(defense)});
  }
  return setup;
}

/// Computes the grid shard covering clouds [offset, offset+count): the
/// shard's global offset keys both the attack RNG (seed + g) and the
/// defense streams (defense_cell_seed at global g), so the result is
/// invariant under any partitioning.
ShardData compute_grid_shard(const GridSetup& setup, const ExperimentSpec& spec,
                             const RunOptions& options, std::span<const PointCloud> clouds,
                             std::size_t offset, std::size_t count) {
  pcss::core::DefenseGridOptions grid_options;
  grid_options.defense_seed = spec.defense_seed;
  grid_options.cloud_index_base = offset;
  grid_options.policy = shard_policy(options);
  const pcss::core::DefenseGridResult result = pcss::core::evaluate_defense_grid(
      *setup.source, setup.victims, clouds.subspan(offset, count), setup.attacks,
      setup.defenses, grid_options);
  ShardData shard;
  shard.attacks = result.attacks;
  shard.cells.reserve(result.cells.size());
  for (const pcss::core::GridCell& cell : result.cells) {
    std::vector<GridCaseRow> rows;
    rows.reserve(cell.cases.size());
    for (const pcss::core::GridCase& c : cell.cases) {
      rows.push_back({c.accuracy, c.aiou, static_cast<long long>(c.points_kept)});
    }
    shard.cells.push_back(std::move(rows));
  }
  return shard;
}

// ---------------------------------------------------------------------------
// The shard plan and its resolver
// ---------------------------------------------------------------------------

/// One unit of a run: enough indices to recompute the shard from global
/// seeds, plus its store key.
struct ShardRef {
  bool grid = false;                  ///< defense-grid shard, else attack-table
  std::size_t mi = 0, vi = 0;         ///< attack-table coordinates
  std::size_t offset = 0, count = 0;  ///< clouds [offset, offset+count)
  std::size_t source = 0;             ///< noise shards: plan index of their L2 source
  std::string key;                    ///< "shards/....json"
};

/// Index of the variant that noise variant `vi` calibrates from: the
/// first earlier variant with that label that has per-cloud rows.
std::size_t calibration_index(const ExperimentSpec& spec, std::size_t vi) {
  const AttackVariant& variant = spec.variants[vi];
  for (std::size_t i = 0; i < vi; ++i) {
    const AttackVariant& earlier = spec.variants[i];
    if (earlier.kind != VariantKind::kSharedDelta &&
        earlier.label == variant.calibrate_from) {
      return i;
    }
  }
  throw std::invalid_argument("run_spec: variant '" + variant.label +
                              "' calibrates from '" + variant.calibrate_from +
                              "', which is not an earlier variant of spec '" + spec.name +
                              "'");
}

/// The run's shards in execution order. Attack tables walk model, then
/// variant, then offset; a shared-delta variant optimizes jointly over
/// all clouds, so it is one shard covering every cloud. A defense grid is
/// one shard per offset. run_spec and run_spec_worker both walk this list.
std::vector<ShardRef> plan_shards(const ExperimentSpec& spec, std::size_t cloud_count,
                                  int shard_size, const std::string& key) {
  const auto size = static_cast<std::size_t>(std::max(1, shard_size));
  std::vector<ShardRef> plan;
  if (spec.kind == SpecKind::kDefenseGrid) {
    for (std::size_t offset = 0; offset < cloud_count; offset += size) {
      ShardRef ref;
      ref.grid = true;
      ref.offset = offset;
      ref.count = std::min(size, cloud_count - offset);
      ref.key = grid_shard_key(key, offset, ref.count);
      plan.push_back(std::move(ref));
    }
    return plan;
  }
  for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
    // Plan index of each variant's first shard.
    std::vector<std::size_t> first(spec.variants.size());
    for (std::size_t vi = 0; vi < spec.variants.size(); ++vi) {
      const VariantKind kind = spec.variants[vi].kind;
      first[vi] = plan.size();
      const std::size_t source_first =
          kind == VariantKind::kNoiseBaseline ? first[calibration_index(spec, vi)] : 0;
      const std::size_t stride = kind == VariantKind::kSharedDelta ? cloud_count : size;
      for (std::size_t offset = 0, n = 0; offset < cloud_count; offset += stride, ++n) {
        ShardRef ref;
        ref.mi = mi;
        ref.vi = vi;
        ref.offset = offset;
        ref.count = std::min(stride, cloud_count - offset);
        ref.key = table_shard_key(key, mi, vi, offset, ref.count);
        // Per-cloud variants share one partition, so the calibration
        // source is the same window one variant column over.
        if (kind == VariantKind::kNoiseBaseline) ref.source = source_first + n;
        plan.push_back(std::move(ref));
      }
    }
  }
  return plan;
}

/// A shard as resolve_shard returns it.
struct ResolvedShard {
  ShardData data;
  bool from_cache = false;
};

/// The one cache -> compute -> put path of a run, shared by run_spec and
/// run_spec_worker. Models and the grid setup materialize lazily, so a
/// caller whose every shard is already stored never builds a model.
class ShardResolver {
 public:
  ShardResolver(const ExperimentSpec& spec, ModelProvider& provider, ResultStore& store,
                const RunOptions& options, const std::string& key,
                std::span<const PointCloud> clouds)
      : spec_(spec),
        provider_(provider),
        store_(store),
        options_(options),
        clouds_(clouds),
        plan_(plan_shards(spec, clouds.size(), options.shard_size, key)) {}

  const std::vector<ShardRef>& plan() const { return plan_; }

  /// Optimization steps this resolver has executed live.
  long long attack_steps() const { return attack_steps_; }

  /// Plan shard `index`: when `use_cache`, the copy this resolver already
  /// resolved or else the stored copy if it decodes and fits the shard;
  /// otherwise a fresh computation, stored before it is returned.
  /// `claim`, when set, runs between the miss and the computation; if it
  /// returns false (another worker holds the shard), nothing is computed
  /// and the result is empty.
  std::optional<ResolvedShard> resolve_shard(std::size_t index, bool use_cache,
                                             const std::function<bool()>& claim = {}) {
    const ShardRef& ref = plan_[index];
    ResolvedShard shard;
    if (use_cache) {
      // A worker rescans the plan every pass: a shard it has already
      // checked is not read and decoded again.
      if (const auto it = resolved_.find(index); it != resolved_.end()) {
        return ResolvedShard{it->second, true};
      }
      if (std::optional<ShardData> cached = load(ref)) {
        shard.data = std::move(*cached);
        shard.from_cache = true;
      }
    }
    if (!shard.from_cache) {
      if (claim && !claim()) return std::nullopt;
      shard.data = compute(ref);
      // A shard that fails its own size check would never load as a
      // cache hit, so a worker would recompute it forever.
      if (!fits(ref, shard.data)) {
        throw std::logic_error("run_spec: computed shard " + ref.key +
                               " does not match its plan");
      }
      attack_steps_ += shard_steps(shard.data, ref.count);
      const Json payload = ref.grid ? grid_shard_to_json(shard.data)
                                    : shard_to_json(shard.data, kind_of(ref));
      store_.put(ref.key, payload.dump() + "\n");
    }
    resolved_[index] = shard.data;
    return shard;
  }

  SegmentationModel& model(std::size_t mi) {
    std::shared_ptr<SegmentationModel>& slot = models_[mi];
    if (!slot) slot = provider_.model(spec_.models[mi]);
    return *slot;
  }

  const GridSetup& grid() {
    if (!grid_) grid_ = make_grid_setup(spec_, provider_, options_);
    return *grid_;
  }

 private:
  /// The stored copy of `ref`, or nothing when it is missing, does not
  /// parse, or has the wrong number of rows: a torn, foreign or
  /// mis-sized shard is recomputed, never assembled.
  std::optional<ShardData> load(const ShardRef& ref) {
    const std::optional<std::string> bytes = store_.get(ref.key);
    if (!bytes) return std::nullopt;
    try {
      const Json j = Json::parse(*bytes);
      ShardData shard =
          ref.grid ? grid_shard_from_json(j) : shard_from_json(j, kind_of(ref));
      if (fits(ref, shard)) return shard;
    } catch (const std::exception&) {
      // unreadable bytes: recompute below
    }
    return std::nullopt;
  }

  bool fits(const ShardRef& ref, const ShardData& shard) const {
    const auto sized = [&ref](const auto& values) { return values.size() == ref.count; };
    if (ref.grid) {
      const std::size_t attacks =
          (spec_.grid_include_clean ? 1 : 0) + spec_.variants.size();
      const std::size_t cells = attacks * spec_.defenses.size() * spec_.victims.size();
      return shard.attacks.size() == attacks && shard.cells.size() == cells &&
             std::all_of(shard.attacks.begin(), shard.attacks.end(),
                         [&](const auto& trace) {
                           return sized(trace.l2_color) && sized(trace.steps);
                         }) &&
             std::all_of(shard.cells.begin(), shard.cells.end(), sized);
    }
    if (kind_of(ref) == VariantKind::kSharedDelta) {
      return shard.accuracy_before.size() == clouds_.size() &&
             shard.accuracy_after.size() == clouds_.size();
    }
    return sized(shard.rows);
  }

  VariantKind kind_of(const ShardRef& ref) const { return spec_.variants[ref.vi].kind; }

  /// Computes `ref` from its global-index seeds.
  ShardData compute(const ShardRef& ref) {
    if (ref.grid) {
      return compute_grid_shard(grid(), spec_, options_, clouds_, ref.offset, ref.count);
    }
    const AttackVariant& variant = spec_.variants[ref.vi];
    const AttackConfig config = scaled_config(variant, options_.scale);
    SegmentationModel& model = this->model(ref.mi);
    if (variant.kind == VariantKind::kNoiseBaseline) {
      return compute_noise_shard(model, variant, config, clouds_, ref.offset, ref.count,
                                 spec_.use_l0_distance, calibration(ref.source).rows);
    }
    if (variant.kind == VariantKind::kSharedDelta) {
      return compute_shared_shard(model, config, clouds_, shard_policy(options_));
    }
    return compute_attack_shard(model, config, clouds_, ref.offset, ref.count,
                                spec_.use_l0_distance, shard_policy(options_));
  }

  /// A noise shard's calibration source, read through this resolver: a
  /// shard already resolved in this call is reused (under force too);
  /// any other is read from the store, or computed and put.
  const ShardData& calibration(std::size_t source) {
    if (!resolved_.contains(source)) resolve_shard(source, /*use_cache=*/true);
    return resolved_.at(source);
  }

  const ExperimentSpec& spec_;
  ModelProvider& provider_;
  ResultStore& store_;
  const RunOptions& options_;
  std::span<const PointCloud> clouds_;
  std::vector<ShardRef> plan_;
  std::map<std::size_t, std::shared_ptr<SegmentationModel>> models_;
  std::optional<GridSetup> grid_;
  std::map<std::size_t, ShardData> resolved_;  ///< shards resolved so far, by plan index
  long long attack_steps_ = 0;
};

// ---------------------------------------------------------------------------
// Document assembly
// ---------------------------------------------------------------------------

/// The empty document run_spec folds shards into: labelled grid columns
/// and cells, or one section per model with its clean scores and an
/// empty result per variant.
void start_document(const ExperimentSpec& spec, ShardResolver& resolver,
                    const std::vector<PointCloud>& clouds, RunDocument& doc) {
  if (spec.kind == SpecKind::kDefenseGrid) {
    const GridSetup& setup = resolver.grid();
    doc.source_model = to_string(spec.models[0]);
    doc.defense_seed = spec.defense_seed;
    for (const pcss::core::GridAttack& attack : setup.attacks) {
      GridAttackResult trace;
      trace.label = attack.label;
      doc.grid_attacks.push_back(std::move(trace));
    }
    for (const pcss::core::GridAttack& attack : setup.attacks) {
      for (const pcss::core::GridDefense& defense : setup.defenses) {
        for (const pcss::core::GridVictim& victim : setup.victims) {
          GridCellResult cell;
          cell.attack = attack.label;
          cell.defense = defense.label;
          cell.victim = victim.label;
          doc.grid.push_back(std::move(cell));
        }
      }
    }
    return;
  }
  for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
    ModelSection section;
    section.model = to_string(spec.models[mi]);
    const SegMetrics clean = pcss::core::clean_metrics(resolver.model(mi), clouds);
    section.clean_accuracy = clean.accuracy;
    section.clean_aiou = clean.aiou;
    for (const AttackVariant& variant : spec.variants) {
      VariantResult vr;
      vr.label = variant.label;
      vr.kind = variant.kind;
      section.variants.push_back(std::move(vr));
    }
    doc.models.push_back(std::move(section));
  }
}

/// Appends one shard's clouds to the document, in plan order.
void fold_shard(const ShardRef& ref, ShardData& shard, RunDocument& doc) {
  const auto append = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  if (ref.grid) {
    for (std::size_t ai = 0; ai < shard.attacks.size(); ++ai) {
      append(doc.grid_attacks[ai].l2_color, shard.attacks[ai].l2_color);
      append(doc.grid_attacks[ai].steps, shard.attacks[ai].steps);
    }
    for (std::size_t ci = 0; ci < shard.cells.size(); ++ci) {
      append(doc.grid[ci].cases, shard.cells[ci]);
    }
    return;
  }
  VariantResult& vr = doc.models[ref.mi].variants[ref.vi];
  if (vr.kind == VariantKind::kSharedDelta) {
    vr.accuracy_before = std::move(shard.accuracy_before);
    vr.accuracy_after = std::move(shard.accuracy_after);
    vr.shared_delta_l2 = shard.delta_l2;
    vr.shared_steps = shard.steps_used;
  } else {
    append(vr.cases, shard.rows);
  }
}

/// The two kind-specific assembly steps, once every shard is folded in:
/// best/avg/worst and step totals per table variant, and the grid means.
void finish_document(RunDocument& doc) {
  for (ModelSection& section : doc.models) {
    for (VariantResult& vr : section.variants) {
      if (vr.kind == VariantKind::kSharedDelta) continue;
      std::vector<CaseRecord> records;
      records.reserve(vr.cases.size());
      for (const CaseRow& row : vr.cases) {
        records.push_back(row.record);
        vr.total_steps += row.steps;
      }
      vr.aggregate = pcss::core::aggregate_cases(records);
    }
  }
  for (GridAttackResult& trace : doc.grid_attacks) {
    for (double l2 : trace.l2_color) trace.mean_l2_color += l2;
    if (!trace.l2_color.empty()) {
      trace.mean_l2_color /= static_cast<double>(trace.l2_color.size());
    }
    for (long long s : trace.steps) trace.total_steps += s;
  }
  for (GridCellResult& cell : doc.grid) {
    for (const GridCaseRow& row : cell.cases) {
      cell.mean_accuracy += row.accuracy;
      cell.mean_aiou += row.aiou;
      cell.mean_points_kept += static_cast<double>(row.points_kept);
    }
    if (!cell.cases.empty()) {
      const auto n = static_cast<double>(cell.cases.size());
      cell.mean_accuracy /= n;
      cell.mean_aiou /= n;
      cell.mean_points_kept /= n;
    }
  }
}

std::string lease_name_for(const ShardRef& shard) {
  const std::size_t slash = shard.key.find_last_of('/');
  return (slash == std::string::npos ? shard.key : shard.key.substr(slash + 1)) +
         ".lease";
}

}  // namespace

Json document_to_json(const RunDocument& doc) {
  Json j = Json::object();
  j.set("spec", doc.spec);
  j.set("key", doc.key);
  // Attack-table documents keep their pre-grid byte layout (and their
  // unchanged cache keys keep naming byte-identical documents): the
  // kind tag is only written for non-default kinds, and parsing treats
  // its absence as attack_table.
  if (doc.kind != "attack_table") j.set("kind", doc.kind);
  Json scale = Json::object();
  scale.set("scenes", doc.scale.scenes);
  scale.set("hiding_scenes", doc.scale.hiding_scenes);
  scale.set("pgd_steps", doc.scale.pgd_steps);
  scale.set("cw_steps", doc.scale.cw_steps);
  scale.set("eps_color", static_cast<double>(doc.scale.eps_color));
  scale.set("eps_coord", static_cast<double>(doc.scale.eps_coord));
  j.set("scale", std::move(scale));
  j.set("dataset", doc.dataset);
  // As a string: a 64-bit seed does not survive a round-trip through a
  // JSON double (2^53 mantissa), and the document must record the seed
  // the run actually used.
  j.set("scene_seed", std::to_string(doc.scene_seed));
  j.set("scene_count", doc.scene_count);
  j.set("l0_distance", doc.use_l0_distance);
  Json models = Json::array();
  for (const ModelSection& section : doc.models) {
    Json m = Json::object();
    m.set("model", section.model);
    m.set("clean_accuracy", section.clean_accuracy);
    m.set("clean_aiou", section.clean_aiou);
    Json variants = Json::array();
    for (const VariantResult& vr : section.variants) {
      Json v = Json::object();
      v.set("label", vr.label);
      v.set("kind", to_string(vr.kind));
      if (vr.kind == VariantKind::kSharedDelta) {
        v.set("accuracy_before", doubles_to_json(vr.accuracy_before));
        v.set("accuracy_after", doubles_to_json(vr.accuracy_after));
        v.set("delta_l2", vr.shared_delta_l2);
        v.set("steps_used", vr.shared_steps);
      } else {
        Json cases = Json::array();
        for (const CaseRow& row : vr.cases) cases.push(row_to_json(row));
        v.set("cases", std::move(cases));
        Json agg = Json::object();
        agg.set("best", record_to_json(vr.aggregate.best));
        agg.set("avg", record_to_json(vr.aggregate.avg));
        agg.set("worst", record_to_json(vr.aggregate.worst));
        v.set("aggregate", std::move(agg));
        v.set("total_steps", vr.total_steps);
      }
      variants.push(std::move(v));
    }
    m.set("variants", std::move(variants));
    models.push(std::move(m));
  }
  j.set("models", std::move(models));
  if (doc.kind == "defense_grid") {
    j.set("source_model", doc.source_model);
    j.set("defense_seed", std::to_string(doc.defense_seed));  // 64-bit: see scene_seed
    Json attacks = Json::array();
    for (const GridAttackResult& trace : doc.grid_attacks) {
      Json a = Json::object();
      a.set("label", trace.label);
      a.set("l2_color", doubles_to_json(trace.l2_color));
      a.set("steps", steps_to_json(trace.steps));
      a.set("mean_l2_color", trace.mean_l2_color);
      a.set("total_steps", trace.total_steps);
      attacks.push(std::move(a));
    }
    j.set("grid_attacks", std::move(attacks));
    Json grid = Json::array();
    for (const GridCellResult& cell : doc.grid) {
      Json c = Json::object();
      c.set("attack", cell.attack);
      c.set("defense", cell.defense);
      c.set("victim", cell.victim);
      Json cases = Json::array();
      for (const GridCaseRow& row : cell.cases) cases.push(grid_row_to_json(row));
      c.set("cases", std::move(cases));
      c.set("mean_accuracy", cell.mean_accuracy);
      c.set("mean_aiou", cell.mean_aiou);
      c.set("mean_points_kept", cell.mean_points_kept);
      grid.push(std::move(c));
    }
    j.set("grid", std::move(grid));
  }
  return j;
}

RunDocument document_from_json(const Json& j) {
  RunDocument doc;
  doc.spec = j.at("spec").str();
  doc.key = j.at("key").str();
  // Documents written before the grid kind existed carry no "kind";
  // they are all attack tables.
  if (const Json* kind = j.find("kind")) doc.kind = kind->str();
  const Json& scale = j.at("scale");
  doc.scale.scenes = scale.at("scenes").integer<int>();
  doc.scale.hiding_scenes = scale.at("hiding_scenes").integer<int>();
  doc.scale.pgd_steps = scale.at("pgd_steps").integer<int>();
  doc.scale.cw_steps = scale.at("cw_steps").integer<int>();
  doc.scale.eps_color = scale.at("eps_color").float32();
  doc.scale.eps_coord = scale.at("eps_coord").float32();
  doc.dataset = j.at("dataset").str();
  doc.scene_seed = parse_u64(j.at("scene_seed").str());
  doc.scene_count = j.at("scene_count").integer<int>();
  doc.use_l0_distance = j.at("l0_distance").boolean();
  for (const Json& m : j.at("models").items()) {
    ModelSection section;
    section.model = m.at("model").str();
    section.clean_accuracy = m.at("clean_accuracy").number();
    section.clean_aiou = m.at("clean_aiou").number();
    for (const Json& v : m.at("variants").items()) {
      VariantResult vr;
      vr.label = v.at("label").str();
      vr.kind = variant_kind_from_string(v.at("kind").str());
      if (vr.kind == VariantKind::kSharedDelta) {
        vr.accuracy_before = doubles_from_json(v.at("accuracy_before"));
        vr.accuracy_after = doubles_from_json(v.at("accuracy_after"));
        vr.shared_delta_l2 = v.at("delta_l2").number();
        vr.shared_steps = v.at("steps_used").integer<int>();
      } else {
        for (const Json& row : v.at("cases").items()) vr.cases.push_back(row_from_json(row));
        const Json& agg = v.at("aggregate");
        vr.aggregate.best = record_from_json(agg.at("best"));
        vr.aggregate.avg = record_from_json(agg.at("avg"));
        vr.aggregate.worst = record_from_json(agg.at("worst"));
        vr.total_steps = v.at("total_steps").integer<long long>();
      }
      section.variants.push_back(std::move(vr));
    }
    doc.models.push_back(std::move(section));
  }
  if (doc.kind == "defense_grid") {
    doc.source_model = j.at("source_model").str();
    doc.defense_seed = parse_u64(j.at("defense_seed").str());
    for (const Json& a : j.at("grid_attacks").items()) {
      GridAttackResult trace;
      trace.label = a.at("label").str();
      trace.l2_color = doubles_from_json(a.at("l2_color"));
      trace.steps = steps_from_json(a.at("steps"));
      trace.mean_l2_color = a.at("mean_l2_color").number();
      trace.total_steps = a.at("total_steps").integer<long long>();
      doc.grid_attacks.push_back(std::move(trace));
    }
    for (const Json& c : j.at("grid").items()) {
      GridCellResult cell;
      cell.attack = c.at("attack").str();
      cell.defense = c.at("defense").str();
      cell.victim = c.at("victim").str();
      for (const Json& r : c.at("cases").items()) {
        cell.cases.push_back(grid_row_from_json(r));
      }
      cell.mean_accuracy = c.at("mean_accuracy").number();
      cell.mean_aiou = c.at("mean_aiou").number();
      cell.mean_points_kept = c.at("mean_points_kept").number();
      doc.grid.push_back(std::move(cell));
    }
  }
  return doc;
}

RunOutcome run_spec(const ExperimentSpec& spec, ModelProvider& provider,
                    ResultStore& store, const RunOptions& options) {
  WallTimer timer;
  // Telemetry only: the root span plus a per-slot pool baseline so the
  // sidecar can report per-run pool deltas across every worker thread.
  static const obs::trace::Label kRunSpan = obs::trace::intern("runner.run_spec");
  obs::trace::ScopedSpan run_span(kRunSpan);
  const std::vector<pcss::tensor::pool::SlotStats> slots_before =
      pcss::tensor::pool::slot_stats();
  const std::string key = run_key(spec, options.scale, provider);
  const std::string doc_key = key + ".json";

  RunOutcome out;
  out.path = store.path_for(doc_key);

  if (!options.force) {
    if (auto cached = store.get(doc_key)) {
      // A document that no longer parses (hand-edited, or written by a
      // different format revision) is a miss, not a fatal error: fall
      // through and recompute under the same key.
      try {
        out.document = document_from_json(Json::parse(*cached));
        out.json = std::move(*cached);
        out.cache_hit = true;
        out.wall_seconds = timer.seconds();
        return out;
      } catch (const std::exception&) {  // parse, field or integer-range errors
        out.document = RunDocument{};
        out.json.clear();
      }
    }
  }

  const std::vector<PointCloud> clouds =
      provider.scenes(spec.dataset, options.scale.scenes, spec.scene_seed);

  RunDocument doc;
  doc.spec = spec.name;
  doc.key = key;
  doc.kind = to_string(spec.kind);
  doc.scale = options.scale;
  doc.dataset = to_string(spec.dataset);
  doc.scene_seed = spec.scene_seed;
  doc.scene_count = static_cast<int>(clouds.size());
  doc.use_l0_distance = spec.use_l0_distance;

  ShardResolver resolver(spec, provider, store, options, key, clouds);
  const std::vector<ShardRef>& plan = resolver.plan();
  ShardTelemetry telemetry(options, timer, static_cast<int>(plan.size()));
  start_document(spec, resolver, clouds, doc);

  // Telemetry only: one span per shard, with a cache_hit annotation so a
  // trace distinguishes replayed shards from executed ones at a glance.
  static const obs::trace::Label kShardSpan = obs::trace::intern("runner.shard");
  static const obs::trace::Label kCacheArg = obs::trace::intern("cache_hit");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (options.cancel && options.cancel()) throw RunCancelled(spec.name);
    ++out.shards_total;
    const std::int64_t shard_start = obs::trace::now_ns();
    std::optional<ResolvedShard> shard;
    {
      obs::trace::ScopedSpan shard_span(kShardSpan);
      shard = resolver.resolve_shard(i, !options.force);
      shard_span.arg(kCacheArg, shard->from_cache ? 1 : 0);
    }
    if (shard->from_cache) ++out.shards_from_cache;
    out.attack_steps = resolver.attack_steps();
    telemetry.finish_shard(
        shard->from_cache, static_cast<double>(obs::trace::now_ns() - shard_start) / 1e9,
        out);
    fold_shard(plan[i], shard->data, doc);
  }
  finish_document(doc);

  out.document = std::move(doc);
  out.json = document_to_json(out.document).dump() + "\n";
  store.put(doc_key, out.json);
  out.wall_seconds = timer.seconds();

  Json perf = Json::object();
  // Which kernel table executed. The document bytes are ISA-independent
  // (see the simd.h determinism contract); the sidecar records the path
  // for perf-trail forensics only.
  perf.set("simd_isa", std::string(pcss::tensor::simd::active_name()));
  perf.set("wall_seconds", out.wall_seconds);
  perf.set("attack_steps", out.attack_steps);
  perf.set("steps_per_second",
           out.wall_seconds > 0.0 ? static_cast<double>(out.attack_steps) / out.wall_seconds
                                  : 0.0);
  perf.set("shards_total", out.shards_total);
  perf.set("shards_from_cache", out.shards_from_cache);
  perf.set("num_threads", options.num_threads);
  perf.set("shard_size", std::max(1, options.shard_size));
  perf.set("fast", options.fast);
  perf.set("plan", options.plan);
  // Tensor buffer-pool telemetry, aggregated over every pool slot (one
  // per thread that ever touched the pool; exited workers' slots persist
  // with monotonic counters, so per-run numbers are before/after deltas
  // per slot). Unlike the pre-obs sidecar, the block is always present —
  // multi-threaded runs report the sum of acquires and the min/mean of
  // the per-thread hit rates instead of omitting the section.
  const std::vector<pcss::tensor::pool::SlotStats> slots_after =
      pcss::tensor::pool::slot_stats();
  std::uint64_t pool_acquires = 0, pool_hits = 0, pool_cached_floats = 0;
  double rate_min = 0.0, rate_sum = 0.0;
  int active_slots = 0;
  for (std::size_t i = 0; i < slots_after.size(); ++i) {
    const std::uint64_t acquires_0 = i < slots_before.size() ? slots_before[i].acquires : 0;
    const std::uint64_t hits_0 = i < slots_before.size() ? slots_before[i].hits : 0;
    const std::uint64_t d_acquires = slots_after[i].acquires - acquires_0;
    const std::uint64_t d_hits = slots_after[i].hits - hits_0;
    pool_cached_floats += slots_after[i].cached_floats;
    if (d_acquires == 0) continue;
    const double rate = static_cast<double>(d_hits) / static_cast<double>(d_acquires);
    rate_min = active_slots == 0 ? rate : std::min(rate_min, rate);
    rate_sum += rate;
    ++active_slots;
    pool_acquires += d_acquires;
    pool_hits += d_hits;
  }
  Json pool = Json::object();
  pool.set("acquires", static_cast<double>(pool_acquires));
  pool.set("hit_rate", pool_acquires > 0
                           ? static_cast<double>(pool_hits) /
                                 static_cast<double>(pool_acquires)
                           : 0.0);
  pool.set("hit_rate_min", active_slots > 0 ? rate_min : 0.0);
  pool.set("hit_rate_mean",
           active_slots > 0 ? rate_sum / static_cast<double>(active_slots) : 0.0);
  pool.set("threads", active_slots);
  pool.set("cached_mb", static_cast<double>(pool_cached_floats) * 4.0 / 1048576.0);
  perf.set("tensor_pool", std::move(pool));
  // Queryable metrics, folded in wholesale: the registry serializes
  // itself (deterministic name-sorted layout) and the runner re-parses
  // it, so sidecar readers see one consistent JSON document.
  obs::metrics::gauge("store.hits").set(static_cast<double>(store.hits()));
  obs::metrics::gauge("store.misses").set(static_cast<double>(store.misses()));
  perf.set("metrics", Json::parse(obs::metrics::snapshot_json()));
  store.put(key + ".perf.json", perf.dump() + "\n");
  return out;
}

WorkerOutcome run_spec_worker(const ExperimentSpec& spec, ModelProvider& provider,
                              ResultStore& store, const WorkerConfig& config) {
  WorkerOutcome out;
  const auto cancelled = [&] { return config.run.cancel && config.run.cancel(); };
  const std::string key = run_key(spec, config.run.scale, provider);
  if (!config.run.force && store.contains(key + ".json")) {
    out.doc_cached = true;  // assembled document exists: nothing to claim
    return out;
  }
  const std::vector<PointCloud> clouds =
      provider.scenes(spec.dataset, config.run.scale.scenes, spec.scene_seed);
  ShardResolver resolver(spec, provider, store, config.run, key, clouds);
  const std::vector<ShardRef>& plan = resolver.plan();
  LeaseManager leases(store.root() + "/leases", config.worker_id, config.lease_ttl_ns);
  // Chaos salt = (worker, spec): each worker replays its own decision
  // stream, and a two-spec run does not reuse the first spec's stream.
  ChaosMonkey chaos = ChaosMonkey::from_env(config.worker_id + "|" + spec.name);
  obs::metrics::Counter& computed_counter = obs::metrics::counter("runner.shards.computed");
  obs::metrics::Counter& stolen_counter = obs::metrics::counter("runner.shards.stolen");
  // Worker-specific scan origin: all workers sweep the same plan, so a
  // per-worker rotation spreads first claims across the plan instead of
  // stacking every worker onto shard 0's lease.
  const std::size_t origin =
      plan.empty() ? 0 : Fnv64().update(config.worker_id).value() % plan.size();
  bool force_pass = config.run.force;
  std::int64_t last_progress_ns = obs::trace::now_ns();
  for (;;) {
    ++out.passes;
    int missing = 0;
    int computed = 0;
    for (std::size_t n = 0; n < plan.size(); ++n) {
      if (cancelled()) {
        out.cancelled = true;  // no lease is held between shards
        return out;
      }
      const std::size_t i = (origin + n) % plan.size();
      const std::string lease = lease_name_for(plan[i]);
      LeaseManager::Acquire acquired = LeaseManager::Acquire::kBusy;
      // Runs only for a shard the store lacks (every shard under force).
      const auto claim = [&] {
        ++missing;
        acquired = leases.try_acquire(lease);
        if (acquired == LeaseManager::Acquire::kBusy) return false;
        // Chaos crash point A: die holding the lease with the shard
        // missing — the worst crash a steal must recover from.
        chaos.maybe_kill();
        return true;
      };
      const std::optional<ResolvedShard> shard =
          resolver.resolve_shard(i, !force_pass, claim);
      if (!shard || shard->from_cache) continue;
      leases.release(lease);
      ++computed;
      ++out.shards_computed;
      out.attack_steps = resolver.attack_steps();
      computed_counter.add(1);
      if (acquired == LeaseManager::Acquire::kStolen) {
        ++out.shards_stolen;
        stolen_counter.add(1);
      }
      // Chaos crash point B: die at the completed-shard boundary — the
      // shard landed atomically, so a restarted run resumes past it.
      chaos.maybe_kill();
    }
    force_pass = false;
    if (cancelled()) {
      out.cancelled = true;
      return out;
    }
    if (missing == 0) break;  // full scan saw every shard in the store
    if (computed > 0) {
      last_progress_ns = obs::trace::now_ns();
      continue;  // rescan immediately; more may have freed up meanwhile
    }
    // Every missing shard is busy-leased elsewhere: wait for the
    // holders' puts to surface, or for their leases to go stale (the
    // next scan steals those). No lease is held while waiting, so
    // nobody ever waits on a waiter.
    if (obs::trace::now_ns() - last_progress_ns >
        config.lease_ttl_ns + 5LL * 1000 * 1000 * 1000) {
      // A full TTL plus margin with zero progress: stale leases should
      // have been stolen long ago, so leasing itself is broken (e.g.
      // unwritable lease directory). Correctness never depended on the
      // leases — compute the stragglers directly, at worst duplicating
      // byte-identical work.
      for (std::size_t n = 0; n < plan.size(); ++n) {
        if (cancelled()) {
          out.cancelled = true;
          return out;
        }
        if (resolver.resolve_shard((origin + n) % plan.size(), true)->from_cache) continue;
        ++out.shards_computed;
        out.attack_steps = resolver.attack_steps();
        computed_counter.add(1);
      }
      continue;  // the next scan finds nothing missing and exits
    }
    timespec ts{0, 100L * 1000 * 1000};  // 100 ms between scans
    while (::nanosleep(&ts, &ts) == -1 && errno == EINTR) {
      if (cancelled()) {
        out.cancelled = true;
        return out;
      }
    }
  }
  return out;
}

const VariantResult& find_variant(const ModelSection& section, const std::string& label) {
  for (const VariantResult& vr : section.variants) {
    if (vr.label == label) return vr;
  }
  throw std::out_of_range("find_variant: no variant labelled '" + label + "' in model '" +
                          section.model + "'");
}

void print_grid_matrix(const RunDocument& doc) {
  for (const GridAttackResult& trace : doc.grid_attacks) {
    std::printf("  [%s]  mean L2=%.2f  %lld attack steps\n", trace.label.c_str(),
                trace.mean_l2_color, trace.total_steps);
    for (const GridCellResult& cell : doc.grid) {
      if (cell.attack != trace.label) continue;
      std::printf("    %-16s x %-18s Acc=%6.2f%%  aIoU=%6.2f%%  kept=%7.1f\n",
                  cell.defense.c_str(), cell.victim.c_str(), 100.0 * cell.mean_accuracy,
                  100.0 * cell.mean_aiou, cell.mean_points_kept);
    }
  }
}

const GridCellResult& find_cell(const RunDocument& doc, const std::string& attack,
                                const std::string& defense, const std::string& victim) {
  for (const GridCellResult& cell : doc.grid) {
    if (cell.attack == attack && cell.defense == defense && cell.victim == victim) {
      return cell;
    }
  }
  throw std::out_of_range("find_cell: no cell (" + attack + ", " + defense + ", " + victim +
                          ") in document '" + doc.spec + "'");
}

}  // namespace pcss::runner
