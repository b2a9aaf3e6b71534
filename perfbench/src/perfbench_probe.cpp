// perfbench_probe — per-layer timings of public functions, on the same
// inputs a benchmark workload uses.
//
//   perfbench_probe --specs a,b --shift N --warm-store DIR --out FILE
//
// Each figure is a median over repeated calls, in milliseconds, timed
// here around one call into one layer (no instrumentation inside the
// library). Scenes are the workload's: indoor eval scenes at the spec
// copies' shifted scene seed. The runner figures read the warm store
// given by --warm-store, which must hold the registered specs at fast
// scale (the store pcss_serve reads in the benchmark).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/zoo_provider.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/plan.h"

namespace {

using pcss::runner::Json;
using namespace pcss::runner;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;    ///< repetitions behind each median (scaled per figure)
constexpr int kSteps = 15;  ///< step budget of each AttackEngine::run timed

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of `reps` calls of `fn`, in milliseconds.
double time_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return median(samples);
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

struct ZooModel {
  const char* tag;  ///< metric-name component
  ModelId id;
};
constexpr ZooModel kIndoorModels[] = {{"pointnet2", ModelId::kPointNet2Indoor},
                                      {"resgcn", ModelId::kResGCNIndoor},
                                      {"randla", ModelId::kRandLAIndoor}};

using pcss::core::AttackConfig;
using pcss::core::AttackField;
using pcss::core::AttackNorm;

/// One engine regime with its success threshold out of reach, so every
/// run uses its whole step budget.
AttackConfig regime(AttackNorm norm, AttackField field, int steps, const Scale& scale) {
  AttackConfig c;
  c.norm = norm;
  c.field = field;
  c.steps = steps;
  c.cw_steps = steps;
  c.epsilon = scale.eps_color;
  c.coord_epsilon = scale.eps_coord;
  c.success_accuracy = -1.0f;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  std::string warm_root, out_path;
  long long shift = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_probe: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--specs") {
      names = split_commas(value);
    } else if (arg == "--shift") {
      shift = std::atoll(value.c_str());
    } else if (arg == "--warm-store") {
      warm_root = value;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "perfbench_probe: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  std::vector<ExperimentSpec> specs;
  for (const std::string& name : names) {
    const ExperimentSpec* spec = find_spec(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "perfbench_probe: unknown spec '%s'\n", name.c_str());
      return 2;
    }
    specs.push_back(*spec);
    specs.back().scene_seed += static_cast<std::uint64_t>(shift);
  }
  if (specs.empty() || warm_root.empty() || out_path.empty() || shift < 0) {
    std::fprintf(stderr, "perfbench_probe: need --specs --warm-store --out\n");
    return 2;
  }
  const Scale full = scale_for(false);
  Json out = Json::object();

  // train / data: what a regeneration's set-up pays.
  out.set("train.zoo_load_ms", time_ms(kReps, [&] {
            ZooModelProvider fresh;
            for (const ExperimentSpec& spec : specs) {
              for (ModelId id : spec.models) fresh.model(id);
              for (ModelId id : spec.victims) fresh.model(id);
            }
          }));
  ZooModelProvider provider;
  out.set("data.scene_gen_ms", time_ms(kReps, [&] {
            for (const ExperimentSpec& spec : specs) {
              (void)provider.scenes(spec.dataset, full.scenes, spec.scene_seed);
            }
          }));

  const std::uint64_t indoor_seed = 5000 + static_cast<std::uint64_t>(shift);
  const std::vector<PointCloud> scenes =
      provider.scenes(Dataset::kIndoor, full.scenes, indoor_seed);
  const PointCloud& cloud = scenes.front();

  // pointcloud: kNN at the zoo models' k (12 and 16), and the combined
  // position+color kNN of the SOR defense (k = 2).
  std::vector<double> knn, knn_combined;
  for (const PointCloud& scene : scenes) {
    knn.push_back(time_ms(kReps, [&] {
      (void)pcss::pointcloud::knn_self(scene.positions, 12);
      (void)pcss::pointcloud::knn_self(scene.positions, 16);
    }));
    knn_combined.push_back(time_ms(kReps, [&] {
      (void)pcss::pointcloud::knn_self_combined(scene.positions, scene.colors, 1.0f, 2);
    }));
  }
  out.set("pointcloud.knn_ms", median(knn));
  out.set("pointcloud.knn_combined_ms", median(knn_combined));

  namespace ops = pcss::tensor::ops;
  namespace plan = pcss::tensor::plan;
  using pcss::tensor::Tensor;
  for (const ZooModel& zm : kIndoorModels) {
    SegmentationModel& model = *provider.model(zm.id);
    const std::string tag = zm.tag;
    // tensor: one eager attack step, then the same step as a plan replay.
    out.set("tensor.eager_step_ms." + tag, time_ms(kReps * 4, [&] {
              Tensor delta = Tensor::zeros({cloud.size(), 3});
              delta.set_requires_grad(true);
              Tensor logits = model.forward({&cloud, delta, {}}, false);
              ops::hinge_margin_loss(logits, cloud.labels, {}, false).backward();
            }));
    {
      Tensor delta = Tensor::zeros({cloud.size(), 3});
      delta.set_requires_grad(true);
      plan::PlanBuilder builder;
      Tensor logits = model.forward({&cloud, delta, {}}, false);
      ops::hinge_margin_loss(logits, cloud.labels, {}, false).backward();
      plan::CompiledPlan compiled;
      if (!builder.finish(compiled)) {
        std::fprintf(stderr, "perfbench_probe: %s step is not capturable\n", zm.tag);
        return 1;
      }
      out.set("tensor.plan_step_ms." + tag, time_ms(kReps * 4, [&] {
                compiled.replay_forward();
                compiled.replay_backward();
              }));
    }
    // models: clean inference.
    out.set("models.predict_ms." + tag, time_ms(kReps, [&] { (void)model.predict(cloud); }));
    // core: the engine's whole step (projection, objective, argmax, step
    // rule included), single-threaded, per step used.
    const struct {
      const char* name;
      AttackNorm norm;
      AttackField field;
    } regimes[] = {{"bounded_color", AttackNorm::kBounded, AttackField::kColor},
                   {"unbounded_color", AttackNorm::kUnbounded, AttackField::kColor},
                   {"bounded_coord", AttackNorm::kBounded, AttackField::kCoordinate}};
    for (const auto& r : regimes) {
      const pcss::core::AttackEngine engine(model, regime(r.norm, r.field, kSteps, full));
      std::vector<double> per_step;
      for (int rep = 0; rep < kReps / 2; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const pcss::core::AttackResult result =
            engine.run(cloud, 99, pcss::core::ExecPolicy{1, true, {}});
        const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        per_step.push_back(ms / std::max(1, result.steps_used));
      }
      out.set("core.step_ms." + tag + "." + r.name, median(per_step));
    }
  }

  // runner: the cache-hit path pcss_serve runs per read, piece by piece,
  // on the warm fast-scale store; and one document put.
  {
    const RunOptions fast = RunOptionsBuilder().fast(true).build();
    ResultStore store(warm_root);
    std::vector<double> key_ms, get_ms, parse_ms, hit_ms;
    std::vector<std::string> documents;
    for (const ExperimentSpec& spec : spec_registry()) {
      std::string key = run_key(spec, fast.scale, provider);  // memoizes fingerprints
      key_ms.push_back(time_ms(kReps * 10, [&] { key = run_key(spec, fast.scale, provider); }));
      std::string bytes;
      get_ms.push_back(time_ms(kReps * 10, [&] { bytes = store.get(key + ".json").value(); }));
      parse_ms.push_back(
          time_ms(kReps * 10, [&] { (void)document_from_json(Json::parse(bytes)); }));
      hit_ms.push_back(time_ms(kReps * 10, [&] {
        if (!run_spec(spec, provider, store, fast).cache_hit) {
          throw std::runtime_error("warm store misses spec " + spec.name);
        }
      }));
      documents.push_back(std::move(bytes));
    }
    out.set("runner.key_ms", median(key_ms));
    out.set("runner.store_get_ms", median(get_ms));
    out.set("runner.doc_parse_ms", median(parse_ms));
    out.set("runner.cache_hit_ms", median(hit_ms));

    const std::string put_root = out_path + ".put-store";
    ResultStore scratch(put_root);
    std::vector<double> put_ms;
    for (std::size_t i = 0; i < documents.size(); ++i) {
      put_ms.push_back(time_ms(kReps * 10, [&] {
        scratch.put("probe-" + std::to_string(i) + ".json", documents[i]);
      }));
    }
    out.set("runner.store_put_ms", median(put_ms));
    std::filesystem::remove_all(put_root);
  }

  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  file << out.dump() << "\n";
  return file ? 0 : 1;
}
