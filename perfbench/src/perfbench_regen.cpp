// perfbench_regen — regenerate seeded copies of registered specs into a
// cold result store, the way `pcss_run run` does, and report what
// happened.
//
//   perfbench_regen --specs table3,table6 --store DIR [--shift N] [--fast]
//                   [--threads N] [--no-plan] [--setup-only]
//                   [--trace FILE] [--report FILE]
//
// --shift adds N to every spec copy's scene seed, so one benchmark seed
// selects one set of evaluation scenes (0 = the registered tables).
//
// stdout carries the timing protocol perfbench/run.py reads: "READY <cpu_s>"
// once the zoo is loaded, fingerprints are hashed, keys are computed and
// the scenes were generated; then "DONE" after the last run_spec call.
// Everything between the two lines is the regeneration run.py times.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/zoo_provider.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"

namespace {

using pcss::runner::Json;
using namespace pcss::runner;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const char* const kCounters[] = {"attack.steps",   "attack.shared.steps", "plan.captures",
                                 "plan.replays",   "plan.fallbacks",      "tensor.gemm.calls",
                                 "tensor.gemm.flops"};

std::vector<std::uint64_t> counter_values() {
  std::vector<std::uint64_t> out;
  for (const char* name : kCounters) out.push_back(pcss::obs::metrics::counter(name).value());
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_regen --specs a,b --store DIR [--shift N] [--fast]\n"
               "                       [--threads N] [--no-plan] [--setup-only]\n"
               "                       [--trace FILE] [--report FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  std::string store_root;
  std::string trace_path;
  std::string report_path;
  long long shift = 0;
  bool fast = false;
  bool setup_only = false;
  RunOptionsBuilder builder;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench_regen: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--specs") {
      names = split_commas(value());
    } else if (arg == "--store") {
      store_root = value();
    } else if (arg == "--shift") {
      shift = std::atoll(value().c_str());
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--threads") {
      builder.threads(std::atoi(value().c_str()));
    } else if (arg == "--no-plan") {
      builder.plan(false);
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--report") {
      report_path = value();
    } else {
      return usage();
    }
  }
  if (names.empty() || store_root.empty() || shift < 0) return usage();
  const RunOptions options = builder.fast(fast).build();

  // Set-up: everything the timed regeneration must not pay for.
  ZooModelProvider provider;
  std::vector<ExperimentSpec> specs;
  for (const std::string& name : names) {
    const ExperimentSpec* registered = find_spec(name);
    if (registered == nullptr) {
      std::fprintf(stderr, "perfbench_regen: unknown spec '%s'\n", name.c_str());
      return 2;
    }
    ExperimentSpec copy = *registered;
    copy.scene_seed += static_cast<std::uint64_t>(shift);
    for (ModelId id : copy.models) provider.model(id);
    for (ModelId id : copy.victims) provider.model(id);
    (void)run_key(copy, options.scale, provider);
    (void)provider.scenes(copy.dataset, options.scale.scenes, copy.scene_seed);
    specs.push_back(std::move(copy));
  }
  std::printf("READY %.6f\n", cpu_seconds());
  std::fflush(stdout);
  if (setup_only) return 0;

  ResultStore store(store_root);
  if (!trace_path.empty()) pcss::obs::trace::set_enabled(true);
  const std::vector<std::uint64_t> counters_before = counter_values();
  const std::vector<pcss::tensor::pool::SlotStats> slots_before =
      pcss::tensor::pool::slot_stats();

  Json runs = Json::array();
  for (const ExperimentSpec& spec : specs) {
    Json entry = Json::object();
    entry.set("spec", spec.name);
    try {
      const RunOutcome out = run_spec(spec, provider, store, options);
      entry.set("ok", true);
      entry.set("key", out.document.key);
      entry.set("path", out.path);
      entry.set("cache_hit", out.cache_hit);
      entry.set("attack_steps", out.attack_steps);
      entry.set("wall_s", out.wall_seconds);
    } catch (const std::exception& e) {
      entry.set("ok", false);
      entry.set("error", std::string(e.what()));
    }
    runs.push(std::move(entry));
  }
  std::printf("DONE\n");
  std::fflush(stdout);

  Json report = Json::object();
  report.set("simd_isa", std::string(pcss::tensor::simd::active_name()));
  report.set("runs", std::move(runs));
  const std::vector<std::uint64_t> counters_after = counter_values();
  Json counters = Json::object();
  for (std::size_t i = 0; i < counters_after.size(); ++i) {
    counters.set(kCounters[i], static_cast<double>(counters_after[i] - counters_before[i]));
  }
  report.set("counters", std::move(counters));

  // Pool deltas per slot (slots are recycled with monotonic counters).
  const std::vector<pcss::tensor::pool::SlotStats> slots_after =
      pcss::tensor::pool::slot_stats();
  std::uint64_t acquires = 0, hits = 0;
  for (std::size_t i = 0; i < slots_after.size(); ++i) {
    const bool had = i < slots_before.size();
    acquires += slots_after[i].acquires - (had ? slots_before[i].acquires : 0);
    hits += slots_after[i].hits - (had ? slots_before[i].hits : 0);
  }
  // Cached pool memory is read from the run sidecars: run_spec samples it
  // while its worker pools are still alive, which this process cannot.
  double cached_mb = 0.0;
  for (const Json& entry : report.at("runs").items()) {
    if (!entry.at("ok").boolean()) continue;
    if (auto sidecar = store.get(entry.at("key").str() + ".perf.json")) {
      const Json perf = Json::parse(*sidecar);
      if (const Json* pool = perf.find("tensor_pool")) {
        cached_mb = std::max(cached_mb, pool->at("cached_mb").number());
      }
    }
  }
  Json pool = Json::object();
  pool.set("acquires", static_cast<double>(acquires));
  pool.set("hits", static_cast<double>(hits));
  pool.set("cached_mb", cached_mb);
  report.set("pool", std::move(pool));

  if (!trace_path.empty()) {
    const pcss::obs::trace::Stats stats = pcss::obs::trace::stats();
    Json trace = Json::object();
    trace.set("recorded", static_cast<double>(stats.recorded));
    trace.set("dropped", static_cast<double>(stats.dropped));
    trace.set("written", pcss::obs::trace::write_chrome_json(trace_path));
    report.set("trace", std::move(trace));
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    out << report.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench_regen: cannot write '%s'\n", report_path.c_str());
      return 1;
    }
  }
  return 0;
}
