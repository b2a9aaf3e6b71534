// pcss_run — the single entry point for regenerating paper numbers.
//
//   pcss_run list                     registered experiment specs
//   pcss_run run <spec...> [opts]     execute specs (cache-aware)
//   pcss_run show <spec...>           print stored result documents
//   pcss_run gc [opts]                sweep stale store temporaries/leases
//
// Results are content-addressed JSON documents under artifacts/results/
// (see DESIGN.md): rerunning an unchanged spec is a pure cache hit, and
// `--force` or any change to the spec, scale, or model weights
// recomputes under a new key.
//
// `run --workers N` re-execs this binary as N worker processes (hidden
// --worker-role flag) that claim shards coordinator-lessly through
// per-shard lease files in the store; the parent reaps them and then
// merges — an ordinary run over the warm shard cache. DESIGN.md §8 has
// the protocol and the byte-identity argument.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/lease.h"
#include "pcss/runner/perf.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"
#include "pcss/runner/zoo_provider.h"
#include "flag_int.h"

namespace {

using namespace pcss::runner;

// Graceful cancel: handlers only set the flag; every loop that matters
// polls it at a shard (or wait) boundary, releases what it holds, and
// unwinds with the resumable message. No SA_RESTART, so blocking
// waitpid/nanosleep calls wake with EINTR and re-check the flag.
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int sig) { g_signal = sig; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: pcss_run <command> [arguments]\n"
               "\n"
               "commands:\n"
               "  list                      list the registered experiment specs\n"
               "  run <spec...> [options]   execute specs, reusing cached results\n"
               "  show <spec...>            print the stored result documents of specs\n"
               "  gc [options]              remove stale .tmp files and dead leases\n"
               "\n"
               "run options:\n"
               "  --fast              CPU-smoke sizing (same as PCSS_FAST=1)\n"
               "  --force             recompute, ignoring document and shard caches\n"
               "  --threads N         AttackEngine worker threads (0 = hardware)\n"
               "  --shard-size N      clouds per cached shard (default 4)\n"
               "  --no-plan           disable compiled-plan replay in the attack loop\n"
               "                      (pure execution knob: bytes and cache keys are\n"
               "                      identical either way, only wall-clock changes)\n"
               "  --workers N         run N worker processes that claim shards via\n"
               "                      store leases, then merge; crash-safe and\n"
               "                      resumable, bytes identical to --workers 0\n"
               "  --lease-ttl SEC     shard-lease staleness deadline (default 300);\n"
               "                      a worker silent this long gets its shard stolen\n"
               "  --store DIR         result store root (default artifacts/results)\n"
               "  --trace FILE        record spans; write Chrome trace JSON to FILE\n"
               "                      (open in chrome://tracing or ui.perfetto.dev;\n"
               "                      same as PCSS_TRACE=1 plus a drain at exit)\n"
               "  --metrics           print the metrics-registry snapshot (JSON) after\n"
               "                      the runs\n"
               "  --metrics-out FILE  write that snapshot to FILE instead of stdout\n"
               "\n"
               "gc options:\n"
               "  --store DIR         result store root (default artifacts/results)\n"
               "  --tmp-age SEC       only remove .tmp files at least this old\n"
               "                      (default 3600; younger ones may be in-flight puts)\n"
               "\n"
               "Telemetry never changes result documents or cache keys: --trace and\n"
               "--metrics observe a run whose stored bytes are identical either way.\n"
               "Progress heartbeats (one line per finished shard, with an ETA) go to\n"
               "stderr so stdout stays grep-stable for CI.\n"
               "\n"
               "SIGINT/SIGTERM cancel gracefully at the next shard boundary: finished\n"
               "shards are cached, so rerunning the same command resumes the run.\n");
  return code;
}

int unknown_spec(const std::string& name) {
  std::fprintf(stderr, "pcss_run: unknown spec '%s'; registered specs:\n", name.c_str());
  for (const ExperimentSpec& spec : spec_registry()) {
    std::fprintf(stderr, "  %s\n", spec.name.c_str());
  }
  return 2;
}

int cmd_list() {
  std::printf("%-14s %-8s %-7s %-9s  %s\n", "name", "dataset", "models", "variants", "title");
  for (const ExperimentSpec& spec : spec_registry()) {
    std::printf("%-14s %-8s %-7zu %-9zu  %s\n", spec.name.c_str(),
                to_string(spec.dataset), spec.models.size(), spec.variants.size(),
                spec.title.c_str());
  }
  return 0;
}

void print_record_row(const char* label, const pcss::core::CaseRecord& r,
                      const char* dist_name) {
  std::printf("    %-6s %s=%9.2f  Acc=%6.2f%%  aIoU=%6.2f%%\n", label, dist_name,
              r.distance, 100.0 * r.accuracy, 100.0 * r.aiou);
}

void print_document(const RunDocument& doc) {
  if (doc.kind == "defense_grid") {
    std::printf("  source %s, %d scenes, defenses seeded %llu\n", doc.source_model.c_str(),
                doc.scene_count, static_cast<unsigned long long>(doc.defense_seed));
    print_grid_matrix(doc);
    return;
  }
  const char* dist_name = doc.use_l0_distance ? "L0" : "L2";
  for (const ModelSection& section : doc.models) {
    std::printf("  %s (clean Acc=%.2f%%, aIoU=%.2f%%, %d scenes)\n", section.model.c_str(),
                100.0 * section.clean_accuracy, 100.0 * section.clean_aiou,
                doc.scene_count);
    for (const VariantResult& vr : section.variants) {
      if (vr.kind == VariantKind::kSharedDelta) {
        double before = 0.0, after = 0.0;
        for (double a : vr.accuracy_before) before += a;
        for (double a : vr.accuracy_after) after += a;
        const auto n = static_cast<double>(vr.accuracy_before.empty()
                                               ? 1
                                               : vr.accuracy_before.size());
        std::printf("   [%s]  mean Acc %.2f%% -> %.2f%%  (delta L2 %.2f, %d steps)\n",
                    vr.label.c_str(), 100.0 * before / n, 100.0 * after / n,
                    vr.shared_delta_l2, vr.shared_steps);
      } else {
        std::printf("   [%s]\n", vr.label.c_str());
        print_record_row("Best", vr.aggregate.best, dist_name);
        print_record_row("Avg", vr.aggregate.avg, dist_name);
        print_record_row("Worst", vr.aggregate.worst, dist_name);
      }
    }
  }
}

int cmd_run(const std::vector<std::string>& specs, const RunOptions& base_options,
            const std::string& store_root) {
  ZooModelProvider provider;
  ResultStore store(store_root);
  RunOptions options = base_options;
  // Heartbeat: one line per finished shard, to stderr — stdout carries
  // only the stable report + "[perf]" lines that CI greps. Pure
  // observation; the documents are byte-identical with or without it.
  options.on_progress = [](const ShardProgress& p) {
    if (p.eta_seconds > 0.0) {
      std::fprintf(stderr, "  [run] shard %d/%d done  (%d cached)  %.1fs elapsed  ETA %.1fs\n",
                   p.shards_done, p.shards_total, p.shards_from_cache, p.wall_seconds,
                   p.eta_seconds);
    } else {
      std::fprintf(stderr, "  [run] shard %d/%d done  (%d cached)  %.1fs elapsed\n",
                   p.shards_done, p.shards_total, p.shards_from_cache, p.wall_seconds);
    }
  };
  options.cancel = [] { return g_signal != 0; };
  // Plan telemetry deltas per spec: the registry counters are
  // process-global, so the difference across one run_spec call is what
  // this spec's attack loops captured/replayed.
  pcss::obs::metrics::Counter& plan_captures = pcss::obs::metrics::counter("plan.captures");
  pcss::obs::metrics::Counter& plan_replays = pcss::obs::metrics::counter("plan.replays");
  pcss::obs::metrics::Counter& plan_fallbacks =
      pcss::obs::metrics::counter("plan.fallbacks");
  for (const std::string& name : specs) {
    const ExperimentSpec* spec = find_spec(name);
    if (spec == nullptr) return unknown_spec(name);
    std::printf("== %s — %s ==\n", spec->name.c_str(), spec->title.c_str());
    const std::uint64_t captures0 = plan_captures.value();
    const std::uint64_t replays0 = plan_replays.value();
    const std::uint64_t fallbacks0 = plan_fallbacks.value();
    const RunOutcome out = run_spec(*spec, provider, store, options);
    print_document(out.document);
    if (out.cache_hit) {
      std::printf("  result: cache hit (0 attack steps executed)\n");
    } else {
      std::printf("  result: computed (%d/%d shards from cache)\n", out.shards_from_cache,
                  out.shards_total);
    }
    print_perf((spec->name + " run_spec").c_str(), out.wall_seconds, out.attack_steps);
    std::printf("  [plan] captures=%llu replays=%llu fallbacks=%llu\n",
                static_cast<unsigned long long>(plan_captures.value() - captures0),
                static_cast<unsigned long long>(plan_replays.value() - replays0),
                static_cast<unsigned long long>(plan_fallbacks.value() - fallbacks0));
    std::printf("  document: %s\n\n", out.path.c_str());
  }
  return 0;
}

int cmd_show(const std::vector<std::string>& specs, const std::string& store_root) {
  ResultStore store(store_root);
  int shown = 0;
  for (const std::string& name : specs) {
    if (find_spec(name) == nullptr) return unknown_spec(name);
    for (const std::string& key : store.list(name + "-")) {
      if (key.rfind("shards/", 0) == 0) continue;
      if (key.size() > 10 && key.compare(key.size() - 10, 10, ".perf.json") == 0) continue;
      const auto content = store.get(key);
      if (!content) continue;
      std::printf("-- %s --\n%s", store.path_for(key).c_str(), content->c_str());
      ++shown;
    }
  }
  if (shown == 0) {
    std::printf("no stored documents (run `pcss_run run <spec>` first; store: %s)\n",
                store.root().c_str());
  }
  return 0;
}

int cmd_gc(const std::string& store_root, long long tmp_age_sec) {
  ResultStore store(store_root);
  const std::vector<std::string> removed = store.sweep_stale_tmps(tmp_age_sec);
  for (const std::string& name : removed) {
    std::printf("  removed tmp   %s\n", name.c_str());
  }
  // Lease staleness for gc reuses the tmp age gate: a lease is dead when
  // its holder's pid is gone, or its heartbeat is at least that old.
  LeaseManager leases(store_root + "/leases", "gc",
                      std::max(1LL, tmp_age_sec) * 1000000000LL);
  const int leases_removed = leases.sweep();
  std::printf("gc: removed %zu stale tmp file(s) and %d dead lease(s) (store: %s)\n",
              removed.size(), leases_removed, store.root().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Multi-process execution (run --workers N)
// ---------------------------------------------------------------------------

/// The worker role: claim and compute shards until every spec's plan is
/// complete, then exit. Never assembles documents — that is the
/// parent's merge pass.
int cmd_worker(const std::vector<std::string>& specs, const RunOptions& base_options,
               const std::string& store_root, const std::string& worker_id,
               long long lease_ttl_sec) {
  ZooModelProvider provider;
  ResultStore store(store_root);
  WorkerConfig config;
  config.run = base_options;
  config.run.cancel = [] { return g_signal != 0; };
  config.worker_id = worker_id;
  config.lease_ttl_ns = std::max(1LL, lease_ttl_sec) * 1000000000LL;
  bool cancelled = false;
  for (const std::string& name : specs) {
    const ExperimentSpec* spec = find_spec(name);
    if (spec == nullptr) return unknown_spec(name);
    const WorkerOutcome out = run_spec_worker(*spec, provider, store, config);
    std::fprintf(stderr,
                 "[worker %s] %s: %d shard(s) computed (%d stolen) in %d pass(es), "
                 "%lld steps%s%s\n",
                 worker_id.c_str(), name.c_str(), out.shards_computed, out.shards_stolen,
                 out.passes, out.attack_steps, out.doc_cached ? ", document cached" : "",
                 out.cancelled ? ", cancelled" : "");
    if (out.cancelled) {
      cancelled = true;
      break;
    }
  }
  // One metrics snapshot per worker life, next to its log — the parent
  // merge's sidecar cannot see child-process counters.
  std::error_code ec;
  std::filesystem::create_directories(store_root + "/logs", ec);
  std::ofstream snap(store_root + "/logs/" + worker_id + ".metrics.json",
                     std::ios::binary | std::ios::trunc);
  snap << pcss::obs::metrics::snapshot_json() << "\n";
  return cancelled ? 130 : 0;
}

struct WorkerProc {
  pid_t pid = -1;
  int index = 0;
  int restarts = 0;
  int status = 0;
  bool running = false;
};

/// fork + execv with stdout/stderr redirected to `log_path`. Everything
/// the child touches (argv, the log fd) is prepared before fork, so the
/// child runs only async-signal-safe calls — fork in a process that has
/// ever run worker-pool threads is otherwise a deadlock lottery.
pid_t spawn_worker(const std::string& exe, const std::vector<std::string>& args,
                   const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  const pid_t pid = ::fork();
  if (pid != 0) {
    if (log_fd >= 0) ::close(log_fd);
    return pid;
  }
  if (log_fd >= 0) {
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::close(log_fd);
  }
  ::execv(exe.c_str(), argv.data());
  _exit(127);  // exec failed; the parent reports the status
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status) == 0 ? "exit 0"
                                    : "exit " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    std::string text = "killed by signal " + std::to_string(WTERMSIG(status));
    if (WTERMSIG(status) == SIGKILL) text += " (SIGKILL)";
    return text;
  }
  return "unknown status";
}

/// The parent role: spawn N workers, reap them (respawning chaos-killed
/// ones within a budget), then merge. Worker death is degradation, not
/// failure — survivors steal the dead worker's leases, and the merge
/// pass computes anything nobody finished, so the run completes as long
/// as this process survives.
int cmd_run_workers(const std::vector<std::string>& specs, const RunOptions& base_options,
                    const std::string& store_root, int workers, long long lease_ttl_sec,
                    const std::string& exe) {
  for (const std::string& name : specs) {
    if (find_spec(name) == nullptr) return unknown_spec(name);
  }

  ResultStore store(store_root);
  {
    // Warm the model zoo before spawning: train-if-missing happens here
    // exactly once, so N workers never race to write one checkpoint.
    // Under --force, also clear the stored documents now — the workers
    // recompute every shard, and the merge below must reassemble from
    // those shards rather than replay a stale document.
    ZooModelProvider warm;
    for (const std::string& name : specs) {
      const ExperimentSpec* spec = find_spec(name);
      for (ModelId id : spec->models) warm.model_fingerprint(id);
      for (ModelId id : spec->victims) warm.model_fingerprint(id);
      if (base_options.force) {
        store.erase(run_key(*spec, base_options.scale, warm) + ".json");
      }
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(store_root + "/logs", ec);

  // Split the machine across workers unless --threads was explicit.
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  const int worker_threads =
      base_options.num_threads > 0
          ? base_options.num_threads
          : std::max(1, hw / std::max(1, workers));

  const auto args_for = [&](int index, int restart) {
    std::vector<std::string> args = {"pcss_run", "run"};
    for (const std::string& name : specs) args.push_back(name);
    std::string worker_id = "w";
    worker_id += std::to_string(index);
    worker_id += "-r";
    worker_id += std::to_string(restart);
    args.insert(args.end(), {"--worker-role", std::to_string(index),      //
                             "--worker-id", worker_id,                    //
                             "--store", store_root,                       //
                             "--shard-size", std::to_string(base_options.shard_size),
                             "--threads", std::to_string(worker_threads),
                             "--lease-ttl", std::to_string(lease_ttl_sec)});
    if (base_options.fast) args.push_back("--fast");
    if (base_options.force) args.push_back("--force");
    if (!base_options.plan) args.push_back("--no-plan");
    return args;
  };
  const auto log_for = [&](int index) {
    return store_root + "/logs/worker-" + std::to_string(index) + ".log";
  };

  std::vector<WorkerProc> procs(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    procs[i].index = i;
    procs[i].pid = spawn_worker(exe, args_for(i, 0), log_for(i));
    procs[i].running = procs[i].pid > 0;
    if (!procs[i].running) {
      std::fprintf(stderr, "pcss_run: fork failed for worker %d: %s\n", i,
                   std::strerror(errno));
    }
  }
  std::fprintf(stderr,
               "[workers] %d worker process(es), %d attack thread(s) each; logs under "
               "%s/logs/\n",
               workers, worker_threads, store_root.c_str());

  // Reap loop. A SIGKILLed worker is respawned only under PCSS_CHAOS —
  // that is the harness's own injection; outside chaos a kill (OOM, an
  // operator) degrades to the surviving workers plus the merge pass.
  const bool chaos = std::getenv("PCSS_CHAOS") != nullptr;
  const int max_restarts = 32;
  int restarts_total = 0;
  bool forwarded = false;
  const auto any_running = [&] {
    for (const WorkerProc& p : procs) {
      if (p.running) return true;
    }
    return false;
  };
  while (any_running()) {
    if (g_signal != 0 && !forwarded) {
      forwarded = true;
      std::fprintf(stderr, "[workers] signal %d: forwarding SIGTERM to workers\n",
                   static_cast<int>(g_signal));
      for (const WorkerProc& p : procs) {
        if (p.running) ::kill(p.pid, SIGTERM);
      }
    }
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;  // re-check g_signal, keep reaping
      break;
    }
    for (WorkerProc& p : procs) {
      if (p.pid != pid) continue;
      p.running = false;
      p.status = status;
      const bool chaos_kill = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL &&
                              chaos && g_signal == 0;
      if (chaos_kill && restarts_total < max_restarts) {
        ++restarts_total;
        ++p.restarts;
        pcss::obs::metrics::counter("runner.workers.restarts").add(1);
        p.pid = spawn_worker(exe, args_for(p.index, p.restarts), log_for(p.index));
        p.running = p.pid > 0;
        std::fprintf(stderr,
                     "[workers] worker %d chaos-killed; respawned as w%d-r%d (%d/%d "
                     "restarts used)\n",
                     p.index, p.index, p.restarts, restarts_total, max_restarts);
      }
      break;
    }
  }

  int failed = 0;
  for (const WorkerProc& p : procs) {
    std::string text = describe_status(p.status);
    if (p.restarts > 0) text += " after " + std::to_string(p.restarts) + " restart(s)";
    std::fprintf(stderr, "[workers] worker %d: %s\n", p.index, text.c_str());
    if (!(WIFEXITED(p.status) && WEXITSTATUS(p.status) == 0)) ++failed;
  }

  if (g_signal != 0) {
    std::fprintf(stderr,
                 "pcss_run: interrupted (signal %d); finished shards are cached — "
                 "resumable: rerun to continue\n",
                 static_cast<int>(g_signal));
    return 130;
  }
  if (failed > 0) {
    std::fprintf(stderr,
                 "[workers] %d worker(s) did not exit cleanly; the merge pass computes "
                 "whatever they left missing\n",
                 failed);
  }

  // Merge: an ordinary single-process run over the now-warm store. Any
  // shard the workers left behind (crashes beyond the restart budget)
  // is computed here, so the run completes whenever this process
  // survives — and the bytes equal a 1-process run's by the executor's
  // partitioning invariant, not by trusting the workers.
  RunOptions merge = base_options;
  merge.force = false;  // under --force the workers already recomputed the shards
  return cmd_run(specs, merge, store_root);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") return usage(0);
  if (command == "list") return cmd_list();
  install_signal_handlers();

  std::vector<std::string> specs;
  RunOptionsBuilder builder;
  std::string store_root = ResultStore::default_root();
  std::string trace_path;
  std::string metrics_path;
  bool print_metrics = false;
  bool fast = fast_mode();
  int workers = 0;
  long long lease_ttl_sec = 300;
  long long tmp_age_sec = 3600;
  int worker_role = -1;
  std::string worker_id;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pcss_run: %s needs a value\n", flag);
        std::exit(2);
      }
      return pcss::tools::flag_count("pcss_run", flag, argv[++i]);
    };
    const auto str_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pcss_run: %s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--force") {
      builder.force();
    } else if (arg == "--threads") {
      builder.threads(int_value("--threads"));
    } else if (arg == "--shard-size") {
      builder.shard_size(int_value("--shard-size"));
    } else if (arg == "--no-plan") {
      builder.plan(false);
    } else if (arg == "--workers") {
      workers = int_value("--workers");
    } else if (arg == "--lease-ttl") {
      lease_ttl_sec = int_value("--lease-ttl");
    } else if (arg == "--tmp-age") {
      tmp_age_sec = int_value("--tmp-age");
    } else if (arg == "--worker-role") {  // hidden: parent-spawned workers only
      worker_role = int_value("--worker-role");
    } else if (arg == "--worker-id") {  // hidden: parent-spawned workers only
      worker_id = str_value("--worker-id");
    } else if (arg == "--store") {
      store_root = str_value("--store");
    } else if (arg == "--trace") {
      trace_path = str_value("--trace");
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--metrics-out") {
      metrics_path = str_value("--metrics-out");
      print_metrics = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pcss_run: unknown option '%s'\n", arg.c_str());
      return usage(2);
    } else {
      specs.push_back(arg);
    }
  }
  const RunOptions options = builder.fast(fast).build();
  if (!trace_path.empty()) pcss::obs::trace::set_enabled(true);

  if (command == "gc") return cmd_gc(store_root, tmp_age_sec);

  if (specs.empty()) {
    std::fprintf(stderr, "pcss_run: %s needs at least one spec name\n", command.c_str());
    return usage(2);
  }

  // Emits the telemetry artifacts after the runs (also on error and
  // cancel paths: a partial trace of a failed run is exactly when you
  // want one).
  const auto emit_telemetry = [&] {
    if (!trace_path.empty()) {
      if (pcss::obs::trace::write_chrome_json(trace_path)) {
        const pcss::obs::trace::Stats stats = pcss::obs::trace::stats();
        std::fprintf(stderr, "  [obs] trace: %s (%llu events, %llu dropped, %zu threads)\n",
                     trace_path.c_str(),
                     static_cast<unsigned long long>(stats.buffered),
                     static_cast<unsigned long long>(stats.dropped), stats.threads);
      } else {
        std::fprintf(stderr, "pcss_run: cannot write trace file '%s'\n",
                     trace_path.c_str());
      }
    }
    if (print_metrics) {
      const std::string snapshot = pcss::obs::metrics::snapshot_json();
      if (metrics_path.empty()) {
        std::printf("%s\n", snapshot.c_str());
      } else {
        std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
        out << snapshot << "\n";
        if (out) {
          std::fprintf(stderr, "  [obs] metrics: %s\n", metrics_path.c_str());
        } else {
          std::fprintf(stderr, "pcss_run: cannot write metrics file '%s'\n",
                       metrics_path.c_str());
        }
      }
    }
  };

  try {
    if (command == "run") {
      int code = 0;
      if (worker_role >= 0) {
        if (worker_id.empty()) worker_id = "w" + std::to_string(worker_role);
        code = cmd_worker(specs, options, store_root, worker_id, lease_ttl_sec);
      } else if (workers > 0) {
        std::string exe = "/proc/self/exe";  // re-exec this exact binary
        if (::access(exe.c_str(), X_OK) != 0) exe = argv[0];
        code = cmd_run_workers(specs, options, store_root, workers, lease_ttl_sec, exe);
      } else {
        code = cmd_run(specs, options, store_root);
      }
      emit_telemetry();
      return code;
    }
    if (command == "show") return cmd_show(specs, store_root);
  } catch (const RunCancelled& e) {
    std::fprintf(stderr, "pcss_run: %s\n", e.what());
    emit_telemetry();
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcss_run: %s\n", e.what());
    emit_telemetry();
    return 1;
  }
  std::fprintf(stderr, "pcss_run: unknown command '%s'\n", command.c_str());
  return usage(2);
}
