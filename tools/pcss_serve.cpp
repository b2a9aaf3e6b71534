// pcss_serve — the long-running attack/eval daemon over the
// content-addressed result store.
//
//   pcss_serve [--config serve.conf] [overrides]
//
// Speaks the line-delimited JSON protocol of pcss/serve/protocol.h over
// a Unix-domain socket and/or loopback TCP. Requests resolve through
// the ordinary spec registry and execute via run_spec against the
// shared ResultStore, so identical in-flight requests coalesce into one
// computation, repeat requests are byte-level cache hits, and served
// documents are byte-identical to what `pcss_run` writes (DESIGN.md §9
// has the protocol grammar and the drain semantics).
//
// SIGTERM/SIGINT drain gracefully: stop accepting, give in-flight runs
// --drain-grace to finish, checkpoint-cancel the rest at a shard
// boundary (the store stays resumable), flush telemetry, exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"
#include "pcss/runner/zoo_provider.h"
#include "pcss/serve/config.h"
#include "pcss/serve/server.h"
#include "flag_int.h"

namespace {

using namespace pcss::runner;
using namespace pcss::serve;

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
               "usage: pcss_serve [options]\n"
               "\n"
               "options:\n"
               "  --config FILE       read a serve.conf (key = value per line; keys:\n"
               "                      port, socket, workers, queue_depth,\n"
               "                      max_inflight_per_client, idle_timeout_ms,\n"
               "                      read_timeout_ms, write_timeout_ms,\n"
               "                      max_line_bytes, drain_grace_ms, store)\n"
               "  --port N            loopback TCP listener (0 = disabled)\n"
               "  --socket PATH       Unix-domain listener path\n"
               "  --store DIR         result store root (default artifacts/results)\n"
               "  --workers N         concurrent run-request executors (default 2)\n"
               "  --queue-depth N     queued-request bound; beyond it requests are\n"
               "                      rejected 429-style (default 16)\n"
               "  --max-inflight N    per-connection in-flight request cap (default 4)\n"
               "  --drain-grace MS    SIGTERM: let in-flight runs finish this long\n"
               "                      before checkpoint-cancelling at a shard\n"
               "                      boundary (default 0 = cancel immediately)\n"
               "  --threads N         attack threads per request (0 = hardware)\n"
               "  --shard-size N      clouds per cached shard (default 4)\n"
               "  --no-plan           disable compiled-plan replay in the attack loop\n"
               "  --fast              serve CPU-smoke sizing (same as PCSS_FAST=1)\n"
               "  --no-warm           skip warming model fingerprints at startup\n"
               "  --trace FILE        record spans; write Chrome trace JSON on exit\n"
               "  --metrics-out FILE  write the metrics snapshot on exit\n"
               "\n"
               "The server is a transport, not a numerics path: a served document is\n"
               "byte-identical to the same spec run via pcss_run, and rerequesting it\n"
               "is a pure cache hit.\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig config;
  config.socket_path = "";  // require an explicit listener below
  std::string store_root = ResultStore::default_root();
  bool store_overridden = false;
  std::string trace_path;
  std::string metrics_path;
  bool fast = fast_mode();
  bool warm = true;
  RunOptionsBuilder builder;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pcss_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    const auto int_value = [&](const char* flag) {
      return pcss::tools::flag_count("pcss_serve", flag, value(flag).c_str());
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--config") {
      try {
        config = parse_config_file(value("--config"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pcss_serve: %s\n", e.what());
        return 2;
      }
      if (!config.store_root.empty()) {
        store_root = config.store_root;
        store_overridden = true;
      }
    } else if (arg == "--port") {
      config.port = int_value("--port");
    } else if (arg == "--socket") {
      config.socket_path = value("--socket");
    } else if (arg == "--store") {
      store_root = value("--store");
      store_overridden = true;
    } else if (arg == "--workers") {
      config.workers = int_value("--workers");
    } else if (arg == "--queue-depth") {
      config.queue_depth = int_value("--queue-depth");
    } else if (arg == "--max-inflight") {
      config.max_inflight_per_client = int_value("--max-inflight");
    } else if (arg == "--drain-grace") {
      config.drain_grace_ms = pcss::tools::flag_int("pcss_serve", "--drain-grace",
                                                    value("--drain-grace").c_str(), 0,
                                                    std::numeric_limits<long long>::max());
    } else if (arg == "--threads") {
      builder.threads(int_value("--threads"));
    } else if (arg == "--shard-size") {
      builder.shard_size(int_value("--shard-size"));
    } else if (arg == "--no-plan") {
      builder.plan(false);
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--no-warm") {
      warm = false;
    } else if (arg == "--trace") {
      trace_path = value("--trace");
    } else if (arg == "--metrics-out") {
      metrics_path = value("--metrics-out");
    } else {
      std::fprintf(stderr, "pcss_serve: unknown option '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  (void)store_overridden;
  const RunOptions base = builder.fast(fast).build();
  if (!trace_path.empty()) pcss::obs::trace::set_enabled(true);
  install_signal_handlers();

  try {
    validate(config);
    ZooModelProvider provider;
    ResultStore store(store_root);

    if (warm) {
      // Materialize every registry model's fingerprint now: the first
      // use may train-and-save a checkpoint, which must happen before
      // concurrent requests can race to do it (same reason pcss_run
      // --workers warms the zoo before forking).
      for (const ExperimentSpec& spec : spec_registry()) {
        for (ModelId id : spec.models) provider.model_fingerprint(id);
        for (ModelId id : spec.victims) provider.model_fingerprint(id);
      }
      std::fprintf(stderr, "[serve] model zoo warm\n");
    }

    ServerHooks hooks;
    hooks.should_drain = [] { return g_signal != 0; };
    Server server(config, [](const std::string& name) { return find_spec(name); },
                  provider, store, base, hooks);
    if (!config.socket_path.empty()) {
      std::fprintf(stderr, "[serve] listening on unix:%s\n", config.socket_path.c_str());
    }
    if (server.tcp_port() > 0) {
      std::fprintf(stderr, "[serve] listening on tcp:127.0.0.1:%d\n", server.tcp_port());
    }
    std::fprintf(stderr,
                 "[serve] %d worker(s), queue depth %d, max %d in-flight/client, "
                 "store %s\n",
                 config.workers, config.queue_depth, config.max_inflight_per_client,
                 store.root().c_str());

    const int casualties = server.run();
    if (g_signal != 0) {
      std::fprintf(stderr,
                   "[serve] signal %d: drained (%d request(s) cancelled; finished "
                   "shards are cached — the store is resumable)\n",
                   static_cast<int>(g_signal), casualties);
    }

    if (!trace_path.empty()) {
      if (pcss::obs::trace::write_chrome_json(trace_path)) {
        std::fprintf(stderr, "  [obs] trace: %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "pcss_serve: cannot write trace file '%s'\n",
                     trace_path.c_str());
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
      out << pcss::obs::metrics::snapshot_json() << "\n";
      if (out) {
        std::fprintf(stderr, "  [obs] metrics: %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "pcss_serve: cannot write metrics file '%s'\n",
                     metrics_path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcss_serve: %s\n", e.what());
    return 1;
  }
}
