// pcss_trace — summarizes a Chrome trace-event JSON file produced by
// `pcss_run --trace out.json` (or any pcss::obs::trace drain):
//
//   pcss_trace <trace.json> [--top N]
//
// Reports, in order:
//   * top spans by total self-time (dur minus direct children), the
//     first place to look when a run is slower than expected;
//   * the per-shard timeline (runner.shard spans with their cache_hit
//     annotation), which shows resume points and cache behavior;
//   * a straggler report: live shards whose wall time exceeds
//     max(1.5 x median, mean + 2 sigma) of the live-shard distribution;
//   * per-thread utilization (busy fraction of the trace's wall span).
//
// Reads only the trace sidecar — result documents are never involved
// (telemetry stays strictly out of the document/cache path).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pcss/runner/json.h"
#include "flag_int.h"

namespace {

using pcss::runner::Json;

struct Span {
  std::string name;
  long long tid = 0;
  double ts = 0.0;   // microseconds from trace start
  double dur = 0.0;  // microseconds
  double self = 0.0;
  long long cache_hit = -1;  // -1 = no annotation
  long long step = -1;
};

/// A trace event's integer field; a value that is not a whole number in
/// long long's range fails with a message naming the field.
long long integer_field(const Json& value, const char* field) {
  try {
    return value.integer<long long>();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("trace event field '") + field + "': " + e.what());
  }
}

std::vector<Span> load_spans(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  const Json* events = doc.find("traceEvents");
  if (events == nullptr) throw std::runtime_error("not a Chrome trace: no traceEvents");
  std::vector<Span> spans;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->str() != "X") continue;  // only complete events
    Span s;
    s.name = e.at("name").str();
    s.tid = integer_field(e.at("tid"), "tid");
    s.ts = e.at("ts").number();
    s.dur = e.at("dur").number();
    if (const Json* args = e.find("args")) {
      if (const Json* hit = args->find("cache_hit")) {
        s.cache_hit = integer_field(*hit, "args.cache_hit");
      }
      if (const Json* step = args->find("step")) s.step = integer_field(*step, "args.step");
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

/// Self-time: walk each thread's spans in start order with a stack of
/// open spans; a span's duration is charged to its innermost enclosing
/// span as child time. Complete events nest properly per thread (they
/// come from RAII scopes), so containment == parenthood.
void compute_self_times(std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].ts != spans[b].ts) return spans[a].ts < spans[b].ts;
    return spans[a].dur > spans[b].dur;  // parents before equal-start children
  });
  for (auto& s : spans) s.self = s.dur;
  std::vector<std::size_t> stack;
  long long current_tid = -1;
  for (std::size_t idx : order) {
    const Span& s = spans[idx];
    if (s.tid != current_tid) {
      stack.clear();
      current_tid = s.tid;
    }
    while (!stack.empty() &&
           spans[stack.back()].ts + spans[stack.back()].dur <= s.ts) {
      stack.pop_back();
    }
    if (!stack.empty()) spans[stack.back()].self -= s.dur;
    stack.push_back(idx);
  }
}

void print_top_self(const std::vector<Span>& spans, std::size_t top_n) {
  struct Agg {
    double self_us = 0.0;
    double total_us = 0.0;
    long long count = 0;
  };
  std::map<std::string, Agg> by_name;
  double grand_self = 0.0;
  for (const Span& s : spans) {
    Agg& a = by_name[s.name];
    a.self_us += s.self;
    a.total_us += s.dur;
    ++a.count;
    grand_self += s.self;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us) return a.second.self_us > b.second.self_us;
    return a.first < b.first;
  });
  std::printf("top spans by self-time\n");
  std::printf("  %-24s %10s %8s %10s %9s\n", "span", "self(ms)", "share", "total(ms)",
              "count");
  for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const auto& [name, agg] = rows[i];
    std::printf("  %-24s %10.2f %7.1f%% %10.2f %9lld\n", name.c_str(),
                agg.self_us / 1000.0,
                grand_self > 0.0 ? 100.0 * agg.self_us / grand_self : 0.0,
                agg.total_us / 1000.0, agg.count);
  }
}

void print_shard_timeline(const std::vector<Span>& spans) {
  std::vector<const Span*> shards;
  for (const Span& s : spans) {
    if (s.name == "runner.shard") shards.push_back(&s);
  }
  std::sort(shards.begin(), shards.end(),
            [](const Span* a, const Span* b) { return a->ts < b->ts; });
  if (shards.empty()) {
    std::printf("\nno runner.shard spans (trace predates the executor, or tracing was\n"
                "enabled mid-run)\n");
    return;
  }
  std::printf("\nshard timeline (%zu shards)\n", shards.size());
  std::printf("  %-6s %5s %12s %12s %s\n", "shard", "tid", "start(ms)", "wall(ms)",
              "source");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Span& s = *shards[i];
    const char* source = s.cache_hit == 1   ? "cache"
                         : s.cache_hit == 0 ? "computed"
                                            : "?";
    std::printf("  %-6zu %5lld %12.2f %12.2f %s\n", i, s.tid, s.ts / 1000.0,
                s.dur / 1000.0, source);
  }

  // Straggler report over *live* shards only: cached replays are
  // microseconds and would drag the median to nothing.
  std::vector<double> live;
  for (const Span* s : shards) {
    if (s->cache_hit != 1) live.push_back(s->dur);
  }
  if (live.size() < 2) return;
  std::vector<double> sorted = live;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  double mean = 0.0;
  for (double d : live) mean += d;
  mean /= static_cast<double>(live.size());
  double var = 0.0;
  for (double d : live) var += (d - mean) * (d - mean);
  var /= static_cast<double>(live.size());
  const double threshold = std::max(1.5 * median, mean + 2.0 * std::sqrt(var));
  std::printf("\nstraggler report (live shards; threshold %.2fms = "
              "max(1.5 x median %.2fms, mean %.2fms + 2 sigma))\n",
              threshold / 1000.0, median / 1000.0, mean / 1000.0);
  bool any = false;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Span& s = *shards[i];
    if (s.cache_hit == 1 || s.dur <= threshold) continue;
    std::printf("  shard %zu on tid %lld: %.2fms (%.1fx median)\n", i, s.tid,
                s.dur / 1000.0, median > 0.0 ? s.dur / median : 0.0);
    any = true;
  }
  if (!any) std::printf("  none\n");
}

void print_utilization(const std::vector<Span>& spans) {
  if (spans.empty()) return;
  double t0 = spans.front().ts, t1 = spans.front().ts + spans.front().dur;
  for (const Span& s : spans) {
    t0 = std::min(t0, s.ts);
    t1 = std::max(t1, s.ts + s.dur);
  }
  const double wall = t1 - t0;
  if (wall <= 0.0) return;
  // Busy time per thread = sum of self-times (self never double-counts
  // nested spans, so the fraction stays <= 1 without interval merging).
  std::map<long long, double> busy;
  for (const Span& s : spans) busy[s.tid] += s.self;
  std::printf("\nworker utilization (%.2fms traced wall)\n", wall / 1000.0);
  for (const auto& [tid, us] : busy) {
    std::printf("  tid %-4lld busy %10.2fms  (%5.1f%%)\n", tid, us / 1000.0,
                100.0 * us / wall);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_n = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pcss_trace: --top needs a value\n");
        return 2;
      }
      top_n = static_cast<std::size_t>(
          pcss::tools::flag_count("pcss_trace", "--top", argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: pcss_trace <trace.json> [--top N]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pcss_trace: unknown option '%s'\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "pcss_trace: one trace file at a time\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: pcss_trace <trace.json> [--top N]\n");
    return 2;
  }
  try {
    std::vector<Span> spans = load_spans(path);
    if (spans.empty()) {
      std::printf("empty trace (enable with --trace or PCSS_TRACE=1)\n");
      return 0;
    }
    compute_self_times(spans);
    print_top_self(spans, top_n);
    print_shard_timeline(spans);
    print_utilization(spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcss_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
