// pcss::obs contract tests: the disabled tracer records nothing (and
// allocates nothing), drained traces are valid Chrome trace-event JSON
// that round-trips through pcss::runner::Json, the metrics registry
// snapshots deterministically and pins names to kinds, result documents
// stay byte-identical with tracing on or off across thread counts, the
// one "[perf]" line format holds its columns under long labels, and the
// pcss_trace summarizer digests a real trace file.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/json.h"
#include "pcss/runner/perf.h"
#include "pcss/runner/result_store.h"
#include "temp_dir.h"

namespace {

namespace fs = std::filesystem;
namespace trace = pcss::obs::trace;
namespace metrics = pcss::obs::metrics;
using pcss::runner::Json;

/// Restores the tracer to disabled+empty no matter how a test exits, so
/// the obs tests cannot leak spans into each other or into other suites.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
  }
};

TEST_F(TraceTest, DisabledPathRecordsNothing) {
  trace::set_enabled(false);
  const trace::Stats before = trace::stats();
  static const trace::Label kLabel = trace::intern("obs_test.disabled");
  for (int i = 0; i < 100; ++i) {
    trace::ScopedSpan span(kLabel);
    span.arg(kLabel, i);
  }
  const trace::Stats after = trace::stats();
  EXPECT_EQ(after.recorded, before.recorded) << "disabled spans must not record";
  EXPECT_EQ(after.buffered, before.buffered);
}

TEST_F(TraceTest, InternedLabelsAreStable) {
  const trace::Label a = trace::intern("obs_test.label");
  const trace::Label b = trace::intern("obs_test.label");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(trace::label_name(a), "obs_test.label");
  EXPECT_EQ(trace::label_name(0), "");
}

TEST_F(TraceTest, DrainedTraceIsChromeJsonAndRoundTrips) {
  trace::clear();
  trace::set_enabled(true);
  static const trace::Label kOuter = trace::intern("obs_test.outer");
  static const trace::Label kInner = trace::intern("obs_test.inner");
  static const trace::Label kArg = trace::intern("step");
  {
    trace::ScopedSpan outer(kOuter);
    trace::ScopedSpan inner(kInner);
    inner.arg(kArg, 7);
  }
  trace::set_enabled(false);
  EXPECT_EQ(trace::stats().buffered, 2u);

  const std::string drained = trace::drain_chrome_json();
  const Json doc = Json::parse(drained);
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.items().size(), 2u);
  bool saw_inner = false;
  for (const Json& e : events.items()) {
    EXPECT_EQ(e.at("ph").str(), "X");
    EXPECT_GE(e.at("ts").number(), 0.0);
    EXPECT_GE(e.at("dur").number(), 0.0);
    if (e.at("name").str() == "obs_test.inner") {
      saw_inner = true;
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->at("step").number(), 7.0);
    }
  }
  EXPECT_TRUE(saw_inner);

  // parse -> dump -> parse is a fixed point under the runner's Json.
  const std::string dumped = doc.dump();
  EXPECT_EQ(Json::parse(dumped).dump(), dumped);
}

TEST_F(TraceTest, ClearForgetsBufferedEvents) {
  trace::set_enabled(true);
  static const trace::Label kLabel = trace::intern("obs_test.cleared");
  { trace::ScopedSpan span(kLabel); }
  EXPECT_GE(trace::stats().buffered, 1u);
  trace::clear();
  EXPECT_EQ(trace::stats().buffered, 0u);
  EXPECT_EQ(trace::stats().recorded, 0u);
}

TEST(ObsMetrics, CountersGaugesHistograms) {
  metrics::Counter& c = metrics::counter("obs_test.counter");
  const std::uint64_t base = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), base + 5);

  metrics::Gauge& g = metrics::gauge("obs_test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  metrics::Histogram& h = metrics::histogram("obs_test.hist", {1.0, 10.0});
  h.reset();
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const metrics::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  ASSERT_EQ(snap.counts.size(), 3u) << "bounds + 1 overflow bucket";
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 55.5);
}

TEST(ObsMetrics, NamesArePermanentlyBoundToTheirKind) {
  metrics::counter("obs_test.kind_pin");
  EXPECT_THROW(metrics::gauge("obs_test.kind_pin"), std::logic_error);
  EXPECT_THROW(metrics::histogram("obs_test.kind_pin"), std::logic_error);
  EXPECT_THROW(metrics::Histogram({10.0, 1.0}), std::logic_error)
      << "bucket edges must be ascending";
}

TEST(ObsMetrics, SnapshotJsonIsSortedAndParses) {
  metrics::counter("obs_test.snap.b").add(2);
  metrics::counter("obs_test.snap.a").add(1);
  metrics::gauge("obs_test.snap.g").set(1.5);
  metrics::histogram("obs_test.snap.h", {1.0}).observe(0.5);

  const metrics::RegistrySnapshot snap = metrics::snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first)
        << "snapshot order must be name-sorted, not registration-ordered";
  }

  const std::string json = metrics::snapshot_json();
  const Json doc = Json::parse(json);
  EXPECT_GE(doc.at("counters").at("obs_test.snap.a").number(), 1.0);
  EXPECT_GE(doc.at("counters").at("obs_test.snap.b").number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("obs_test.snap.g").number(), 1.5);
  const Json& hist = doc.at("histograms").at("obs_test.snap.h");
  EXPECT_GE(hist.at("count").number(), 1.0);
  ASSERT_EQ(hist.at("bounds").items().size(), 1u);
  ASSERT_EQ(hist.at("counts").items().size(), 2u);
}

TEST(ObsPerfLine, ColumnsHoldUnderLongLabels) {
  using pcss::runner::perf_line;
  const std::string short_line = perf_line("mini run_spec", 2.0, 100);
  const std::string long_line = perf_line(
      "resgcn+defended[sor(k=8)|srs(p=0.9)] run_spec", 2.0, 100);
  EXPECT_EQ(short_line.size(), long_line.size())
      << "label truncation must keep every column at a fixed offset";
  EXPECT_EQ(short_line.rfind("  [perf] mini run_spec", 0), 0u);
  EXPECT_EQ(long_line.rfind("  [perf] resgcn+defended[sor(k=8)|srs(...", 0), 0u);
  EXPECT_NE(short_line.find("    2.00s wall      100 steps      50.0 steps/s\n"),
            std::string::npos)
      << short_line;
  // A label of exactly 32 chars is NOT truncated.
  const std::string exact(32, 'x');
  EXPECT_NE(perf_line(exact.c_str(), 1.0, 1).find(exact), std::string::npos);
}

/// Tiny untrained model provider (mirrors the runner tests' fixture):
/// gradients flow regardless of training, which is all the byte-identity
/// contract needs.
class ObsTinyProvider : public pcss::runner::ModelProvider {
 public:
  ObsTinyProvider() {
    pcss::models::ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 8;
    config.blocks = 1;
    pcss::tensor::Rng init(31);
    model_ = std::make_shared<pcss::models::ResGCNSeg>(config, init);
  }
  std::shared_ptr<pcss::runner::SegmentationModel> model(pcss::runner::ModelId) override {
    return model_;
  }
  std::string model_fingerprint(pcss::runner::ModelId) override {
    return "obs-tiny-weights-v1";
  }
  std::vector<pcss::runner::PointCloud> scenes(pcss::runner::Dataset, int count,
                                               std::uint64_t seed) override {
    pcss::data::IndoorSceneGenerator gen({.num_points = 96});
    pcss::tensor::Rng rng(seed);
    std::vector<pcss::runner::PointCloud> out;
    for (int i = 0; i < count; ++i) out.push_back(gen.generate(rng));
    return out;
  }

 private:
  std::shared_ptr<pcss::runner::SegmentationModel> model_;
};

pcss::runner::ExperimentSpec obs_mini_spec() {
  pcss::runner::ExperimentSpec spec;
  spec.name = "obs_mini";
  spec.title = "tracing byte-identity fixture";
  spec.models = {pcss::runner::ModelId::kResGCNIndoor};
  spec.scene_seed = 4242;
  pcss::runner::AttackVariant bounded;
  bounded.label = "bounded";
  bounded.config.norm = pcss::core::AttackNorm::kBounded;
  bounded.config.field = pcss::core::AttackField::kColor;
  spec.variants.push_back(bounded);
  return spec;
}

pcss::runner::RunOptions obs_tiny_options(int threads) {
  pcss::runner::RunOptions options;
  options.scale.scenes = 3;
  options.scale.pgd_steps = 3;
  options.scale.cw_steps = 4;
  options.fast = true;
  options.num_threads = threads;
  options.shard_size = 2;
  return options;
}

TEST_F(TraceTest, DocumentsAreByteIdenticalWithTracingOnOrOff) {
  ObsTinyProvider provider;
  const pcss::runner::ExperimentSpec spec = obs_mini_spec();
  const pcss::testing::TempDir tmp;
  const std::string root = tmp.file("store");

  trace::set_enabled(false);
  pcss::runner::ResultStore store_off(root + "-off");
  const pcss::runner::RunOutcome base =
      run_spec(spec, provider, store_off, obs_tiny_options(1));

  trace::set_enabled(true);
  pcss::runner::ResultStore store_on(root + "-on");
  const pcss::runner::RunOutcome traced =
      run_spec(spec, provider, store_on, obs_tiny_options(1));
  EXPECT_EQ(traced.json, base.json)
      << "tracing must never change result document bytes";

  pcss::runner::ResultStore store_mt(root + "-mt");
  const pcss::runner::RunOutcome threaded =
      run_spec(spec, provider, store_mt, obs_tiny_options(2));
  EXPECT_EQ(threaded.json, base.json)
      << "tracing + worker threads must never change result document bytes";
  EXPECT_GT(trace::stats().recorded, 0u) << "the traced runs must actually record";
}

/// Runs the pcss_trace binary on `path`: exit status and stdout+stderr.
std::pair<int, std::string> run_pcss_trace(const std::string& path,
                                           const std::string& args = "") {
  const std::string cmd = std::string(PCSS_TRACE_BIN) + " " + path + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST_F(TraceTest, PcssTraceSummarizesARealTrace) {
  trace::clear();
  trace::set_enabled(true);
  static const trace::Label kShard = trace::intern("runner.shard");
  static const trace::Label kWork = trace::intern("obs_test.work");
  static const trace::Label kCache = trace::intern("cache_hit");
  for (int i = 0; i < 3; ++i) {
    trace::ScopedSpan shard(kShard);
    shard.arg(kCache, i == 0 ? 1 : 0);
    trace::ScopedSpan work(kWork);
  }
  trace::set_enabled(false);

  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("trace.json");
  ASSERT_TRUE(trace::write_chrome_json(path));

  const auto [status, output] = run_pcss_trace(path);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("top spans by self-time"), std::string::npos) << output;
  EXPECT_NE(output.find("shard timeline (3 shards)"), std::string::npos) << output;
  EXPECT_NE(output.find("cache"), std::string::npos) << output;
  EXPECT_NE(output.find("worker utilization"), std::string::npos) << output;
}

TEST(PcssTrace, HostileIntegersFailNamingTheField) {
  // Integer fields outside long long's range, or fractional, would be
  // undefined casts; each must fail with the field's name instead of
  // printing a wrapped value.
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("hostile_trace.json");
  const std::pair<const char*, const char*> cases[] = {
      {R"("tid": 1e300, "args": {})", "'tid'"},
      {R"("tid": -1e19, "args": {})", "'tid'"},
      {R"("tid": 1.5, "args": {})", "'tid'"},
      {R"("tid": 1, "args": {"cache_hit": 1e300})", "'args.cache_hit'"},
      {R"("tid": 1, "args": {"step": -1e300})", "'args.step'"}};
  for (const auto& [fields, name] : cases) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << R"({"traceEvents": [{"name": "runner.shard", "ph": "X", "ts": 0, "dur": 5, )"
          << fields << "}]}";
    }
    const auto [status, output] = run_pcss_trace(path);
    EXPECT_EQ(status, 1) << fields << ": " << output;
    EXPECT_NE(output.find(name), std::string::npos) << fields << ": " << output;
    EXPECT_EQ(output.find("-9223372036854775808"), std::string::npos) << output;
  }
}

TEST(PcssTrace, TopTakesOnlyANonNegativeInteger) {
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("top_trace.json");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"({"traceEvents": [)"
        << R"({"name": "span.a", "ph": "X", "ts": 0, "dur": 5, "tid": 1},)"
        << R"({"name": "span.b", "ph": "X", "ts": 10, "dur": 3, "tid": 1}]})";
  }
  // Each used to run with exit 0: "-1" printed every span, the rest none.
  for (const char* bad : {"-1", "abc", "5x", "' 3'", "+3", "''", "99999999999999999999"}) {
    const auto [status, output] = run_pcss_trace(path, std::string("--top ") + bad);
    EXPECT_EQ(status, 2) << bad << ": " << output;
    EXPECT_NE(output.find("--top expects an integer"), std::string::npos) << output;
    EXPECT_EQ(output.find("span.a"), std::string::npos) << bad << ": " << output;
  }
  const auto [status1, top1] = run_pcss_trace(path, "--top 1");
  EXPECT_EQ(status1, 0) << top1;
  EXPECT_NE(top1.find("span.a"), std::string::npos) << top1;
  EXPECT_EQ(top1.find("span.b"), std::string::npos) << top1;
  const auto [status0, top0] = run_pcss_trace(path, "--top 0");
  EXPECT_EQ(status0, 0) << top0;
  EXPECT_EQ(top0.find("span.a"), std::string::npos) << top0;
}

}  // namespace
