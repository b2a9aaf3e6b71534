// pcss::runner contract tests: JSON determinism and round-trips, the
// content-addressed ResultStore, the spec registry's shape, and the
// executor's caching guarantees — a second run of an unchanged spec
// executes zero attack steps, interrupted runs resume from shard
// caches, and the stored document is byte-identical across executor
// thread counts and shard sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pcss/obs/metrics.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/hash.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "temp_dir.h"
#include "tiny_provider.h"

namespace {

namespace fs = std::filesystem;
using namespace pcss::runner;
using pcss_tests::TinyProvider;
using pcss_tests::mini_grid_spec;
using pcss_tests::mini_shared_spec;
using pcss_tests::mini_spec;
using pcss_tests::tiny_options;
using pcss_tests::tiny_scale;

/// Fresh store root per test, inside the test's own directory.
class RunnerTest : public ::testing::Test {
 protected:
  pcss::testing::TempDir dir_;
  std::string root_ = dir_.file("store");
};

TEST(RunnerJson, RoundTripsNestedValues) {
  Json doc = Json::object();
  doc.set("name", "mini");
  doc.set("ok", true);
  doc.set("none", Json());
  Json numbers = Json::array();
  numbers.push(0.1);
  numbers.push(-3.0);
  numbers.push(1e-9);
  numbers.push(12345678901234.0);
  doc.set("numbers", std::move(numbers));
  doc.set("escaped", std::string("line\nbreak \"quoted\" \\slash"));
  const std::string text = doc.dump();
  EXPECT_EQ(Json::parse(text), doc);
  // Determinism: dumping the parse reproduces the bytes exactly.
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(RunnerJson, ShortestRoundTripNumberFormat) {
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333333333");
  EXPECT_DOUBLE_EQ(Json::parse(Json(1.0 / 3.0).dump()).number(), 1.0 / 3.0);
}

TEST(RunnerJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW(Json::parse("nope"), std::runtime_error);
}

TEST(RunnerJson, IntegersAreWholeAndInRange) {
  EXPECT_EQ(Json::parse("2147483647").integer<int>(), 2147483647);
  EXPECT_EQ(Json::parse("-2147483648").integer<int>(), -2147483647 - 1);
  EXPECT_THROW(Json::parse("2147483648").integer<int>(), std::runtime_error);
  EXPECT_THROW(Json::parse("2.5").integer<int>(), std::runtime_error);
  EXPECT_THROW(Json::parse("1e999").integer<long long>(), std::runtime_error);
  EXPECT_THROW(Json::parse("9223372036854775808").integer<long long>(), std::runtime_error);
  EXPECT_EQ(Json::parse("-9223372036854775808").integer<long long>(),
            std::numeric_limits<long long>::min());
  EXPECT_THROW(Json::parse("\"7\"").integer<int>(), std::runtime_error);
  EXPECT_EQ(parse_u64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("0042"), 42u);
  for (const char* bad : {"", "18446744073709551616", "-1", " 12", "12abc", "+5"}) {
    EXPECT_THROW(parse_u64(bad), std::runtime_error) << "'" << bad << "'";
  }
}

TEST(RunnerJson, FloatsAreFiniteAndInRange) {
  EXPECT_EQ(Json::parse("0.25").float32(), 0.25f);
  EXPECT_EQ(Json::parse("3.4028234663852886e38").float32(),
            std::numeric_limits<float>::max());
  EXPECT_EQ(Json::parse("-3.4028234663852886e38").float32(),
            -std::numeric_limits<float>::max());
  for (const char* bad : {"1e39", "-1e39", "1e300", "-1e300", "1e999", "\"0.5\""}) {
    EXPECT_THROW(Json::parse(bad).float32(), std::runtime_error) << bad;
  }
}

TEST(RunnerJson, NestingIsCappedAtMaxParseDepth) {
  const auto nested_arrays = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  const int cap = Json::kMaxParseDepth;
  EXPECT_NO_THROW(Json::parse(nested_arrays(cap)));
  EXPECT_THROW(Json::parse(nested_arrays(cap + 1)), std::runtime_error);
  // Objects and arrays share one depth count.
  std::string mixed;
  for (int i = 0; i < cap; ++i) mixed += i % 2 == 0 ? "{\"a\":" : "[";
  mixed += "[]";
  for (int i = cap - 1; i >= 0; --i) mixed += i % 2 == 0 ? "}" : "]";
  EXPECT_THROW(Json::parse(mixed), std::runtime_error);
  // A line far deeper than the cap fails cleanly instead of recursing.
  EXPECT_THROW(Json::parse(std::string(65000, '[')), std::runtime_error);
}

TEST_F(RunnerTest, StorePutGetEraseAndCounters) {
  ResultStore store(root_);
  EXPECT_FALSE(store.get("missing.json").has_value());
  EXPECT_EQ(store.misses(), 1);
  store.put("a/b/doc.json", "{\"x\": 1}\n");
  const auto loaded = store.get("a/b/doc.json");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "{\"x\": 1}\n");
  EXPECT_EQ(store.hits(), 1);
  // The atomic write leaves no temporary siblings behind.
  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 1);
  EXPECT_TRUE(store.erase("a/b/doc.json"));
  EXPECT_FALSE(store.erase("a/b/doc.json"));
  EXPECT_FALSE(store.get("a/b/doc.json").has_value());
}

TEST_F(RunnerTest, StoreListFiltersByPrefix) {
  ResultStore store(root_);
  store.put("mini-00aa.json", "{}");
  store.put("mini-00aa.perf.json", "{}");
  store.put("shards/mini-00aa-m0-v0-o0-n2.json", "{}");
  store.put("other-11bb.json", "{}");
  // A stale temporary from an interrupted put() must not be listed as
  // a stored result.
  std::ofstream(root_ + "/mini-00aa.json.tmp.12345") << "{ torn";
  const auto keys = store.list("mini-");
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "mini-00aa.json");
  EXPECT_EQ(keys[1], "mini-00aa.perf.json");
  EXPECT_EQ(keys[2], "shards/mini-00aa-m0-v0-o0-n2.json");
}

TEST(RunnerHash, StableAndSensitive) {
  EXPECT_EQ(Fnv64().update("").hex(), "cbf29ce484222325");
  EXPECT_EQ(Fnv64().update("abc").hex(), Fnv64().update("abc").hex());
  EXPECT_NE(Fnv64().update("abc").hex(), Fnv64().update("abd").hex());
  EXPECT_EQ(Fnv64().update("abc").hex().size(), 16u);
}

TEST(RunnerRegistry, SpecsAreWellFormed) {
  const auto& registry = spec_registry();
  ASSERT_GE(registry.size(), 4u);
  std::set<std::string> names;
  for (const ExperimentSpec& spec : registry) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate spec " << spec.name;
    EXPECT_FALSE(spec.models.empty()) << spec.name;
    EXPECT_FALSE(spec.variants.empty()) << spec.name;
    // Noise baselines must calibrate against an *earlier* variant.
    std::set<std::string> seen;
    for (const AttackVariant& variant : spec.variants) {
      if (variant.kind == VariantKind::kNoiseBaseline) {
        EXPECT_TRUE(seen.count(variant.calibrate_from))
            << spec.name << "/" << variant.label << " calibrates from '"
            << variant.calibrate_from << "'";
      }
      seen.insert(variant.label);
    }
  }
  ASSERT_NE(find_spec("table3"), nullptr);
  EXPECT_EQ(find_spec("table3")->models.size(), 3u);
  EXPECT_EQ(find_spec("nope"), nullptr);
}

TEST(RunnerKey, SensitiveToScaleAndWeights) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  const Scale scale = tiny_scale();
  const std::string base = run_key(spec, scale, provider);
  EXPECT_EQ(base, run_key(spec, scale, provider)) << "key must be deterministic";
  EXPECT_EQ(base.rfind("mini-", 0), 0u);

  Scale bigger = scale;
  bigger.pgd_steps = 5;
  EXPECT_NE(base, run_key(spec, bigger, provider));

  TinyProvider retrained("tiny-weights-v2");
  EXPECT_NE(base, run_key(spec, scale, retrained));
}

TEST_F(RunnerTest, SecondRunIsAPureCacheHit) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.attack_steps, 0);
  EXPECT_EQ(first.shards_from_cache, 0);
  EXPECT_EQ(first.shards_total, 4);  // 2 variants x ceil(3 clouds / shard_size 2)
  EXPECT_TRUE(fs::exists(first.path));
  ASSERT_EQ(first.document.models.size(), 1u);
  ASSERT_EQ(first.document.models[0].variants.size(), 2u);
  const VariantResult& bounded = first.document.models[0].variants[0];
  ASSERT_EQ(bounded.cases.size(), 3u);
  for (const CaseRow& row : bounded.cases) {
    EXPECT_GE(row.record.accuracy, 0.0);
    EXPECT_LE(row.record.accuracy, 1.0);
    EXPECT_GT(row.steps, 0);
  }
  // The noise baseline is calibrated to the bounded attack's per-cloud
  // L2 and costs no optimization steps.
  const VariantResult& noise = first.document.models[0].variants[1];
  ASSERT_EQ(noise.cases.size(), 3u);
  for (std::size_t i = 0; i < noise.cases.size(); ++i) {
    EXPECT_EQ(noise.cases[i].steps, 0);
    EXPECT_NEAR(noise.cases[i].l2_color, bounded.cases[i].l2_color,
                0.05 * (1.0 + bounded.cases[i].l2_color));
  }

  store.reset_counters();
  const RunOutcome second = run_spec(spec, provider, store, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.attack_steps, 0) << "a cache hit must execute no attack steps";
  EXPECT_EQ(second.shards_total, 0);
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(store.misses(), 0);
  EXPECT_EQ(second.json, first.json) << "replayed bytes must match the stored document";
}

TEST_F(RunnerTest, ForceIsByteIdenticalAcrossThreadCounts) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_spec();

  RunOptions one_thread = tiny_options();
  one_thread.num_threads = 1;
  const RunOutcome first = run_spec(spec, provider, store, one_thread);

  RunOptions two_threads = tiny_options();
  two_threads.num_threads = 2;
  two_threads.force = true;
  const RunOutcome second = run_spec(spec, provider, store, two_threads);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.shards_from_cache, 0) << "--force must ignore shard caches";
  EXPECT_GT(second.attack_steps, 0);
  EXPECT_EQ(second.json, first.json)
      << "document bytes must not depend on the worker thread count";
}

TEST_F(RunnerTest, CorruptCachedDocumentIsTreatedAsAMiss) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  store.put(first.document.key + ".json", "{ not json");
  const RunOutcome recovered = run_spec(spec, provider, store, options);
  EXPECT_FALSE(recovered.cache_hit);
  EXPECT_EQ(recovered.json, first.json) << "recompute must repair the corrupt document";
  EXPECT_EQ(recovered.attack_steps, 0) << "shard cache still valid, so no live steps";

  // Parseable JSON with a malformed field (stoull would throw a
  // logic_error, not a runtime_error) must also degrade to a miss.
  std::string mangled = first.json;
  const auto pos = mangled.find("\"scene_seed\": \"4242\"");
  ASSERT_NE(pos, std::string::npos);
  mangled.replace(pos, 20, "\"scene_seed\": \"abcd\"");
  store.put(first.document.key + ".json", mangled);
  const RunOutcome repaired = run_spec(spec, provider, store, options);
  EXPECT_FALSE(repaired.cache_hit);
  EXPECT_EQ(repaired.json, first.json);
}

/// `json` with the value of the first `"key": ` member replaced by `value`
/// (a scalar: the old value ends at the next ',' or newline).
std::string with_value(std::string json, const std::string& key, const std::string& value) {
  const std::string field = "\"" + key + "\": ";
  const auto pos = json.find(field);
  if (pos == std::string::npos) return "";
  const auto start = pos + field.size();
  json.replace(start, json.find_first_of(",\n", start) - start, value);
  return json;
}

TEST_F(RunnerTest, OutOfRangeIntegersInStoredBytesAreMisses) {
  // Integers a stored document or shard carries must be whole and fit
  // their type (and seeds all digits), and its float epsilons must be
  // finite floats. Anything else is unreadable bytes: the run recomputes
  // and stores exactly what a fresh run writes.
  TinyProvider provider;
  ResultStore store(root_);
  const RunOptions options = tiny_options();
  const ExperimentSpec spec = mini_spec();
  const RunOutcome first = run_spec(spec, provider, store, options);
  const std::string doc_key = first.document.key + ".json";
  const std::pair<const char*, const char*> doc_cases[] = {
      {"scenes", "1e300"},          {"pgd_steps", "-1e19"},   {"scene_count", "2.5"},
      {"total_steps", "1e30"},      {"steps", "-1e19"},       {"scene_seed", "\"-1\""},
      {"scene_seed", "\" 4242\""}, {"scene_seed", "\"4242abc\""}, {"eps_color", "1e300"},
      {"eps_color", "-1e300"},      {"eps_coord", "1e39"}};
  for (const auto& [key, value] : doc_cases) {
    const std::string mangled = with_value(first.json, key, value);
    ASSERT_FALSE(mangled.empty()) << key;
    store.put(doc_key, mangled);
    const RunOutcome again = run_spec(spec, provider, store, options);
    EXPECT_FALSE(again.cache_hit) << key << " = " << value;
    EXPECT_EQ(again.json, first.json) << key << " = " << value;
  }

  // One bad shard per kind (the first one, which holds attack rows): the
  // document is gone, so the run assembles from shards and must recompute
  // the bad one instead of reading it.
  const auto mangle_a_shard = [&](const ExperimentSpec& s, const RunOutcome& fresh,
                                  const char* key, const char* value) {
    std::string shard_key;
    for (const std::string& k : store.list(fresh.document.key)) {
      if (shard_key.empty() && k.rfind("shards/", 0) == 0) shard_key = k;
    }
    ASSERT_FALSE(shard_key.empty()) << s.name;
    const std::string mangled = with_value(*store.get(shard_key), key, value);
    ASSERT_FALSE(mangled.empty()) << s.name << " " << key;
    store.put(shard_key, mangled);
    ASSERT_TRUE(store.erase(fresh.document.key + ".json"));
    const RunOutcome again = run_spec(s, provider, store, options);
    EXPECT_FALSE(again.cache_hit);
    EXPECT_GT(again.attack_steps, 0) << s.name << ": the bad shard must be recomputed";
    EXPECT_EQ(again.json, fresh.json) << s.name << " " << key << " = " << value;
  };
  mangle_a_shard(spec, first, "steps", "1e30");
  mangle_a_shard(spec, first, "steps", "-1e19");
  const ExperimentSpec shared = mini_shared_spec();
  mangle_a_shard(shared, run_spec(shared, provider, store, options), "steps_used", "1e30");
  const ExperimentSpec grid = mini_grid_spec();
  mangle_a_shard(grid, run_spec(grid, provider, store, options), "points_kept", "1e300");
}

TEST_F(RunnerTest, InterruptedRunResumesFromShardCache) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  // Simulate a crash after the shards landed but before the document:
  // the resumed run recomputes nothing.
  ASSERT_TRUE(store.erase(first.document.key + ".json"));
  const RunOutcome resumed = run_spec(spec, provider, store, options);
  EXPECT_FALSE(resumed.cache_hit);
  EXPECT_EQ(resumed.attack_steps, 0);
  EXPECT_EQ(resumed.shards_from_cache, resumed.shards_total);
  EXPECT_EQ(resumed.json, first.json);
}

TEST_F(RunnerTest, ShardSizeDoesNotChangeTheBytes) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();

  ResultStore store_a(root_ + "-a");
  RunOptions whole = tiny_options();
  whole.shard_size = 8;  // everything in one shard
  const RunOutcome coarse = run_spec(spec, provider, store_a, whole);

  ResultStore store_b(root_ + "-b");
  RunOptions single = tiny_options();
  single.shard_size = 1;  // one cloud per shard
  const RunOutcome fine = run_spec(spec, provider, store_b, single);
  EXPECT_EQ(coarse.json, fine.json)
      << "per-cloud RNG must stay seed + global index under any sharding";
  EXPECT_EQ(fine.shards_total, 6);  // 2 variants x 3 clouds

  fs::remove_all(root_ + "-a");
  fs::remove_all(root_ + "-b");
}

TEST_F(RunnerTest, SharedDeltaSpecRunsAndCaches) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_shared_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  ASSERT_EQ(first.document.models.size(), 1u);
  const VariantResult& universal = first.document.models[0].variants[0];
  EXPECT_EQ(universal.kind, VariantKind::kSharedDelta);
  ASSERT_EQ(universal.accuracy_before.size(), 3u);
  ASSERT_EQ(universal.accuracy_after.size(), 3u);
  EXPECT_GT(universal.shared_steps, 0);
  EXPECT_GT(universal.shared_delta_l2, 0.0);
  EXPECT_EQ(first.shards_total, 1) << "joint optimization is one indivisible shard";

  const RunOutcome second = run_spec(spec, provider, store, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.json, first.json);
}

TEST(RunnerRegistry, DefenseGridSpecsAreRegistered) {
  for (const char* name : {"table8", "defense_grid"}) {
    const ExperimentSpec* spec = find_spec(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->kind, SpecKind::kDefenseGrid) << name;
    EXPECT_EQ(spec->models.size(), 1u) << name;
    EXPECT_FALSE(spec->victims.empty()) << name;
    EXPECT_FALSE(spec->defenses.empty()) << name;
    for (const AttackVariant& variant : spec->variants) {
      EXPECT_EQ(variant.kind, VariantKind::kPerCloud) << name << "/" << variant.label;
    }
    // Every declarative defense must materialize (bad params throw here,
    // not mid-run) and produce a distinct describe string.
    std::set<std::string> describes;
    for (const DefensePipelineSpec& defense : spec->defenses) {
      EXPECT_TRUE(describes.insert(build_pipeline(defense).describe()).second)
          << name << "/" << defense.label;
    }
  }
}

TEST(RunnerKey, GridKeySensitiveToDefensesAndVictims) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_grid_spec();
  const Scale scale = tiny_scale();
  const std::string base = run_key(spec, scale, provider);
  EXPECT_EQ(base, run_key(spec, scale, provider));

  ExperimentSpec tweaked = mini_grid_spec();
  tweaked.defenses[1].stages[0].srs_fraction = 0.2f;
  EXPECT_NE(base, run_key(tweaked, scale, provider)) << "stage params must re-key";

  ExperimentSpec fewer_victims = mini_grid_spec();
  fewer_victims.victims.pop_back();
  EXPECT_NE(base, run_key(fewer_victims, scale, provider));

  ExperimentSpec other_seed = mini_grid_spec();
  other_seed.defense_seed = 1;
  EXPECT_NE(base, run_key(other_seed, scale, provider));
}

TEST_F(RunnerTest, GridSecondRunIsAPureCacheHit) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_grid_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.attack_steps, 0);
  EXPECT_EQ(first.shards_total, 2);  // ceil(3 clouds / shard_size 2)
  EXPECT_EQ(first.document.kind, "defense_grid");
  EXPECT_EQ(first.document.source_model, "resgcn_indoor");
  // (clean + bounded) x 3 defenses x 2 victims.
  ASSERT_EQ(first.document.grid.size(), 2u * 3u * 2u);
  ASSERT_EQ(first.document.grid_attacks.size(), 2u);
  EXPECT_EQ(first.document.grid_attacks[0].label, "clean");
  EXPECT_EQ(first.document.grid_attacks[0].total_steps, 0);
  EXPECT_GT(first.document.grid_attacks[1].total_steps, 0);
  for (const GridCellResult& cell : first.document.grid) {
    ASSERT_EQ(cell.cases.size(), 3u) << cell.attack << "/" << cell.defense;
    for (const GridCaseRow& row : cell.cases) {
      EXPECT_GE(row.accuracy, 0.0);
      EXPECT_LE(row.accuracy, 1.0);
      EXPECT_GT(row.points_kept, 0);
    }
    if (cell.defense == "none") {
      EXPECT_EQ(cell.cases[0].points_kept, 96);
    } else {
      EXPECT_LT(cell.cases[0].points_kept, 96);
    }
  }
  // The no-defense cell on the source must equal what find_cell returns.
  const GridCellResult& cell = find_cell(first.document, "bounded", "none", "resgcn_indoor");
  EXPECT_EQ(cell.victim, "resgcn_indoor");
  EXPECT_THROW(find_cell(first.document, "bounded", "nope", "resgcn_indoor"),
               std::out_of_range);

  const RunOutcome second = run_spec(spec, provider, store, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.attack_steps, 0);
  EXPECT_EQ(second.json, first.json);
}

TEST_F(RunnerTest, GridBytesInvariantAcrossThreadsAndShardSizes) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_grid_spec();

  ResultStore store_a(root_ + "-a");
  RunOptions one = tiny_options();
  const RunOutcome base = run_spec(spec, provider, store_a, one);

  RunOptions two = tiny_options();
  two.num_threads = 2;
  two.force = true;
  const RunOutcome threaded = run_spec(spec, provider, store_a, two);
  EXPECT_FALSE(threaded.cache_hit);
  EXPECT_EQ(threaded.json, base.json)
      << "grid documents must not depend on the worker thread count";

  ResultStore store_b(root_ + "-b");
  RunOptions fine = tiny_options();
  fine.shard_size = 1;
  const RunOutcome sharded = run_spec(spec, provider, store_b, fine);
  EXPECT_EQ(sharded.shards_total, 3);
  EXPECT_EQ(sharded.json, base.json)
      << "defense streams must stay keyed to the global cloud index";

  fs::remove_all(root_ + "-a");
  fs::remove_all(root_ + "-b");
}

TEST_F(RunnerTest, GridHonorsNoPlan) {
  // The defense grid's attack columns must run under the shard's
  // execution policy: with plans off nothing is captured or replayed,
  // and the document bytes match the plan-on run.
  TinyProvider provider;
  const ExperimentSpec spec = mini_grid_spec();
  const auto& captures = pcss::obs::metrics::counter("plan.captures");
  const auto& replays = pcss::obs::metrics::counter("plan.replays");

  ResultStore store_on(root_ + "-on");
  const std::uint64_t captures0 = captures.value();
  const RunOutcome planned = run_spec(spec, provider, store_on, tiny_options());
  EXPECT_GT(captures.value() - captures0, 0u) << "plan-on grid must capture";

  ResultStore store_off(root_ + "-off");
  RunOptions no_plan = tiny_options();
  no_plan.plan = false;
  const std::uint64_t captures1 = captures.value();
  const std::uint64_t replays1 = replays.value();
  const RunOutcome eager = run_spec(spec, provider, store_off, no_plan);
  EXPECT_EQ(captures.value() - captures1, 0u);
  EXPECT_EQ(replays.value() - replays1, 0u);
  EXPECT_FALSE(eager.cache_hit);
  EXPECT_EQ(eager.json, planned.json);

  fs::remove_all(root_ + "-on");
  fs::remove_all(root_ + "-off");
}

TEST_F(RunnerTest, SidecarReportsPoolAndMetricsForThreadedRuns) {
  // PR 3 regression: the .perf.json sidecar used to omit the tensor_pool
  // block whenever worker threads did the allocating. It must now always
  // be present (aggregated across the per-thread pool slots), alongside
  // the folded-in metrics registry snapshot.
  TinyProvider provider;
  ResultStore store(root_);
  RunOptions two = tiny_options();
  two.num_threads = 2;
  const RunOutcome out = run_spec(mini_spec(), provider, store, two);

  const auto sidecar = store.get(out.document.key + ".perf.json");
  ASSERT_TRUE(sidecar.has_value());
  const Json perf = Json::parse(*sidecar);
  const Json* pool = perf.find("tensor_pool");
  ASSERT_NE(pool, nullptr) << "tensor_pool block must exist for threaded runs";
  EXPECT_GT(pool->at("acquires").number(), 0.0);
  EXPECT_GE(pool->at("threads").number(), 1.0);
  EXPECT_GE(pool->at("hit_rate").number(), pool->at("hit_rate_min").number());
  EXPECT_LE(pool->at("hit_rate").number(), 1.0);

  const Json* metrics = perf.find("metrics");
  ASSERT_NE(metrics, nullptr) << "registry snapshot must be folded into the sidecar";
  const Json* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* steps = counters->find("attack.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_GT(steps->number(), 0.0);
}

TEST_F(RunnerTest, GridResumesFromShardCache) {
  TinyProvider provider;
  ResultStore store(root_);
  const ExperimentSpec spec = mini_grid_spec();
  const RunOptions options = tiny_options();

  const RunOutcome first = run_spec(spec, provider, store, options);
  ASSERT_TRUE(store.erase(first.document.key + ".json"));
  const RunOutcome resumed = run_spec(spec, provider, store, options);
  EXPECT_FALSE(resumed.cache_hit);
  EXPECT_EQ(resumed.attack_steps, 0) << "all grid shards must replay from the cache";
  EXPECT_EQ(resumed.shards_from_cache, resumed.shards_total);
  EXPECT_EQ(resumed.json, first.json);
}

TEST_F(RunnerTest, GridDocumentSurvivesJsonRoundTrip) {
  TinyProvider provider;
  ResultStore store(root_);
  const RunOutcome out = run_spec(mini_grid_spec(), provider, store, tiny_options());
  const RunDocument reparsed = document_from_json(Json::parse(out.json));
  EXPECT_EQ(document_to_json(reparsed).dump() + "\n", out.json);
  EXPECT_EQ(reparsed.defense_seed, 2024u);
}

TEST_F(RunnerTest, DocumentSurvivesJsonRoundTrip) {
  TinyProvider provider;
  ResultStore store(root_);
  const RunOutcome out = run_spec(mini_spec(), provider, store, tiny_options());
  const RunDocument reparsed = document_from_json(Json::parse(out.json));
  EXPECT_EQ(document_to_json(reparsed).dump() + "\n", out.json);
}

}  // namespace
