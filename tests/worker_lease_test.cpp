// Failure-matrix tests for coordinator-less multi-process execution:
// lease claim/renew/expiry/steal, deterministic chaos injection, the
// worker claim/compute loop (in-process and as real killed-and-stolen
// child processes), crash-resume, store GC, put() diagnostics, and
// graceful cancel. Child processes run tests/worker_fixture_main.cpp —
// the gtest process itself never forks-and-continues (it runs attack
// threads), it only fork+execve's with pre-built argv/envp.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pcss/runner/executor.h"
#include "pcss/runner/lease.h"
#include "pcss/runner/result_store.h"
#include "temp_dir.h"
#include "tiny_provider.h"

extern "C" char** environ;

namespace {

namespace fs = std::filesystem;
using namespace pcss::runner;
using pcss_tests::TinyProvider;
using pcss_tests::mini_grid_spec;
using pcss_tests::mini_shared_spec;
using pcss_tests::mini_spec;
using pcss_tests::tiny_options;
using pcss_tests::tiny_scale;

void sleep_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  while (::nanosleep(&ts, &ts) == -1 && errno == EINTR) {
  }
}

/// fork+execve of the worker fixture binary. argv and envp are fully
/// built before fork, so the child touches no allocator between fork
/// and execve. `chaos` (possibly empty) replaces any inherited
/// PCSS_CHAOS so the fixture — and only the fixture — sees it.
pid_t spawn_fixture(const std::vector<std::string>& args, const std::string& chaos = "") {
  std::vector<std::string> full;
  full.push_back(PCSS_WORKER_FIXTURE_BIN);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (const std::string& a : full) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PCSS_CHAOS=", 11) == 0) continue;
    env.push_back(*e);
  }
  if (!chaos.empty()) env.push_back("PCSS_CHAOS=" + chaos);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  return pid;
}

/// Raw waitpid status (use WIFEXITED/WIFSIGNALED on it); -1 on error.
int wait_status(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) == -1) {
    if (errno != EINTR) return -1;
  }
  return status;
}

int run_fixture(const std::vector<std::string>& args, const std::string& chaos = "") {
  const pid_t pid = spawn_fixture(args, chaos);
  if (pid < 0) return -1;
  return wait_status(pid);
}

bool exited_zero(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

/// Fresh store root per test, inside the test's own directory.
class TempStoreTest : public ::testing::Test {
 protected:
  pcss::testing::TempDir dir_;
  std::string root_ = dir_.file("store");
};

class WorkerLeaseTest : public TempStoreTest {};
class WorkerLoopTest : public TempStoreTest {};
class WorkerChaosTest : public TempStoreTest {};
class WorkerResumeTest : public TempStoreTest {};
class ShardGcTest : public TempStoreTest {};
class ShardStoreTest : public TempStoreTest {};
class ShardCancelTest : public TempStoreTest {};
class ShardDecodeTest : public TempStoreTest {};

constexpr std::int64_t kLongTtl = 600LL * 1000 * 1000 * 1000;  // 10 min: never expires here

TEST_F(WorkerLeaseTest, FreshAcquireIsExclusiveUntilReleased) {
  LeaseManager a(root_, "worker-a", kLongTtl);
  LeaseManager b(root_, "worker-b", kLongTtl);
  EXPECT_EQ(a.try_acquire("s0.lease"), LeaseManager::Acquire::kAcquired);
  EXPECT_EQ(b.try_acquire("s0.lease"), LeaseManager::Acquire::kBusy);
  // Distinct leases don't contend.
  EXPECT_EQ(b.try_acquire("s1.lease"), LeaseManager::Acquire::kAcquired);

  const auto held = a.peek("s0.lease");
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->owner, "worker-a");
  EXPECT_EQ(held->pid, static_cast<long long>(::getpid()));

  EXPECT_TRUE(a.release("s0.lease"));
  EXPECT_FALSE(a.peek("s0.lease").has_value());
  EXPECT_EQ(b.try_acquire("s0.lease"), LeaseManager::Acquire::kAcquired);
  // release() only removes a lease we still hold.
  EXPECT_FALSE(a.release("s0.lease"));
  EXPECT_TRUE(b.peek("s0.lease").has_value());
}

TEST_F(WorkerLeaseTest, RenewRefreshesHeartbeatAndBumpsGeneration) {
  LeaseManager a(root_, "worker-a", kLongTtl);
  ASSERT_EQ(a.try_acquire("s0.lease"), LeaseManager::Acquire::kAcquired);
  const auto before = a.peek("s0.lease");
  ASSERT_TRUE(before.has_value());
  sleep_ms(5);
  EXPECT_TRUE(a.renew("s0.lease"));
  const auto after = a.peek("s0.lease");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->owner, "worker-a");
  EXPECT_GT(after->generation, before->generation);
  EXPECT_GT(after->heartbeat_ns, before->heartbeat_ns);
  // Renewing a lease we don't hold fails without inventing one.
  EXPECT_FALSE(a.renew("never-acquired.lease"));
}

TEST_F(WorkerLeaseTest, ExpiredLeaseIsStolenAndOldHolderCannotRenew) {
  // 50 ms TTL: the holder's pid is alive (it's us), so staleness must
  // come from the heartbeat-age backstop alone.
  LeaseManager straggler(root_, "straggler", 50LL * 1000 * 1000);
  LeaseManager thief(root_, "thief", 50LL * 1000 * 1000);
  ASSERT_EQ(straggler.try_acquire("s0.lease"), LeaseManager::Acquire::kAcquired);
  EXPECT_EQ(thief.try_acquire("s0.lease"), LeaseManager::Acquire::kBusy) << "still fresh";
  sleep_ms(150);
  EXPECT_EQ(thief.try_acquire("s0.lease"), LeaseManager::Acquire::kStolen);
  const auto now_held = thief.peek("s0.lease");
  ASSERT_TRUE(now_held.has_value());
  EXPECT_EQ(now_held->owner, "thief");
  // The straggler notices the theft instead of resurrecting its claim.
  EXPECT_FALSE(straggler.renew("s0.lease"));
  EXPECT_FALSE(straggler.release("s0.lease"));
  EXPECT_EQ(now_held->owner, thief.peek("s0.lease")->owner);
}

TEST_F(WorkerLeaseTest, DeadHolderIsStolenImmediatelyDespiteLongTtl) {
  // The fixture acquires and exits without releasing: a crashed worker.
  ASSERT_TRUE(exited_zero(run_fixture({root_, "crashed", "--hold", "s0.lease",
                                       "--ttl-ms", "600000"})));
  LeaseManager thief(root_ + "/leases", "thief", kLongTtl);
  const auto held = thief.peek("s0.lease");
  ASSERT_TRUE(held.has_value()) << "the crashed holder's lease must survive it";
  EXPECT_EQ(held->owner, "crashed");
  // Long TTL, fresh heartbeat — but the pid is gone, so no waiting.
  EXPECT_EQ(thief.try_acquire("s0.lease"), LeaseManager::Acquire::kStolen);
  EXPECT_EQ(thief.peek("s0.lease")->owner, "thief");
}

TEST_F(WorkerLeaseTest, OutOfRangeRecordsReadAsTornAndAreSwept) {
  // Each record is well-formed JSON whose numbers a cast would truncate
  // or overflow (or whose heartbeat would overflow the staleness age).
  const std::string pid = std::to_string(::getpid());
  const std::vector<std::pair<std::string, std::string>> records = {
      {"huge-pid.lease",
       R"({"owner": "x", "pid": 1e300, "heartbeat_ns": "1", "generation": 1})"},
      {"fraction-pid.lease",
       R"({"owner": "x", "pid": 1.5, "heartbeat_ns": "1", "generation": 1})"},
      {"huge-generation.lease",
       R"({"owner": "x", "pid": )" + pid + R"(, "heartbeat_ns": "1", "generation": 1e300})"},
      {"min-heartbeat.lease", R"({"owner": "x", "pid": )" + pid +
                                  R"(, "heartbeat_ns": "-9223372036854775808", "generation": 1})"},
  };
  fs::create_directories(root_);
  for (const auto& [name, record] : records) std::ofstream(root_ + "/" + name) << record;

  LeaseManager manager(root_, "worker-a", kLongTtl);
  for (const auto& [name, record] : records) {
    EXPECT_FALSE(manager.peek(name).has_value()) << name;
  }
  EXPECT_EQ(manager.sweep(), static_cast<int>(records.size()));
  for (const auto& [name, record] : records) EXPECT_FALSE(fs::exists(root_ + "/" + name)) << name;
}

TEST(WorkerChaos, KillSequenceIsDeterministicPerSeedAndSalt) {
  const auto draws = [](double prob, std::uint64_t seed, const std::string& salt) {
    ChaosMonkey monkey(prob, seed, salt);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(monkey.would_kill());
    return out;
  };
  EXPECT_EQ(draws(0.5, 7, "w0|mini"), draws(0.5, 7, "w0|mini"));
  EXPECT_NE(draws(0.5, 7, "w0|mini"), draws(0.5, 7, "w1|mini"))
      << "distinct workers must draw distinct streams";
  EXPECT_NE(draws(0.5, 7, "w0|mini"), draws(0.5, 8, "w0|mini"));

  const auto always = draws(1.0, 3, "x");
  const auto never = draws(0.0, 3, "x");
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(always[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(never[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(ChaosMonkey().enabled());
  EXPECT_TRUE(ChaosMonkey(0.5, 7, "x").enabled());
}

TEST(WorkerChaos, FromEnvParsesStrictlyAndDisablesOnGarbage) {
  const auto with_env = [](const char* value) {
    if (value == nullptr) {
      ::unsetenv("PCSS_CHAOS");
    } else {
      ::setenv("PCSS_CHAOS", value, 1);
    }
    ChaosMonkey monkey = ChaosMonkey::from_env("salt");
    ::unsetenv("PCSS_CHAOS");
    return monkey.enabled();
  };
  EXPECT_FALSE(with_env(nullptr));
  EXPECT_TRUE(with_env("0.5:1234"));
  EXPECT_TRUE(with_env("1:0"));
  EXPECT_FALSE(with_env("0:99")) << "probability zero is a no-op";
  EXPECT_FALSE(with_env("banana"));
  EXPECT_FALSE(with_env("0.5"));
  EXPECT_FALSE(with_env("0.5:"));
  EXPECT_FALSE(with_env("1.5:3")) << "probability must be in [0, 1]";
  EXPECT_FALSE(with_env("-0.1:3"));
  EXPECT_FALSE(with_env("0.5:12junk"));
}

TEST_F(WorkerLoopTest, WorkerComputesEveryShardThenMergeIsPureReplay) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();

  // Reference document from an ordinary single-process run.
  ResultStore ref_store(root_ + "-ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  ResultStore store(root_);
  WorkerConfig config;
  config.run = tiny_options();
  config.worker_id = "w0";
  config.lease_ttl_ns = kLongTtl;
  const WorkerOutcome out = run_spec_worker(spec, provider, store, config);
  // The plan has 4 shards (2 variants x ceil(3 clouds / shard_size 2)),
  // but a noise shard computed first stores its calibration source (a
  // bounded shard) inline, which that shard's own claim then sees as a
  // cache hit — so the claimed-and-computed count is scan-order
  // dependent. Completeness is asserted through the merge below.
  EXPECT_GE(out.shards_computed, 2);
  EXPECT_LE(out.shards_computed, 4);
  EXPECT_EQ(out.shards_stolen, 0);
  EXPECT_GE(out.passes, 1);
  EXPECT_FALSE(out.cancelled);
  EXPECT_FALSE(out.doc_cached);
  EXPECT_GT(out.attack_steps, 0);

  // All leases were released on the way out.
  EXPECT_EQ(LeaseManager(store.root() + "/leases", "audit", kLongTtl).sweep(), 0);

  const RunOutcome merged = run_spec(spec, provider, store, tiny_options());
  EXPECT_FALSE(merged.cache_hit);
  EXPECT_EQ(merged.attack_steps, 0) << "the merge must only replay worker shards";
  EXPECT_EQ(merged.shards_from_cache, merged.shards_total);
  EXPECT_EQ(merged.json, ref.json) << "worker-computed bytes must match a direct run";

  // With the document assembled, another worker has nothing to do.
  const WorkerOutcome again = run_spec_worker(spec, provider, store, config);
  EXPECT_TRUE(again.doc_cached);
  EXPECT_EQ(again.shards_computed, 0);

  fs::remove_all(root_ + "-ref");
}

TEST_F(WorkerLoopTest, WorkerMatchesDirectRunBytesForEveryShardKind) {
  TinyProvider provider;
  // Per-cloud + noise, shared-delta, and defense-grid shards, each with
  // the number of shards one worker computes (0: scan-order dependent).
  const std::vector<std::pair<ExperimentSpec, int>> cases = {
      {mini_spec(), 0}, {mini_shared_spec(), 1}, {mini_grid_spec(), 2}};
  for (const auto& [spec, expected_computed] : cases) {
    SCOPED_TRACE(spec.name);
    ResultStore ref_store(root_ + "/ref-" + spec.name);
    RunOptions progress_options = tiny_options();
    ShardProgress last;
    progress_options.on_progress = [&last](const ShardProgress& p) { last = p; };
    const RunOutcome ref = run_spec(spec, provider, ref_store, progress_options);
    // Progress lines and the outcome count the same single plan.
    EXPECT_EQ(last.shards_total, ref.shards_total);
    EXPECT_EQ(last.shards_done, ref.shards_total);

    ResultStore store(root_ + "/run-" + spec.name);
    WorkerConfig config;
    config.run = tiny_options();
    config.worker_id = "w0";
    config.lease_ttl_ns = kLongTtl;
    const WorkerOutcome out = run_spec_worker(spec, provider, store, config);
    if (expected_computed > 0) {
      EXPECT_EQ(out.shards_computed, expected_computed);
    } else {
      // A noise shard stores its calibration source inline, which that
      // source's own claim then sees as stored: the count is only bounded.
      EXPECT_GE(out.shards_computed, 2);
      EXPECT_LE(out.shards_computed, ref.shards_total);
    }

    const RunOutcome merged = run_spec(spec, provider, store, tiny_options());
    EXPECT_EQ(merged.attack_steps, 0);
    EXPECT_EQ(merged.shards_from_cache, merged.shards_total);
    EXPECT_EQ(merged.json, ref.json);
  }
}

TEST_F(WorkerLoopTest, TwoConcurrentWorkerProcessesProduceIdenticalBytes) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  ResultStore ref_store(root_ + "-ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  const pid_t a = spawn_fixture({root_, "wA"});
  const pid_t b = spawn_fixture({root_, "wB"});
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  EXPECT_TRUE(exited_zero(wait_status(a)));
  EXPECT_TRUE(exited_zero(wait_status(b)));

  ResultStore store(root_);
  const RunOutcome merged = run_spec(spec, provider, store, tiny_options());
  EXPECT_EQ(merged.attack_steps, 0)
      << "between them, the two workers must have computed every shard";
  EXPECT_EQ(merged.json, ref.json);

  fs::remove_all(root_ + "-ref");
}

TEST_F(WorkerChaosTest, KilledWorkerMidRunIsStolenFromAndBytesStayIdentical) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  ResultStore ref_store(root_ + "-ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  // Probability 1: the fixture worker SIGKILLs itself at its first
  // post-acquire chaos point, i.e. it dies *holding a shard lease*.
  const int status = run_fixture({root_, "wA"}, "1:99");
  ASSERT_TRUE(WIFSIGNALED(status)) << "chaos must kill the worker, status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The dead worker left an orphaned lease file behind (its exact name
  // is an executor detail, so count rather than name it).
  int orphaned = 0;
  for (const auto& entry : fs::directory_iterator(root_ + "/leases")) {
    if (entry.is_regular_file()) ++orphaned;
  }
  ASSERT_GE(orphaned, 1) << "the SIGKILLed worker must die holding a lease";

  ResultStore store(root_);
  // A second worker (long TTL, so only the dead-pid fast path can help
  // it) steals the orphaned lease and completes the plan.
  WorkerConfig config;
  config.run = tiny_options();
  config.worker_id = "wB";
  config.lease_ttl_ns = kLongTtl;
  const WorkerOutcome out = run_spec_worker(spec, provider, store, config);
  EXPECT_FALSE(out.cancelled);
  EXPECT_EQ(out.shards_computed, 4) << "the survivor must finish the whole plan";
  EXPECT_GE(out.shards_stolen, 1) << "the dead worker's lease must be stolen, not waited on";

  const RunOutcome merged = run_spec(spec, provider, store, tiny_options());
  EXPECT_EQ(merged.attack_steps, 0);
  EXPECT_EQ(merged.json, ref.json)
      << "a kill-and-steal run must still produce byte-identical documents";

  fs::remove_all(root_ + "-ref");
}

TEST_F(WorkerResumeTest, RepeatedlyKilledWorkersEventuallyCompleteByteIdentically) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  ResultStore ref_store(root_ + "-ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  // Crash-resume: keep launching a worker against the same store until
  // one run survives. Every earlier incarnation dies by SIGKILL at some
  // deterministic shard boundary; finished shards persist, orphaned
  // leases go stale by dead pid, and each successor resumes (TTL 2 s
  // bounds the pathological case of a recycled pid).
  int kills = 0;
  bool completed = false;
  for (int attempt = 0; attempt < 40 && !completed; ++attempt) {
    const std::string worker = "w-r" + std::to_string(attempt);
    // Attempt 0 is a guaranteed kill so the test always exercises the
    // crash path; later attempts flip deterministic 50/50 coins.
    const std::string chaos =
        attempt == 0 ? "1:7" : "0.5:" + std::to_string(1000 + attempt);
    const int status = run_fixture({root_, worker, "--ttl-ms", "2000"}, chaos);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
      ++kills;
      continue;
    }
    ASSERT_TRUE(exited_zero(status)) << "status " << status;
    completed = true;
  }
  ASSERT_TRUE(completed) << "a worker should survive within 40 deterministic attempts";
  EXPECT_GE(kills, 1) << "the resume path must actually have been exercised";

  ResultStore store(root_);
  const RunOutcome merged = run_spec(spec, provider, store, tiny_options());
  EXPECT_EQ(merged.attack_steps, 0);
  EXPECT_EQ(merged.json, ref.json);

  // And the run is now fully cached: a rerun is a pure document hit.
  const RunOutcome rerun = run_spec(spec, provider, store, tiny_options());
  EXPECT_TRUE(rerun.cache_hit);

  fs::remove_all(root_ + "-ref");
}

TEST_F(ShardGcTest, SweepRemovesOnlyStaleTmpSiblings) {
  ResultStore store(root_);
  store.put("mini-00aa.json", "{}");
  store.put("shards/mini-00aa-m0-v0-o0-n2.json", "{}");
  std::ofstream(root_ + "/mini-00aa.json.tmp.999") << "{ torn";
  std::ofstream(root_ + "/shards/mini-00aa-m0-v1-o0-n2.json.tmp.999") << "{ torn";
  // Age one temporary beyond the cutoff; keep the other fresh (a
  // concurrent put() in flight must never lose its temporary).
  fs::last_write_time(root_ + "/mini-00aa.json.tmp.999",
                      fs::last_write_time(root_ + "/mini-00aa.json.tmp.999") -
                          std::chrono::hours(2));
  const auto removed = store.sweep_stale_tmps(3600);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], "mini-00aa.json.tmp.999");
  EXPECT_TRUE(fs::exists(root_ + "/shards/mini-00aa-m0-v1-o0-n2.json.tmp.999"));
  EXPECT_TRUE(store.contains("mini-00aa.json")) << "stored results are never GC candidates";
  EXPECT_TRUE(store.contains("shards/mini-00aa-m0-v0-o0-n2.json"));
  // min_age 0 collects the remaining temporary on request.
  EXPECT_EQ(store.sweep_stale_tmps(0).size(), 1u);
}

TEST_F(ShardGcTest, LeaseSweepRemovesDeadHoldersKeepsLive) {
  ASSERT_TRUE(exited_zero(run_fixture({root_, "crashed", "--hold", "dead.lease",
                                       "--ttl-ms", "600000"})));
  LeaseManager live(root_ + "/leases", "live-worker", kLongTtl);
  ASSERT_EQ(live.try_acquire("live.lease"), LeaseManager::Acquire::kAcquired);
  std::ofstream(root_ + "/leases/torn.lease") << "{ not a lease";

  EXPECT_EQ(live.sweep(), 2) << "the dead holder's and the torn lease must go";
  EXPECT_FALSE(live.peek("dead.lease").has_value());
  EXPECT_FALSE(live.peek("torn.lease").has_value());
  ASSERT_TRUE(live.peek("live.lease").has_value());
  EXPECT_EQ(live.peek("live.lease")->owner, "live-worker");
}

TEST_F(ShardStoreTest, PutFailureNamesThePathAndTheReason) {
  // Root occupied by a regular file: create_directories cannot succeed,
  // and the error must say which path and why instead of a generic
  // filesystem_error from deep inside.
  std::ofstream(root_) << "not a directory";
  ResultStore store(root_);
  try {
    store.put("sub/key.json", "{}");
    FAIL() << "put into a file-as-root must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ResultStore::put"), std::string::npos) << what;
    EXPECT_NE(what.find("sub"), std::string::npos) << what;
  }
  fs::remove(root_);

  // A directory squatting on the exact temporary name: open(O_CREAT)
  // fails persistently, and the diagnostic carries path + errno.
  ResultStore good(root_);
  const std::string tmp_name =
      root_ + "/key.json.tmp." + std::to_string(::getpid());
  fs::create_directories(tmp_name);
  try {
    good.put("key.json", "{}");
    FAIL() << "put over a directory-shaped tmp must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("key.json.tmp."), std::string::npos) << what;
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
  }
}

TEST_F(ShardCancelTest, RunSpecCancelsAtShardBoundaryWithResumableMessage) {
  TinyProvider provider;
  ResultStore store(root_);
  RunOptions options = tiny_options();
  options.cancel = [] { return true; };
  try {
    run_spec(mini_spec(), provider, store, options);
    FAIL() << "an always-true cancel must throw RunCancelled";
  } catch (const RunCancelled& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mini"), std::string::npos) << what;
    EXPECT_NE(what.find("resumable: rerun to continue"), std::string::npos) << what;
  }
}

TEST_F(ShardCancelTest, CancelledRunResumesFromItsFinishedShards) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  ResultStore ref_store(root_ + "-ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  ResultStore store(root_);
  RunOptions cancelling = tiny_options();
  int polls = 0;
  // False for the first shard, true from the second boundary on: one
  // shard lands in the cache, then the run unwinds.
  cancelling.cancel = [&polls] { return ++polls > 1; };
  EXPECT_THROW(run_spec(spec, provider, store, cancelling), RunCancelled);

  const RunOutcome resumed = run_spec(spec, provider, store, tiny_options());
  EXPECT_FALSE(resumed.cache_hit);
  EXPECT_EQ(resumed.shards_from_cache, 1) << "the pre-cancel shard must be reused";
  EXPECT_EQ(resumed.json, ref.json);

  fs::remove_all(root_ + "-ref");
}

TEST_F(ShardCancelTest, WorkerStopsClaimingWhenCancelled) {
  TinyProvider provider;
  ResultStore store(root_);
  WorkerConfig config;
  config.run = tiny_options();
  config.run.cancel = [] { return true; };
  config.worker_id = "w0";
  config.lease_ttl_ns = kLongTtl;
  const WorkerOutcome out = run_spec_worker(mini_spec(), provider, store, config);
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.shards_computed, 0);
  // Nothing left held: a cancelled worker releases before unwinding.
  EXPECT_EQ(LeaseManager(store.root() + "/leases", "audit", kLongTtl).sweep(), 0);
}

TEST_F(ShardDecodeTest, MisSizedStoredShardsAreRecomputedNotAssembled) {
  TinyProvider provider;
  const ExperimentSpec spec = mini_spec();
  ResultStore ref_store(root_ + "/ref");
  const RunOutcome ref = run_spec(spec, provider, ref_store, tiny_options());

  // The bounded variant's two shards (3 clouds, shard_size 2) are the
  // noise baseline's calibration sources. Swapping their payloads plants
  // well-formed shards under real keys: a short one (one row where two
  // belong) and a long one (two rows where one belongs).
  const std::string pair_key = "shards/" + ref.document.key + "-m0-v0-o0-n2.json";
  const std::string single_key = "shards/" + ref.document.key + "-m0-v0-o2-n1.json";
  const std::optional<std::string> pair = ref_store.get(pair_key);
  const std::optional<std::string> single = ref_store.get(single_key);
  ASSERT_TRUE(pair.has_value());
  ASSERT_TRUE(single.has_value());
  const auto plant = [&](ResultStore& store) {
    store.put(pair_key, *single);
    store.put(single_key, *pair);
  };

  ResultStore direct(root_ + "/direct");
  plant(direct);
  const RunOutcome recomputed = run_spec(spec, provider, direct, tiny_options());
  EXPECT_EQ(recomputed.shards_from_cache, 0) << "a mis-sized shard is not a cache hit";
  EXPECT_EQ(recomputed.json, ref.json);

  ResultStore pooled(root_ + "/worker");
  plant(pooled);
  WorkerConfig config;
  config.run = tiny_options();
  config.worker_id = "w0";
  config.lease_ttl_ns = kLongTtl;
  const WorkerOutcome out = run_spec_worker(spec, provider, pooled, config);
  EXPECT_FALSE(out.cancelled);
  const RunOutcome merged = run_spec(spec, provider, pooled, tiny_options());
  EXPECT_EQ(merged.attack_steps, 0) << "the worker must replace both planted shards";
  EXPECT_EQ(merged.json, ref.json);
}

}  // namespace
