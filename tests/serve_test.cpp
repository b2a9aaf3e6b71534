// System tests for the pcss_serve daemon core: each test fork+execve's
// the serve_fixture child binary (the worker_fixture pattern — the
// gtest process runs attack threads and must never fork-and-continue)
// and speaks the line-delimited JSON protocol to it over a Unix socket.
//
// The assertions are the serving story itself: a served document is
// byte-identical to an in-process run_spec over the same fixtures,
// reruns are pure cache hits, concurrent identical requests coalesce
// into one computation, malformed input degrades per-request (never
// per-process), admission control rejects 429-style, and a SIGTERM
// drain exits 0 leaving a store the next daemon can serve from.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "pcss/runner/executor.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/serve/config.h"
#include "pcss/serve/protocol.h"
#include "temp_dir.h"
#include "tiny_provider.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using pcss::runner::Json;
using pcss_tests::TinyProvider;

void sleep_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  while (::nanosleep(&ts, &ts) == -1 && errno == EINTR) {
  }
}

/// fork+execve of the serve fixture daemon; argv/envp are fully built
/// before fork. The child's stdout is redirected to `stdout_path` (the
/// drain tests read "casualties=N" from it after waitpid).
pid_t spawn_daemon(const std::vector<std::string>& args, const std::string& stdout_path) {
  std::vector<std::string> full;
  full.push_back(PCSS_SERVE_FIXTURE_BIN);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (const std::string& a : full) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) {
      ::dup2(out, STDOUT_FILENO);
      ::close(out);
    }
    ::execve(argv[0], argv.data(), environ);
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

/// Blocking protocol client: connect-with-retry until the daemon's
/// hello (its readiness signal), then line + length-prefixed-payload
/// framing, mirroring pcss_client.
class Client {
 public:
  ~Client() { close(); }

  /// Retries until the daemon accepts and sends hello (~10 s cap).
  bool connect_unix(const std::string& path) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) return false;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        std::string hello;
        if (read_line(hello) && hello.find("\"hello\"") != std::string::npos) return true;
      }
      close();
      sleep_ms(50);
    }
    return false;
  }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t sent =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) return false;
      off += static_cast<std::size_t>(sent);
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool read_exact(std::size_t n, std::string& out) {
    while (buffer_.size() < n) {
      if (!fill()) return false;
    }
    out = buffer_.substr(0, n);
    buffer_.erase(0, n);
    return true;
  }

  /// True when the server closed its side (clean EOF, no more bytes).
  bool at_eof() {
    if (!buffer_.empty()) return false;
    return !fill();
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// -- event-line accessors (ADD_FAILURE on shape violations) -----------------

Json parse_event(const std::string& line) {
  try {
    return Json::parse(line);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unparseable event line: " << line << " (" << e.what() << ")";
    return Json::object();
  }
}

std::string event_kind(const Json& event) {
  const Json* kind = event.find("event");
  return kind != nullptr && kind->type() == Json::Type::kString ? kind->str() : "";
}

double num_field(const Json& event, const char* key) {
  const Json* value = event.find(key);
  if (value == nullptr || value->type() != Json::Type::kNumber) {
    ADD_FAILURE() << "missing numeric field '" << key << "'";
    return 0;
  }
  return value->number();
}

bool bool_field(const Json& event, const char* key) {
  const Json* value = event.find(key);
  if (value == nullptr || value->type() != Json::Type::kBool) {
    ADD_FAILURE() << "missing bool field '" << key << "'";
    return false;
  }
  return value->boolean();
}

/// Reads events until the run's terminal event (result or error).
/// Returns the header; fills `payload` with the result document when
/// the terminal event is a result.
Json read_to_terminal(Client& client, std::string& payload) {
  std::string line;
  while (client.read_line(line)) {
    Json event = parse_event(line);
    const std::string kind = event_kind(event);
    if (kind == "progress" || kind == "accepted") continue;
    if (kind == "result" || kind == "stats") {
      const auto bytes = static_cast<std::size_t>(num_field(event, "bytes"));
      if (!client.read_exact(bytes, payload)) {
        ADD_FAILURE() << "truncated payload after: " << line;
      }
      return event;
    }
    return event;  // error / status / shutdown
  }
  ADD_FAILURE() << "connection closed before a terminal event";
  return Json::object();
}

/// Counter value from a stats payload (0 when absent — absent counters
/// have simply never been incremented).
double counter_of(const std::string& stats_payload, const std::string& name) {
  const Json snapshot = parse_event(stats_payload);
  const Json* counters = snapshot.find("counters");
  if (counters == nullptr) return 0;
  const Json* value = counters->find(name);
  return value != nullptr && value->type() == Json::Type::kNumber ? value->number() : 0;
}

/// A 65,000-byte run request nested far past Json::kMaxParseDepth: it
/// fits under the default max_line_bytes, so only the parser's depth
/// cap stands between it and a stack overflow on the event loop.
std::string deeply_nested_request() {
  std::string line = R"({"kind":"run","x":)";
  line.resize(65000, '[');
  return line;
}

/// The wire code and message parse_request rejects `line` with, or
/// {0, ""} if it parses.
std::pair<int, std::string> rejection(const std::string& line) {
  try {
    pcss::serve::parse_request(line);
  } catch (const pcss::serve::ProtocolError& e) {
    return {e.code(), e.what()};
  }
  return {0, ""};
}

/// The reference document: an in-process run_spec over the same
/// fixtures the daemon serves (same TinyProvider fingerprint, same
/// tiny_options scale), into a private store. Identical cache keys,
/// identical bytes — that is the serving contract under test.
std::string reference_document(const std::string& store_root, const std::string& spec) {
  TinyProvider provider;
  pcss::runner::ResultStore store(store_root);
  pcss::runner::ExperimentSpec s;
  if (spec == "mini") {
    s = pcss_tests::mini_spec();
  } else if (spec == "mini_shared") {
    s = pcss_tests::mini_shared_spec();
  } else {
    s = pcss_tests::mini_grid_spec();
  }
  return run_spec(s, provider, store, pcss_tests::tiny_options()).json;
}

/// Fresh directory + daemon lifecycle per test. The daemon is started
/// lazily (tests pick their own flags) and force-killed on teardown if
/// a test failed before its orderly shutdown.
class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (daemon_ > 0) {
      ::kill(daemon_, SIGKILL);
      wait_status(daemon_);
      daemon_ = -1;
    }
  }

  std::string sock() const { return root_ + "/serve.sock"; }
  std::string store() const { return root_ + "/store"; }
  std::string daemon_out() const { return root_ + "/daemon.out"; }

  void start_daemon(std::vector<std::string> extra = {}) {
    std::vector<std::string> args = {"--socket", sock(), "--store", store()};
    args.insert(args.end(), extra.begin(), extra.end());
    daemon_ = spawn_daemon(args, daemon_out());
    ASSERT_GT(daemon_, 0);
  }

  /// Orderly end: SIGTERM, expect exit 0, forget the pid.
  void stop_daemon() {
    ASSERT_GT(daemon_, 0);
    ::kill(daemon_, SIGTERM);
    const int status = wait_status(daemon_);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon did not drain cleanly (status " << status << ")";
    daemon_ = -1;
  }

  pcss::testing::TempDir dir_;
  std::string root_ = dir_.path();
  pid_t daemon_ = -1;
};

TEST_F(ServeTest, ConfigFileParsesOverridesAndRejectsJunk) {
  const std::string conf = root_ + "/serve.conf";
  {
    std::ofstream out(conf);
    out << "# serving smoke config\n"
        << "port = 0\n"
        << "socket = /tmp/pcss.sock\n"
        << "workers = 3\n"
        << "queue_depth = 8\n"
        << "max_inflight_per_client = 2\n"
        << "idle_timeout_ms = 5000\n"
        << "drain_grace_ms = 250\n"
        << "store = /tmp/pcss-store\n";
  }
  const pcss::serve::ServeConfig parsed = pcss::serve::parse_config_file(conf);
  EXPECT_EQ(parsed.socket_path, "/tmp/pcss.sock");
  EXPECT_EQ(parsed.workers, 3);
  EXPECT_EQ(parsed.queue_depth, 8);
  EXPECT_EQ(parsed.max_inflight_per_client, 2);
  EXPECT_EQ(parsed.idle_timeout_ms, 5000);
  EXPECT_EQ(parsed.drain_grace_ms, 250);
  EXPECT_EQ(parsed.store_root, "/tmp/pcss-store");
  EXPECT_NO_THROW(pcss::serve::validate(parsed));

  // Unknown keys and malformed numbers name "<path>:<line>".
  {
    std::ofstream out(conf);
    out << "socket = /tmp/pcss.sock\n"
        << "frobnicate = 1\n";
  }
  try {
    pcss::serve::parse_config_file(conf);
    FAIL() << "unknown key must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos) << e.what();
  }
  {
    std::ofstream out(conf);
    out << "workers = many\n";
  }
  EXPECT_THROW(pcss::serve::parse_config_file(conf), std::runtime_error);

  // Integers are neither truncated to int (4294967376 is not port 80,
  // 4294967297 not 1 worker) nor saturated past long long.
  for (const char* line : {"port = 4294967376\n", "workers = 4294967297\n",
                           "idle_timeout_ms = 99999999999999999999\n"}) {
    {
      std::ofstream out(conf);
      out << "socket = /tmp/pcss.sock\n" << line;
    }
    try {
      pcss::serve::parse_config_file(conf);
      FAIL() << "out-of-range integer must throw: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(conf + ":2"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }

  // validate() rejects nonsense ranges.
  pcss::serve::ServeConfig bad;
  bad.socket_path = "/tmp/pcss.sock";
  bad.workers = 0;
  bad.queue_depth = -1;
  EXPECT_THROW(pcss::serve::validate(bad), std::runtime_error);
}

TEST_F(ServeTest, ServedBytesMatchInProcessRunAndRerunIsCacheHit) {
  start_daemon();
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini","id":"first"})"));
  std::string served;
  Json first = read_to_terminal(client, served);
  ASSERT_EQ(event_kind(first), "result");
  EXPECT_FALSE(bool_field(first, "cache_hit"));
  EXPECT_FALSE(bool_field(first, "coalesced"));
  EXPECT_GT(num_field(first, "shards_total"), 0);
  EXPECT_FALSE(served.empty());

  // Byte-identity: the served document IS the pcss_run document.
  EXPECT_EQ(served, reference_document(root_ + "/ref_store", "mini"));

  // Rerun on the same connection: a pure cache hit, same bytes.
  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini","id":"second"})"));
  std::string rerun;
  Json second = read_to_terminal(client, rerun);
  ASSERT_EQ(event_kind(second), "result");
  EXPECT_TRUE(bool_field(second, "cache_hit"));
  EXPECT_EQ(rerun, served);

  // The obs counters surface through the stats request.
  ASSERT_TRUE(client.send_line(R"({"kind":"stats"})"));
  std::string stats;
  ASSERT_EQ(event_kind(read_to_terminal(client, stats)), "stats");
  EXPECT_GE(counter_of(stats, "serve.requests.accepted"), 2);
  EXPECT_GE(counter_of(stats, "serve.cache.hits"), 1);
  EXPECT_GE(counter_of(stats, "serve.cache.misses"), 1);

  // Orderly shutdown through the protocol (not the signal path).
  ASSERT_TRUE(client.send_line(R"({"kind":"shutdown"})"));
  std::string unused;
  EXPECT_EQ(event_kind(read_to_terminal(client, unused)), "shutdown");
  client.close();
  const int status = wait_status(daemon_);
  daemon_ = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  std::ifstream out(daemon_out());
  std::string casualties((std::istreambuf_iterator<char>(out)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(casualties.find("casualties=0"), std::string::npos) << casualties;
}

TEST_F(ServeTest, ConcurrentIdenticalRequestsCoalesceIntoOneComputation) {
  // The job-start delay holds the first request in flight long enough
  // for the second to arrive deterministically.
  start_daemon({"--job-delay-ms", "400", "--workers", "2"});
  Client a;
  Client b;
  ASSERT_TRUE(a.connect_unix(sock()));
  ASSERT_TRUE(b.connect_unix(sock()));

  ASSERT_TRUE(a.send_line(R"({"kind":"run","spec":"mini","id":"a"})"));
  std::string line;
  ASSERT_TRUE(a.read_line(line));
  Json accepted_a = parse_event(line);
  ASSERT_EQ(event_kind(accepted_a), "accepted");
  EXPECT_FALSE(bool_field(accepted_a, "coalesced"));

  ASSERT_TRUE(b.send_line(R"({"kind":"run","spec":"mini","id":"b"})"));
  ASSERT_TRUE(b.read_line(line));
  Json accepted_b = parse_event(line);
  ASSERT_EQ(event_kind(accepted_b), "accepted");
  EXPECT_TRUE(bool_field(accepted_b, "coalesced"));

  std::string doc_a;
  std::string doc_b;
  Json result_a = read_to_terminal(a, doc_a);
  Json result_b = read_to_terminal(b, doc_b);
  ASSERT_EQ(event_kind(result_a), "result");
  ASSERT_EQ(event_kind(result_b), "result");
  EXPECT_TRUE(bool_field(result_b, "coalesced"));
  EXPECT_EQ(doc_a, doc_b);
  EXPECT_FALSE(doc_a.empty());

  // One computation total: one cache miss, zero hits, one coalesce.
  ASSERT_TRUE(a.send_line(R"({"kind":"stats"})"));
  std::string stats;
  ASSERT_EQ(event_kind(read_to_terminal(a, stats)), "stats");
  EXPECT_EQ(counter_of(stats, "serve.requests.coalesced"), 1);
  EXPECT_EQ(counter_of(stats, "serve.cache.misses"), 1);
  EXPECT_EQ(counter_of(stats, "serve.cache.hits"), 0);

  stop_daemon();
}

TEST_F(ServeTest, MalformedRequestsFailTheRequestNotTheConnection) {
  start_daemon();
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  const std::pair<const char*, int> bad[] = {
      {"this is not json", 400},
      {R"({"kind":"frobnicate"})", 400},
      {R"({"kind":"run"})", 400},            // run without a spec
      {R"({"kind":"run","spec":5})", 400},   // wrongly typed field
      {R"({"kind":"run","spec":"nope"})", 404},
  };
  std::string payload;
  for (const auto& [request, code] : bad) {
    ASSERT_TRUE(client.send_line(request));
    Json event = read_to_terminal(client, payload);
    ASSERT_EQ(event_kind(event), "error") << request;
    EXPECT_EQ(num_field(event, "code"), code) << request;
  }

  // The connection survived all of it.
  ASSERT_TRUE(client.send_line(R"({"kind":"status"})"));
  Json status = read_to_terminal(client, payload);
  ASSERT_EQ(event_kind(status), "status");
  EXPECT_EQ(num_field(status, "queued"), 0);

  stop_daemon();
}

TEST(ServeProtocol, HostileRequestLinesAre400) {
  EXPECT_EQ(rejection(deeply_nested_request()).first, 400);
  // Integral doubles outside int's range (strtod turns 1e999 into inf)
  // are rejected before the cast to int, not by the >= 0 check after it.
  for (const char* threads : {"1e999", "-1e999", "3e9", "-3e9"}) {
    const auto [code, message] =
        rejection(std::string(R"({"kind":"run","spec":"mini","threads":)") + threads + "}");
    EXPECT_EQ(code, 400) << threads;
    EXPECT_NE(message.find("int range"), std::string::npos) << threads << ": " << message;
  }
  EXPECT_EQ(rejection(R"({"kind":"run","spec":"mini","threads":2})").first, 0);
}

TEST_F(ServeTest, DeeplyNestedLineGets400AndTheDaemonServesOn) {
  start_daemon();
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));
  ASSERT_TRUE(client.send_line(deeply_nested_request()));
  std::string payload;
  Json event = read_to_terminal(client, payload);
  ASSERT_EQ(event_kind(event), "error");
  EXPECT_EQ(num_field(event, "code"), 400);

  // The daemon survived: the same connection and a fresh one both serve.
  ASSERT_TRUE(client.send_line(R"({"kind":"status"})"));
  EXPECT_EQ(event_kind(read_to_terminal(client, payload)), "status");
  Client fresh;
  ASSERT_TRUE(fresh.connect_unix(sock()));
  ASSERT_TRUE(fresh.send_line(R"({"kind":"status"})"));
  EXPECT_EQ(event_kind(read_to_terminal(fresh, payload)), "status");

  stop_daemon();
}

TEST_F(ServeTest, OversizedLineGets413AndTheConnectionCloses) {
  start_daemon({"--max-line", "128"});
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  ASSERT_TRUE(client.send_line(std::string(1024, 'x')));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  Json event = parse_event(line);
  ASSERT_EQ(event_kind(event), "error");
  EXPECT_EQ(num_field(event, "code"), 413);
  EXPECT_TRUE(client.at_eof());

  // Only that connection was condemned; a fresh one serves fine.
  Client fresh;
  ASSERT_TRUE(fresh.connect_unix(sock()));
  ASSERT_TRUE(fresh.send_line(R"({"kind":"status"})"));
  std::string payload;
  EXPECT_EQ(event_kind(read_to_terminal(fresh, payload)), "status");

  stop_daemon();
}

TEST_F(ServeTest, HalfClosedMidRequestGetsACleanError) {
  start_daemon();
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  ASSERT_TRUE(client.send_raw(R"({"kind":"status")"));  // no terminator
  client.shutdown_write();
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  Json event = parse_event(line);
  ASSERT_EQ(event_kind(event), "error");
  EXPECT_EQ(num_field(event, "code"), 400);
  EXPECT_TRUE(client.at_eof());

  stop_daemon();
}

TEST_F(ServeTest, SigtermDrainCancelsInFlightAndTheStoreStaysServable) {
  start_daemon({"--job-delay-ms", "600", "--drain-grace", "0"});
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini"})"));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  ASSERT_EQ(event_kind(parse_event(line)), "accepted");

  // SIGTERM while the job is held in flight: the run is cancelled at a
  // shard boundary and the client is told 503, not hung up on.
  ::kill(daemon_, SIGTERM);
  std::string payload;
  Json terminal = read_to_terminal(client, payload);
  ASSERT_EQ(event_kind(terminal), "error");
  EXPECT_EQ(num_field(terminal, "code"), 503);
  client.close();

  const int status = wait_status(daemon_);
  daemon_ = -1;
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "drain must exit 0 (status " << status << ")";
  std::ifstream out(daemon_out());
  std::string casualties((std::istreambuf_iterator<char>(out)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(casualties.find("casualties=1"), std::string::npos) << casualties;

  // The store a drain leaves behind is resumable: a fresh daemon over
  // the SAME store serves the spec to completion, byte-identical to
  // the in-process reference (cached shards, if any, are reused).
  start_daemon();
  Client again;
  ASSERT_TRUE(again.connect_unix(sock()));
  ASSERT_TRUE(again.send_line(R"({"kind":"run","spec":"mini"})"));
  std::string served;
  Json result = read_to_terminal(again, served);
  ASSERT_EQ(event_kind(result), "result");
  EXPECT_EQ(served, reference_document(root_ + "/ref_store", "mini"));

  stop_daemon();
}

TEST_F(ServeTest, PerClientInFlightLimitRejects429) {
  start_daemon({"--job-delay-ms", "400", "--max-inflight", "1"});
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  // Distinct specs so coalescing cannot mask the limit.
  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini"})"));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  ASSERT_EQ(event_kind(parse_event(line)), "accepted");

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini_shared"})"));
  ASSERT_TRUE(client.read_line(line));
  Json rejected = parse_event(line);
  ASSERT_EQ(event_kind(rejected), "error");
  EXPECT_EQ(num_field(rejected, "code"), 429);

  // The slot frees once the first run completes.
  std::string payload;
  ASSERT_EQ(event_kind(read_to_terminal(client, payload)), "result");
  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini_shared"})"));
  ASSERT_EQ(event_kind(read_to_terminal(client, payload)), "result");

  stop_daemon();
}

TEST_F(ServeTest, FullQueueRejects429) {
  start_daemon({"--workers", "1", "--queue-depth", "1", "--job-delay-ms", "400"});
  Client client;
  ASSERT_TRUE(client.connect_unix(sock()));

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini"})"));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  ASSERT_EQ(event_kind(parse_event(line)), "accepted");
  sleep_ms(150);  // let the single worker dequeue it (it then holds)

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini_shared"})"));
  ASSERT_TRUE(client.read_line(line));
  ASSERT_EQ(event_kind(parse_event(line)), "accepted");  // fills the queue

  ASSERT_TRUE(client.send_line(R"({"kind":"run","spec":"mini_grid"})"));
  ASSERT_TRUE(client.read_line(line));
  Json rejected = parse_event(line);
  ASSERT_EQ(event_kind(rejected), "error");
  EXPECT_EQ(num_field(rejected, "code"), 429);

  // Both admitted runs still complete in order.
  std::string payload;
  ASSERT_EQ(event_kind(read_to_terminal(client, payload)), "result");
  ASSERT_EQ(event_kind(read_to_terminal(client, payload)), "result");

  stop_daemon();
}

}  // namespace
