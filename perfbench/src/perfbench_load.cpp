// perfbench_load — closed-loop read load against a running pcss_serve.
//
//   perfbench_load --socket PATH --store DIR --specs a,b,c --seed N
//                  (--seconds S | --requests N) --out FILE
//
// Opens kConnections (4) connections from this one process. Each sends
// its next `run` request only after the previous result arrived (closed
// loop), walking the spec list in an order reshuffled every round from
// (seed, connection). Latency is measured from sending the request line
// to receiving the last payload byte. Every result payload is compared
// with the bytes of its store file (<store>/<key>.json, read before the
// load starts); an error event, a 429 or a byte mismatch is a failed
// read (wire.h frames the responses and judges each one). Writes one JSON
// summary with every latency to --out.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pcss/runner/json.h"
#include "wire.h"

namespace {

using pcss::runner::Json;
using perfbench::wire::Framer;
using perfbench::wire::Verdict;
using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Every stored document of the store's top level, keyed by run key.
std::map<std::string, std::string> load_documents(const std::string& root) {
  std::map<std::string, std::string> docs;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.size() <= 5 ||
        name.compare(name.size() - 5, 5, ".json") != 0 ||
        name.find(".perf.json") != std::string::npos) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    docs.emplace(name.substr(0, name.size() - 5), bytes.str());
  }
  return docs;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Tally {
  long long attempted = 0;
  long long completed = 0;  ///< results whose bytes matched the store file
  long long rejected = 0;   ///< 429 error events
  long long errors = 0;     ///< any other error event or broken framing
  long long mismatched = 0; ///< result bytes differ from the store file
  long long coalesced = 0;
  long long cache_hits = 0;
};

/// One connection of the closed loop, its responses framed incrementally
/// from poll reads.
class Connection {
 public:
  Connection(int fd, std::vector<std::string> specs, std::uint64_t seed)
      : fd_(fd), specs_(std::move(specs)), rng_(seed) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool busy() const { return busy_; }
  bool broken() const { return broken_; }

  /// Blocks until the server's hello event arrived.
  bool await_hello() {
    char chunk[4096];
    perfbench::wire::Event event;
    for (;;) {
      const Framer::Status status = framer_.next(event);
      if (status == Framer::Status::kMalformed) return false;
      if (status == Framer::Status::kEvent) break;
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got <= 0) return false;
      framer_.feed(chunk, static_cast<std::size_t>(got));
    }
    if (event.header.at("event").str() != "hello") return false;
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void send_next(Tally& tally) {
    if (next_ == order_.size()) reshuffle();
    const std::string line = "{\"kind\":\"run\",\"spec\":\"" + specs_[order_[next_++]] + "\"}\n";
    sent_at_ = Clock::now();
    busy_ = true;
    ++tally.attempted;
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t sent = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (sent < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (sent <= 0) {
        fail(tally);
        return;
      }
      off += static_cast<std::size_t>(sent);
    }
  }

  /// Reads what is available; on a terminal event records the outcome
  /// (and its latency in microseconds) and frees the connection.
  void on_readable(const std::map<std::string, std::string>& docs, Tally& tally,
                   std::vector<double>& latencies_us) {
    char chunk[65536];
    for (;;) {
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got > 0) {
        framer_.feed(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && errno == EAGAIN) break;
      fail(tally);  // EOF or error mid-request
      return;
    }
    perfbench::wire::Event event;
    while (busy_) {
      const Framer::Status status = framer_.next(event);
      if (status == Framer::Status::kNeedMore) return;
      if (status == Framer::Status::kMalformed) {
        fail(tally);
        return;
      }
      switch (perfbench::wire::judge(event, docs)) {
        case Verdict::kInterim:
          break;
        case Verdict::kCompleted:
          ++tally.completed;
          if (perfbench::wire::flag(event, "coalesced")) ++tally.coalesced;
          if (perfbench::wire::flag(event, "cache_hit")) ++tally.cache_hits;
          finish(latencies_us, true);
          break;
        case Verdict::kMismatched:
          ++tally.mismatched;
          finish(latencies_us, true);
          break;
        case Verdict::kRejected:
          ++tally.rejected;
          finish(latencies_us, false);
          break;
        case Verdict::kError:
          ++tally.errors;
          finish(latencies_us, false);
          break;
      }
    }
  }

 private:
  void reshuffle() {
    order_.resize(specs_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[splitmix64(rng_) % i]);
    }
    next_ = 0;
  }

  void fail(Tally& tally) {
    if (busy_) ++tally.errors;
    busy_ = false;
    broken_ = true;
  }

  void finish(std::vector<double>& latencies_us, bool record) {
    if (record) {
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent_at_).count());
    }
    busy_ = false;
  }

  int fd_;
  std::vector<std::string> specs_;
  std::uint64_t rng_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  Framer framer_;
  Clock::time_point sent_at_{};
  bool busy_ = false;
  bool broken_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, store_root, out_path;
  std::vector<std::string> specs;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  long long max_requests = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_load: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--socket") {
      socket_path = value;
    } else if (arg == "--store") {
      store_root = value;
    } else if (arg == "--specs") {
      specs = split_commas(value);
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--requests") {
      max_requests = std::atoll(value.c_str());
    } else if (arg == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "perfbench_load: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty() || store_root.empty() || specs.empty() || out_path.empty() ||
      (seconds <= 0.0 && max_requests <= 0)) {
    std::fprintf(stderr, "perfbench_load: need --socket --store --specs --out and "
                         "--seconds or --requests\n");
    return 2;
  }

  const std::map<std::string, std::string> docs = load_documents(store_root);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    const int fd = connect_unix(socket_path);
    if (fd < 0) {
      std::fprintf(stderr, "perfbench_load: cannot connect to %s: %s\n", socket_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    conns.push_back(std::make_unique<Connection>(
        fd, specs, seed * 0x100000001b3ULL + static_cast<std::uint64_t>(c)));
    if (!conns.back()->await_hello()) {
      std::fprintf(stderr, "perfbench_load: connection closed before hello\n");
      return 1;
    }
  }

  Tally tally;
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 16);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                  seconds > 0.0 ? seconds : 3600.0));
  const auto may_send = [&] {
    return Clock::now() < deadline && (max_requests <= 0 || tally.attempted < max_requests);
  };
  for (auto& conn : conns) {
    if (may_send()) conn->send_next(tally);
  }
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    for (auto& conn : conns) {
      if (conn->busy()) fds.push_back({conn->fd(), POLLIN, 0});
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) break;
    for (auto& conn : conns) {
      if (!conn->busy()) continue;
      bool ready = false;
      for (const pollfd& p : fds) ready = ready || (p.fd == conn->fd() && p.revents != 0);
      if (!ready) continue;
      conn->on_readable(docs, tally, latencies_us);
      if (!conn->busy() && !conn->broken() && may_send()) conn->send_next(tally);
    }
  }
  const double duration_s = std::chrono::duration<double>(Clock::now() - start).count();

  Json out = Json::object();
  out.set("attempted", tally.attempted);
  out.set("completed", tally.completed);
  out.set("rejected", tally.rejected);
  out.set("errors", tally.errors);
  out.set("mismatched", tally.mismatched);
  out.set("coalesced", tally.coalesced);
  out.set("cache_hits", tally.cache_hits);
  out.set("documents", static_cast<long long>(docs.size()));
  out.set("duration_s", duration_s);
  Json lat = Json::array();
  for (double us : latencies_us) lat.push(us);
  out.set("latencies_us", std::move(lat));
  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  file << out.dump_compact() << "\n";
  return file ? 0 : 1;
}
