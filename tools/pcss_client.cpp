// pcss_client — submit one request to a running pcss_serve daemon.
//
//   pcss_client --socket PATH run <spec> [--fast] [--force] ...
//   pcss_client --host H --port N status | stats | shutdown
//
// Streams progress events to stderr and writes the result document's
// exact bytes to stdout, so shell pipelines can `cmp` a served document
// against a pcss_run-produced store file — the byte-identity check the
// tests and the CI serve job are built on.
#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pcss/runner/json.h"
#include "pcss/serve/protocol.h"
#include "flag_int.h"

namespace {

using pcss::runner::Json;

int usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: pcss_client (--socket PATH | --host HOST --port N) <command>\n"
               "\n"
               "commands:\n"
               "  run <spec> [--fast] [--force] [--threads N] [--shard-size N]\n"
               "      submit a run; progress goes to stderr, the result document's\n"
               "      exact bytes go to stdout\n"
               "  status     one-line server state\n"
               "  stats      metrics-registry snapshot (JSON, to stdout)\n"
               "  shutdown   ask the daemon to drain and exit\n"
               "\n"
               "exit status: 0 success; 1 connection/protocol failure; 4 + the\n"
               "server's error class (4xx -> 8, 5xx -> 9) on a server error event\n");
  return code;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, const std::string& port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &result) != 0) return -1;
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  return fd;
}

/// Blocking buffered reader for the line + length-prefixed-payload
/// framing of the serve protocol.
class Reader {
 public:
  explicit Reader(int fd) : fd_(fd) {}

  /// One '\n'-terminated line (terminator stripped); false on EOF/error.
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

  /// Exactly `n` raw bytes; false on premature EOF.
  bool read_exact(std::size_t n, std::string& out) {
    while (buffer_.size() < n) {
      if (!fill()) return false;
    }
    out = buffer_.substr(0, n);
    buffer_.erase(0, n);
    return true;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  int fd_;
  std::string buffer_;
};

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

int server_error_exit(double code) {
  return code >= 500 ? 9 : 8;
}

const Json* member(const Json& line, const char* key) {
  return line.type() == Json::Type::kObject ? line.find(key) : nullptr;
}

std::string str_or(const Json& line, const char* key, const std::string& fallback) {
  const Json* value = member(line, key);
  return value != nullptr && value->type() == Json::Type::kString ? value->str()
                                                                  : fallback;
}

double num_or(const Json& line, const char* key, double fallback) {
  const Json* value = member(line, key);
  return value != nullptr && value->type() == Json::Type::kNumber ? value->number()
                                                                  : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string host;
  std::string port;
  std::string command;
  std::string spec;
  bool fast = false;
  bool force = false;
  int threads = -1;
  int shard_size = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pcss_client: %s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    const auto int_value = [&](const char* flag) {
      return pcss::tools::flag_count("pcss_client", flag, value(flag).c_str());
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--socket") {
      socket_path = value("--socket");
    } else if (arg == "--host") {
      host = value("--host");
    } else if (arg == "--port") {
      port = value("--port");
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--force") {
      force = true;
    } else if (arg == "--threads") {
      threads = int_value("--threads");
    } else if (arg == "--shard-size") {
      shard_size = int_value("--shard-size");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pcss_client: unknown option '%s'\n", arg.c_str());
      return usage(2);
    } else if (command.empty()) {
      command = arg;
    } else if (command == "run" && spec.empty()) {
      spec = arg;
    } else {
      std::fprintf(stderr, "pcss_client: unexpected argument '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  if (command.empty()) return usage(2);
  if (command == "run" && spec.empty()) {
    std::fprintf(stderr, "pcss_client: run needs a spec name\n");
    return usage(2);
  }
  if (socket_path.empty() && (host.empty() || port.empty())) {
    std::fprintf(stderr, "pcss_client: need --socket PATH or --host HOST --port N\n");
    return usage(2);
  }

  const int fd = socket_path.empty() ? connect_tcp(host, port) : connect_unix(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "pcss_client: cannot connect: %s\n", std::strerror(errno));
    return 1;
  }

  Json request = Json::object();
  if (command == "run") {
    request.set("kind", "run");
    request.set("spec", spec);
    if (force) request.set("force", true);
    if (fast) request.set("fast", true);
    if (threads >= 0) request.set("threads", threads);
    if (shard_size >= 1) request.set("shard_size", shard_size);
  } else if (command == "status" || command == "stats" || command == "shutdown") {
    request.set("kind", command);
  } else {
    std::fprintf(stderr, "pcss_client: unknown command '%s'\n", command.c_str());
    ::close(fd);
    return usage(2);
  }

  Reader reader(fd);
  std::string line;
  // The hello line is the readiness signal; a daemon that closes before
  // sending it was not actually serving.
  if (!reader.read_line(line)) {
    std::fprintf(stderr, "pcss_client: connection closed before hello\n");
    ::close(fd);
    return 1;
  }
  if (!send_all(fd, request.dump_compact() + "\n")) {
    std::fprintf(stderr, "pcss_client: send failed: %s\n", std::strerror(errno));
    ::close(fd);
    return 1;
  }

  int exit_code = 1;  // overwritten by a terminal event
  while (reader.read_line(line)) {
    Json event;
    try {
      event = Json::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pcss_client: bad response line: %s\n", e.what());
      exit_code = 1;
      break;
    }
    const std::string kind = str_or(event, "event", "");
    if (kind == "progress") {
      std::fprintf(stderr,
                   "  [serve] %s: shard %d/%d done (%d cached)  ETA %.1fs\n",
                   str_or(event, "spec", "?").c_str(),
                   static_cast<int>(num_or(event, "shards_done", 0)),
                   static_cast<int>(num_or(event, "shards_total", 0)),
                   static_cast<int>(num_or(event, "shards_from_cache", 0)),
                   num_or(event, "eta_seconds", 0.0));
      continue;
    }
    if (kind == "accepted") {
      std::fprintf(stderr, "  [serve] accepted %s (key %s%s)\n",
                   str_or(event, "spec", "?").c_str(), str_or(event, "key", "?").c_str(),
                   num_or(event, "coalesced", 0) != 0.0 ||
                           (member(event, "coalesced") != nullptr &&
                            member(event, "coalesced")->type() == Json::Type::kBool &&
                            member(event, "coalesced")->boolean())
                       ? ", coalesced"
                       : "");
      continue;
    }
    if (kind == "result" || kind == "stats") {
      const auto bytes = static_cast<std::size_t>(num_or(event, "bytes", 0));
      std::string payload;
      if (!reader.read_exact(bytes, payload)) {
        std::fprintf(stderr, "pcss_client: truncated payload\n");
        exit_code = 1;
        break;
      }
      if (kind == "result") {
        const Json* hit = member(event, "cache_hit");
        const Json* coalesced = member(event, "coalesced");
        std::fprintf(stderr, "  [serve] result: %s%s, %s attack steps\n",
                     hit != nullptr && hit->type() == Json::Type::kBool && hit->boolean()
                         ? "cache hit"
                         : "computed",
                     coalesced != nullptr && coalesced->type() == Json::Type::kBool &&
                             coalesced->boolean()
                         ? " (coalesced)"
                         : "",
                     Json(num_or(event, "attack_steps", 0)).dump_compact().c_str());
      }
      std::fwrite(payload.data(), 1, payload.size(), stdout);
      exit_code = 0;
      break;
    }
    if (kind == "status" || kind == "shutdown") {
      std::printf("%s\n", line.c_str());
      exit_code = 0;
      break;
    }
    if (kind == "error") {
      std::fprintf(stderr, "pcss_client: server error %d: %s\n",
                   static_cast<int>(num_or(event, "code", 0)),
                   str_or(event, "message", "?").c_str());
      exit_code = server_error_exit(num_or(event, "code", 0));
      break;
    }
    std::fprintf(stderr, "pcss_client: unexpected event '%s'\n", kind.c_str());
  }
  ::close(fd);
  return exit_code;
}
