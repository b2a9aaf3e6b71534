#include "pcss/serve/config.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pcss::serve {

namespace {

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

long long parse_int(const std::string& where, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::runtime_error(where + ": expected an integer, got '" + value + "'");
  }
  if (errno == ERANGE) {
    throw std::runtime_error(where + ": integer out of range: '" + value + "'");
  }
  return parsed;
}

/// For the `int` keys: a wider value is an error, never truncated.
int parse_int32(const std::string& where, const std::string& value) {
  const long long parsed = parse_int(where, value);
  if (parsed < std::numeric_limits<int>::min() || parsed > std::numeric_limits<int>::max()) {
    throw std::runtime_error(where + ": integer out of range: '" + value + "'");
  }
  return static_cast<int>(parsed);
}

}  // namespace

ServeConfig parse_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("serve config: cannot open '" + path + "'");
  ServeConfig config;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(where + ": expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "port") {
      config.port = parse_int32(where, value);
    } else if (key == "socket") {
      config.socket_path = value;
    } else if (key == "workers") {
      config.workers = parse_int32(where, value);
    } else if (key == "queue_depth") {
      config.queue_depth = parse_int32(where, value);
    } else if (key == "max_inflight_per_client") {
      config.max_inflight_per_client = parse_int32(where, value);
    } else if (key == "idle_timeout_ms") {
      config.idle_timeout_ms = parse_int(where, value);
    } else if (key == "read_timeout_ms") {
      config.read_timeout_ms = parse_int(where, value);
    } else if (key == "write_timeout_ms") {
      config.write_timeout_ms = parse_int(where, value);
    } else if (key == "max_line_bytes") {
      config.max_line_bytes = parse_int(where, value);
    } else if (key == "drain_grace_ms") {
      config.drain_grace_ms = parse_int(where, value);
    } else if (key == "store") {
      config.store_root = value;
    } else {
      throw std::runtime_error(where + ": unknown key '" + key + "'");
    }
  }
  validate(config);
  return config;
}

void validate(const ServeConfig& config) {
  std::vector<std::string> problems;
  if (config.port < 0 || config.port > 65535) {
    problems.push_back("port must be in [0, 65535]");
  }
  if (config.port == 0 && config.socket_path.empty()) {
    problems.push_back("at least one listener is required (port or socket)");
  }
  if (config.workers < 1) problems.push_back("workers must be >= 1");
  if (config.queue_depth < 1) problems.push_back("queue_depth must be >= 1");
  if (config.max_inflight_per_client < 1) {
    problems.push_back("max_inflight_per_client must be >= 1");
  }
  if (config.idle_timeout_ms < 1) problems.push_back("idle_timeout_ms must be >= 1");
  if (config.read_timeout_ms < 1) problems.push_back("read_timeout_ms must be >= 1");
  if (config.write_timeout_ms < 1) problems.push_back("write_timeout_ms must be >= 1");
  if (config.max_line_bytes < 2) problems.push_back("max_line_bytes must be >= 2");
  if (config.drain_grace_ms < 0) problems.push_back("drain_grace_ms must be >= 0");
  if (!problems.empty()) {
    std::string message = "serve config invalid:";
    for (const std::string& p : problems) message += "\n  - " + p;
    throw std::runtime_error(message);
  }
}

}  // namespace pcss::serve
