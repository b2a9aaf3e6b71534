#include "pcss/serve/protocol.h"

#include "pcss/runner/json.h"

namespace pcss::serve {

using pcss::runner::Json;

namespace {

/// Requests are hostile input: anything Json::parse rejects, or any
/// field of the wrong type, becomes a 400 the connection survives.
const Json* find_member(const Json& object, const char* key) {
  return object.type() == Json::Type::kObject ? object.find(key) : nullptr;
}

bool read_bool(const Json& object, const char* key, bool fallback) {
  const Json* value = find_member(object, key);
  if (value == nullptr) return fallback;
  if (value->type() != Json::Type::kBool) {
    throw ProtocolError(kErrBadRequest,
                        std::string("field '") + key + "' must be a boolean");
  }
  return value->boolean();
}

int read_int(const Json& object, const char* key, int fallback) {
  const Json* value = find_member(object, key);
  if (value == nullptr) return fallback;
  // fits_integer also rejects inf ("1e999" parses to it) and NaN.
  if (value->type() != Json::Type::kNumber ||
      !pcss::runner::fits_integer<int>(value->number())) {
    throw ProtocolError(kErrBadRequest,
                        std::string("field '") + key + "' must be an integer in int range");
  }
  return static_cast<int>(value->number());
}

}  // namespace

Request parse_request(const std::string& line) {
  Json parsed;
  try {
    parsed = Json::parse(line);
  } catch (const std::exception& e) {
    throw ProtocolError(kErrBadRequest, std::string("malformed request: ") + e.what());
  }
  if (parsed.type() != Json::Type::kObject) {
    throw ProtocolError(kErrBadRequest, "request must be a JSON object");
  }
  const Json* kind = parsed.find("kind");
  if (kind == nullptr || kind->type() != Json::Type::kString) {
    throw ProtocolError(kErrBadRequest, "request needs a string 'kind'");
  }

  Request request;
  if (const Json* id = parsed.find("id"); id != nullptr) {
    if (id->type() == Json::Type::kString) {
      request.id = id->str();
    } else if (id->type() == Json::Type::kNumber) {
      request.id = Json(id->number()).dump_compact();
    } else {
      throw ProtocolError(kErrBadRequest, "field 'id' must be a string or number");
    }
  }

  const std::string& kind_name = kind->str();
  if (kind_name == "run") {
    request.kind = RequestKind::kRun;
    const Json* spec = parsed.find("spec");
    if (spec == nullptr || spec->type() != Json::Type::kString || spec->str().empty()) {
      throw ProtocolError(kErrBadRequest, "run needs a non-empty string 'spec'");
    }
    request.spec = spec->str();
    request.force = read_bool(parsed, "force", false);
    if (parsed.find("fast") != nullptr) {
      request.has_fast = true;
      request.fast = read_bool(parsed, "fast", false);
    }
    request.threads = read_int(parsed, "threads", -1);
    request.shard_size = read_int(parsed, "shard_size", -1);
    if (parsed.find("threads") != nullptr && request.threads < 0) {
      throw ProtocolError(kErrBadRequest, "field 'threads' must be >= 0");
    }
    if (parsed.find("shard_size") != nullptr && request.shard_size < 1) {
      throw ProtocolError(kErrBadRequest, "field 'shard_size' must be >= 1");
    }
  } else if (kind_name == "status") {
    request.kind = RequestKind::kStatus;
  } else if (kind_name == "stats") {
    request.kind = RequestKind::kStats;
  } else if (kind_name == "shutdown") {
    request.kind = RequestKind::kShutdown;
  } else {
    throw ProtocolError(kErrBadRequest, "unknown kind '" + kind_name + "'");
  }
  return request;
}

std::string hello_line() {
  Json line = Json::object();
  line.set("event", "hello");
  line.set("server", "pcss_serve");
  line.set("protocol", kProtocolVersion);
  return line.dump_compact() + "\n";
}

std::string error_line(const std::string& id, int code, const std::string& message) {
  Json line = Json::object();
  line.set("event", "error");
  if (!id.empty()) line.set("id", id);
  line.set("code", code);
  line.set("message", message);
  return line.dump_compact() + "\n";
}

std::string accepted_line(const std::string& id, const std::string& spec,
                          const std::string& key, bool coalesced) {
  Json line = Json::object();
  line.set("event", "accepted");
  line.set("id", id);
  line.set("spec", spec);
  line.set("key", key);
  line.set("coalesced", coalesced);
  return line.dump_compact() + "\n";
}

std::string progress_line(const std::string& id, const std::string& spec,
                          const pcss::runner::ShardProgress& progress) {
  Json line = Json::object();
  line.set("event", "progress");
  line.set("id", id);
  line.set("spec", spec);
  line.set("shards_done", progress.shards_done);
  line.set("shards_total", progress.shards_total);
  line.set("shards_from_cache", progress.shards_from_cache);
  line.set("attack_steps", progress.attack_steps);
  line.set("eta_seconds", progress.eta_seconds);
  return line.dump_compact() + "\n";
}

std::string result_header_line(const std::string& id, const std::string& spec,
                               const std::string& key, bool cache_hit, bool coalesced,
                               int shards_total, int shards_from_cache,
                               long long attack_steps, std::size_t bytes) {
  Json line = Json::object();
  line.set("event", "result");
  line.set("id", id);
  line.set("spec", spec);
  line.set("key", key);
  line.set("cache_hit", cache_hit);
  line.set("coalesced", coalesced);
  line.set("shards_total", shards_total);
  line.set("shards_from_cache", shards_from_cache);
  line.set("attack_steps", attack_steps);
  line.set("bytes", static_cast<long long>(bytes));
  return line.dump_compact() + "\n";
}

std::string stats_header_line(const std::string& id, std::size_t bytes) {
  Json line = Json::object();
  line.set("event", "stats");
  line.set("id", id);
  line.set("bytes", static_cast<long long>(bytes));
  return line.dump_compact() + "\n";
}

std::string shutdown_line(const std::string& id) {
  Json line = Json::object();
  line.set("event", "shutdown");
  line.set("id", id);
  line.set("draining", true);
  return line.dump_compact() + "\n";
}

}  // namespace pcss::serve
