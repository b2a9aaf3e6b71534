// wire.h — the client side of pcss_serve's response framing, and the
// verdict perfbench_load gives each served read.
//
// Responses are one JSON object per '\n'-terminated line. An event whose
// header carries "bytes": N is followed by exactly N raw payload bytes
// (result documents, stats snapshots), which may hold newlines and are
// taken by length, never by line. perfbench/framing.py is the same framing
// for the Python side; perfbench/tests/wire_test.cpp tests this one.
#pragma once

#include <cmath>
#include <cstddef>
#include <exception>
#include <map>
#include <string>

#include "pcss/runner/json.h"

namespace perfbench::wire {

using pcss::runner::Json;

struct Event {
  Json header;          ///< an object with a string "event" field
  std::string payload;  ///< the "bytes" payload; empty when there is none
};

/// Incremental parser: feed() what the socket gave, then take events with
/// next() until it asks for more bytes.
class Framer {
 public:
  enum class Status { kNeedMore, kEvent, kMalformed };

  void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  /// Moves the next complete event into `out`. kMalformed means the stream
  /// no longer follows the framing; nothing after it can be trusted.
  Status next(Event& out) {
    if (header_.is_null()) {
      const std::size_t newline = buffer_.find('\n');
      if (newline == std::string::npos) return Status::kNeedMore;
      Json header;
      try {
        header = Json::parse(buffer_.substr(0, newline));
      } catch (const std::exception&) {
        return Status::kMalformed;
      }
      if (header.type() != Json::Type::kObject) return Status::kMalformed;
      const Json* event = header.find("event");
      if (event == nullptr || event->type() != Json::Type::kString) return Status::kMalformed;
      payload_size_ = 0;
      if (const Json* bytes = header.find("bytes")) {
        const double n = bytes->type() == Json::Type::kNumber ? bytes->number() : -1.0;
        if (n < 0.0 || n > 1e12 || n != std::floor(n)) return Status::kMalformed;
        payload_size_ = static_cast<std::size_t>(n);
      }
      buffer_.erase(0, newline + 1);
      header_ = std::move(header);
    }
    if (buffer_.size() < payload_size_) return Status::kNeedMore;
    out.header = std::move(header_);
    header_ = Json();
    out.payload.assign(buffer_, 0, payload_size_);
    buffer_.erase(0, payload_size_);
    return Status::kEvent;
  }

 private:
  std::string buffer_;
  Json header_;  ///< parsed header whose payload has not fully arrived
  std::size_t payload_size_ = 0;
};

enum class Verdict {
  kInterim,     ///< accepted / progress: the read goes on
  kCompleted,   ///< a result whose payload equals the store file of its key
  kMismatched,  ///< any other result
  kRejected,    ///< an error event with code 429
  kError,       ///< any other error event, or an event of unknown kind
};

/// What `event` means for the read in flight. `documents` maps run keys to
/// the bytes of their store files.
inline Verdict judge(const Event& event, const std::map<std::string, std::string>& documents) {
  const std::string& kind = event.header.at("event").str();
  if (kind == "accepted" || kind == "progress") return Verdict::kInterim;
  if (kind == "error") {
    const Json* code = event.header.find("code");
    const bool busy = code != nullptr && code->type() == Json::Type::kNumber &&
                      code->number() == 429;
    return busy ? Verdict::kRejected : Verdict::kError;
  }
  if (kind != "result") return Verdict::kError;
  const Json* key = event.header.find("key");
  if (key == nullptr || key->type() != Json::Type::kString) return Verdict::kMismatched;
  const auto doc = documents.find(key->str());
  return doc != documents.end() && doc->second == event.payload ? Verdict::kCompleted
                                                                : Verdict::kMismatched;
}

/// A boolean header field; false when absent or not a boolean.
inline bool flag(const Event& event, const char* name) {
  const Json* value = event.header.find(name);
  return value != nullptr && value->type() == Json::Type::kBool && value->boolean();
}

}  // namespace perfbench::wire
