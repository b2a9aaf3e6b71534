// Tests of perfbench_load's response framing and read verdicts (wire.h):
// the parser that decides whether each served read completed, mismatched
// or failed. Built as perfbench_wire_test; test_wire.py builds and runs it.
// Prints each failed check and exits 1 if any failed.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "wire.h"

namespace {

using perfbench::wire::Event;
using perfbench::wire::Framer;
using perfbench::wire::Json;
using perfbench::wire::Verdict;

int failures = 0;

#define CHECK(cond)                                                                  \
  do {                                                                               \
    if (!(cond)) {                                                                   \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, #cond);  \
      ++failures;                                                                    \
    }                                                                                \
  } while (0)

const std::string kDoc = "{\n  \"spec\": \"table3\",\n  \"rows\": [1, 2]\n}\n";

std::string result_bytes(const std::string& key, const std::string& payload,
                         bool coalesced = false) {
  Json header = Json::object();
  header.set("event", "result");
  header.set("id", "r1");
  header.set("spec", "table3");
  header.set("key", key);
  header.set("cache_hit", true);
  header.set("coalesced", coalesced);
  header.set("bytes", static_cast<double>(payload.size()));
  return header.dump_compact() + "\n" + payload;
}

/// Every event in `wire`, fed in one piece; stops at the first status
/// other than kEvent and stores it in `last`.
std::vector<Event> drain(const std::string& wire, Framer::Status& last) {
  Framer framer;
  framer.feed(wire.data(), wire.size());
  std::vector<Event> events;
  Event event;
  while ((last = framer.next(event)) == Framer::Status::kEvent) events.push_back(event);
  return events;
}

void payload_with_newlines_is_taken_by_length() {
  Framer::Status last;
  const std::vector<Event> events =
      drain("{\"event\":\"accepted\",\"id\":\"r1\"}\n" + result_bytes("table3-00", kDoc), last);
  CHECK(last == Framer::Status::kNeedMore);
  CHECK(events.size() == 2);
  if (events.size() != 2) return;
  CHECK(events[0].header.at("event").str() == "accepted");
  CHECK(events[0].payload.empty());
  CHECK(events[1].header.at("event").str() == "result");
  CHECK(events[1].payload == kDoc);
}

void incremental_feed() {
  const std::string wire = result_bytes("table3-00", kDoc) + "{\"event\":\"hello\",\"protocol\":1}\n";
  Framer framer;
  std::vector<Event> events;
  Event event;
  for (char byte : wire) {
    framer.feed(&byte, 1);
    const Framer::Status status = framer.next(event);
    CHECK(status != Framer::Status::kMalformed);
    if (status == Framer::Status::kEvent) events.push_back(event);
  }
  CHECK(events.size() == 2);
  if (events.size() != 2) return;
  CHECK(events[0].payload == kDoc);
  CHECK(events[1].header.at("event").str() == "hello");
  CHECK(events[1].payload.empty());
}

void truncated_payload_waits() {
  const std::string wire = result_bytes("table3-00", kDoc);
  Framer framer;
  framer.feed(wire.data(), wire.size() - 3);
  Event event;
  CHECK(framer.next(event) == Framer::Status::kNeedMore);
  CHECK(framer.next(event) == Framer::Status::kNeedMore);  // asking again changes nothing
  framer.feed(wire.data() + wire.size() - 3, 3);
  CHECK(framer.next(event) == Framer::Status::kEvent);
  CHECK(event.payload == kDoc);
}

void malformed_lines_are_errors() {
  for (const std::string bad :
       {"not json\n", "[1, 2]\n", "{\"id\": \"r1\"}\n", "{\"event\": 7}\n",
        "{\"event\": \"result\", \"bytes\": -1}\n", "{\"event\": \"result\", \"bytes\": \"12\"}\n",
        "{\"event\": \"result\", \"bytes\": 1.5}\n"}) {
    Framer::Status last;
    const std::vector<Event> events = drain(bad, last);
    CHECK(events.empty());
    if (last != Framer::Status::kMalformed) {
      std::fprintf(stderr, "  not refused: %s", bad.c_str());
      ++failures;
    }
  }
}

Verdict judge_one(const std::string& wire, const std::map<std::string, std::string>& docs) {
  Framer::Status last;
  const std::vector<Event> events = drain(wire, last);
  CHECK(events.size() == 1);
  return events.empty() ? Verdict::kError : perfbench::wire::judge(events[0], docs);
}

void verdicts() {
  const std::map<std::string, std::string> docs = {{"table3-00", kDoc}, {"table2-00", "{}\n"}};
  CHECK(judge_one("{\"event\":\"accepted\",\"id\":\"r1\"}\n", docs) == Verdict::kInterim);
  CHECK(judge_one("{\"event\":\"progress\",\"shard\":1}\n", docs) == Verdict::kInterim);
  CHECK(judge_one(result_bytes("table3-00", kDoc), docs) == Verdict::kCompleted);
  // 429 is a rejection; every other error code, and an unknown kind, an error.
  CHECK(judge_one("{\"event\":\"error\",\"code\":429,\"message\":\"busy\"}\n", docs) ==
        Verdict::kRejected);
  CHECK(judge_one("{\"event\":\"error\",\"code\":503,\"message\":\"draining\"}\n", docs) ==
        Verdict::kError);
  CHECK(judge_one("{\"event\":\"error\",\"code\":\"429\"}\n", docs) == Verdict::kError);
  CHECK(judge_one("{\"event\":\"teapot\"}\n", docs) == Verdict::kError);
  // A result must carry the bytes of the store file of its own key.
  CHECK(judge_one(result_bytes("table2-00", kDoc), docs) == Verdict::kMismatched);
  CHECK(judge_one(result_bytes("table9-00", kDoc), docs) == Verdict::kMismatched);
  std::string flipped = kDoc;
  flipped[5] = 'S';
  CHECK(judge_one(result_bytes("table3-00", flipped), docs) == Verdict::kMismatched);
  CHECK(judge_one("{\"event\":\"result\",\"bytes\":3}\n{}\n", docs) == Verdict::kMismatched);
}

void flags() {
  Framer::Status last;
  const std::vector<Event> events =
      drain(result_bytes("table3-00", kDoc, true) + "{\"event\":\"result\",\"coalesced\":1}\n",
            last);
  CHECK(events.size() == 2);
  if (events.size() != 2) return;
  CHECK(perfbench::wire::flag(events[0], "coalesced"));
  CHECK(perfbench::wire::flag(events[0], "cache_hit"));
  CHECK(!perfbench::wire::flag(events[1], "coalesced"));  // not a boolean
  CHECK(!perfbench::wire::flag(events[1], "cache_hit"));  // absent
}

}  // namespace

int main() {
  payload_with_newlines_is_taken_by_length();
  incremental_feed();
  truncated_payload_waits();
  malformed_lines_are_errors();
  verdicts();
  flags();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all wire checks passed\n");
  return 0;
}
