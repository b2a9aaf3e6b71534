#include "pcss/runner/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pcss::runner {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::runtime_error(std::string("Json: expected ") + want + ", have type #" +
                           std::to_string(static_cast<int>(got)));
}

/// Shortest decimal string that parses back to exactly `value`. This is
/// what makes dump() deterministic *and* lossless: "0.1" instead of
/// "0.10000000000000001", but 17 digits whenever they are needed.
std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("Json: non-finite numbers are not representable");
  }
  char buf[32];
  if (std::fabs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("Json::parse: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > Json::kMaxParseDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxParseDepth));
        }
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') { ++pos_; return obj; }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      if (obj.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      obj.set(key, parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return obj;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') { ++pos_; return arr; }
    while (true) {
      arr.push(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return arr;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') { out.push_back(c); continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape not supported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number '" + token + "'");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers open at pos_
};

}  // namespace

bool Json::boolean() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

void Json::range_error(double value, const char* expected) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  throw std::runtime_error(std::string("Json: ") + buf + " is not " + expected + " in range");
}

std::uint64_t parse_u64(const std::string& digits) {
  if (digits.empty()) throw std::runtime_error("parse_u64: empty string");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      throw std::runtime_error("parse_u64: '" + digits + "' is not all digits");
    }
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - d) / 10) {
      throw std::runtime_error("parse_u64: '" + digits + "' exceeds 64 bits");
    }
    value = value * 10 + d;
  }
  return value;
}

const std::string& Json::str() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

Json& Json::push(Json value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
  return array_.back();
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("array or object", type_);
}

const Json& Json::operator[](std::size_t index) const {
  if (type_ != Type::kArray) type_error("array", type_);
  if (index >= array_.size()) throw std::runtime_error("Json: array index out of range");
  return array_[index];
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  object_.emplace_back(key, std::move(value));
  return object_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  if (found == nullptr) throw std::runtime_error("Json: missing key '" + key + "'");
  return *found;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

void Json::dump_to(std::string& out, int depth) const {
  const auto indent = [&out](int levels) { out.append(static_cast<std::size_t>(levels) * 2, ' '); };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += format_number(number_); break;
    case Type::kString: escape_string(string_, out); break;
    case Type::kArray: {
      if (array_.empty()) { out += "[]"; break; }
      out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        indent(depth + 1);
        array_[i].dump_to(out, depth + 1);
        if (i + 1 < array_.size()) out += ",";
        out += "\n";
      }
      indent(depth);
      out += "]";
      break;
    }
    case Type::kObject: {
      if (object_.empty()) { out += "{}"; break; }
      out += "{\n";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        indent(depth + 1);
        escape_string(object_[i].first, out);
        out += ": ";
        object_[i].second.dump_to(out, depth + 1);
        if (i + 1 < object_.size()) out += ",";
        out += "\n";
      }
      indent(depth);
      out += "}";
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

void Json::dump_compact_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += format_number(number_); break;
    case Type::kString: escape_string(string_, out); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        array_[i].dump_compact_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        escape_string(object_[i].first, out);
        out.push_back(':');
        object_[i].second.dump_compact_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump_compact() const {
  std::string out;
  dump_compact_to(out);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace pcss::runner
