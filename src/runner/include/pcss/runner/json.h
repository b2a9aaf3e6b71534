#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pcss::runner {

/// True when `value` is a whole number inside T's range; NaN and the
/// infinities are not. Casting a double outside the target range is
/// undefined behavior, so every stored or received integer is read
/// through this check.
template <typename T>
bool fits_integer(double value) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>);
  // -min() is 2^(bits-1), exact in a double; NaN fails every comparison.
  return value >= static_cast<double>(std::numeric_limits<T>::min()) &&
         value < -static_cast<double>(std::numeric_limits<T>::min()) &&
         value == std::floor(value);
}

/// True when `value` is finite and inside float's range, so narrowing it to
/// float is defined (it rounds); a NaN, an infinity or a magnitude above
/// FLT_MAX would be undefined behavior, so stored floats are read through
/// this check.
inline bool fits_float(double value) {
  return std::abs(value) <= static_cast<double>(std::numeric_limits<float>::max());
}

/// Parses a string of decimal digits only — how documents store 64-bit
/// seeds, which a double cannot hold. Throws std::runtime_error on an
/// empty string, a sign, space or any other non-digit, or a value above
/// UINT64_MAX.
std::uint64_t parse_u64(const std::string& digits);

/// Minimal dependency-free JSON value for the result store's documents.
///
/// Two properties matter more than generality here:
///   - dump() is *deterministic*: object keys keep insertion order and
///     numbers use the shortest representation that round-trips through
///     a double, so re-serializing identical results yields identical
///     bytes (the store's byte-identity guarantee rests on this);
///   - parse(dump(v)) == v for every value the runner produces.
///
/// Not supported (not needed by the store): non-finite numbers, \uXXXX
/// escapes beyond ASCII control characters, duplicate object keys.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  ///< null
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(long long value) : Json(static_cast<double>(value)) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(const char* value) : Json(std::string(value)) {}

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Scalar accessors; throw std::runtime_error on type mismatch.
  bool boolean() const;
  double number() const;
  const std::string& str() const;
  /// number() as a T; throws std::runtime_error unless fits_integer<T>.
  template <typename T>
  T integer() const {
    const double value = number();
    if (!fits_integer<T>(value)) range_error(value, "an integer");
    return static_cast<T>(value);
  }

  /// number() as a float; throws std::runtime_error unless fits_float.
  float float32() const {
    const double value = number();
    if (!fits_float(value)) range_error(value, "a float");
    return static_cast<float>(value);
  }

  // -- array ----------------------------------------------------------------
  Json& push(Json value);  ///< returns the stored element
  std::size_t size() const;
  const Json& operator[](std::size_t index) const;
  const std::vector<Json>& items() const;

  // -- object (insertion-ordered) -------------------------------------------
  Json& set(const std::string& key, Json value);  ///< returns the stored value
  const Json* find(const std::string& key) const; ///< null when absent
  const Json& at(const std::string& key) const;   ///< throws when absent
  const std::vector<std::pair<std::string, Json>>& members() const;

  bool operator==(const Json& other) const;

  /// Serializes with 2-space indentation and a deterministic layout.
  std::string dump() const;

  /// Serializes without any whitespace or newlines (still deterministic
  /// and round-trippable). The pcss_serve line-delimited protocol needs
  /// one-value-per-line framing, which the pretty dump() cannot give.
  std::string dump_compact() const;

  /// Parses a complete JSON document; throws std::runtime_error with the
  /// byte offset on malformed input, trailing garbage, or containers
  /// nested deeper than kMaxParseDepth.
  static Json parse(const std::string& text);

  /// Nesting cap of parse(). The parser recurses once per level, so an
  /// uncapped depth lets one hostile line overflow the stack; stored
  /// documents nest a handful of levels.
  static constexpr int kMaxParseDepth = 256;

 private:
  /// Throws "Json: <value> is not <expected> in range".
  [[noreturn]] static void range_error(double value, const char* expected);
  void dump_to(std::string& out, int depth) const;
  void dump_compact_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace pcss::runner
