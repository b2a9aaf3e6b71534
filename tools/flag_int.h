#pragma once

// Strict integer flag values for the command-line tools.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pcss::tools {

/// The value of `flag` read from `text`: base-10 digits with an optional
/// leading '-' and nothing else (no space, no '+', no trailing character),
/// within [lo, hi]. Any other text prints "<tool>: <flag> expects an integer
/// in [lo, hi], got '<text>'" and exits with status 2, the tools' usage
/// error. The check is serve/config.cpp's parse_int plus the range.
inline long long flag_int(const char* tool, const char* flag, const char* text, long long lo,
                          long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  const bool starts_ok = text[0] == '-' || (text[0] >= '0' && text[0] <= '9');
  if (!starts_ok || end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    std::fprintf(stderr, "%s: %s expects an integer in [%lld, %lld], got '%s'\n", tool, flag,
                 lo, hi, text);
    std::exit(2);
  }
  return value;
}

/// flag_int over [0, INT_MAX]: the tools' counts, sizes and ports.
inline int flag_count(const char* tool, const char* flag, const char* text) {
  return static_cast<int>(flag_int(tool, flag, text, 0, std::numeric_limits<int>::max()));
}

}  // namespace pcss::tools
