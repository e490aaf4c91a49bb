// Checked flag values for the command-line tools.
//
// A numeric flag's value must be a whole base-10 number (or, for rates, a
// finite real) inside the flag's range. Anything else — an empty value,
// trailing characters, a value out of range or too large for the type —
// makes the tool print which flag was wrong and exit with status 2, instead
// of std::atoi's silent 0 or its undefined behaviour on overflow. A flag
// given without its value, as the last argument, exits 2 the same way.

#ifndef SPRITE_DFS_TOOLS_CLI_FLAGS_H_
#define SPRITE_DFS_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace sprite::cli {

// Parses all of `text` as a number of type T (an integer or double).
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return end != text && ec == std::errc() && ptr == end;
}

// `value` for integer flag `flag`, checked against [lo, hi]; exits 2 with a
// message on a malformed or out-of-range value.
inline int64_t IntFlag(const char* tool, const char* flag, const char* value, int64_t lo,
                       int64_t hi) {
  int64_t parsed = 0;
  if (!ParseNumber(value, &parsed) || parsed < lo || parsed > hi) {
    std::fprintf(stderr, "%s: %s wants an integer in [%lld, %lld], got '%s'\n", tool, flag,
                 static_cast<long long>(lo), static_cast<long long>(hi), value);
    std::exit(2);
  }
  return parsed;
}

// `value` for real-valued flag `flag`, checked against [lo, hi); exits 2
// with a message on a malformed or out-of-range value.
inline double RateFlag(const char* tool, const char* flag, const char* value, double lo,
                       double hi) {
  double parsed = 0.0;
  if (!ParseNumber(value, &parsed) || !std::isfinite(parsed) || parsed < lo || parsed >= hi) {
    std::fprintf(stderr, "%s: %s wants a rate in [%g, %g), got '%s'\n", tool, flag, lo, hi,
                 value);
    std::exit(2);
  }
  return parsed;
}

// The value of flag `flag` when argv[*i] is that flag, spelled either
// `flag value` (advances *i past the value) or `flag=value`; nullptr when
// argv[*i] is some other argument. Exits 2 with a message when the value is
// missing.
inline const char* FlagValue(const char* tool, const char* flag, int argc, char** argv, int* i) {
  const size_t length = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, length) != 0) {
    return nullptr;
  }
  if (arg[length] == '=') {
    return arg + length + 1;
  }
  if (arg[length] != '\0') {
    return nullptr;
  }
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s wants a value\n", tool, flag);
    std::exit(2);
  }
  return argv[++*i];
}

}  // namespace sprite::cli

#endif  // SPRITE_DFS_TOOLS_CLI_FLAGS_H_
