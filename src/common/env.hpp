// Environment-variable parsing helpers shared by the runtime knobs.
//
// Every numeric KGWAS_* knob is parsed here, and strictly: a malformed
// value must never silently become a surprising number (strtoull would
// wrap "-1" to SIZE_MAX, saturate overflow to ULLONG_MAX, and stop at the
// first non-digit of "12abc").  An unset, empty or all-blank knob takes
// its documented default quietly.  A set value that is not a clean number
// in the knob's range takes the default too, and logs one warning naming
// the knob, the value and the default kept.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "common/logging.hpp"

namespace kgwas {

namespace detail {

/// The knob's value with leading blanks skipped; null when the variable
/// is unset, empty or all blank.
inline const char* env_text(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return nullptr;
  while (std::isspace(static_cast<unsigned char>(*value))) ++value;
  return *value == '\0' ? nullptr : value;
}

/// True when nothing but blanks is left at `end`.
inline bool only_blanks(const char* end) {
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  return *end == '\0';
}

/// The one path of a set value a knob rejects: warns, then returns the
/// default.
template <class T>
T reject_env(const char* name, const std::string& want, T fallback) {
  KGWAS_LOG_WARN("ignoring " << name << "='" << std::getenv(name)
                             << "' (want " << want
                             << "); keeping the default " << fallback);
  return fallback;
}

}  // namespace detail

/// Parses a decimal integer knob in [lo, hi]; returns `fallback` when the
/// variable is unset or blank, and warns as well when it is signed, has
/// trailing garbage, overflows or lies outside the range.  Surrounding
/// blanks are tolerated.
inline std::size_t env_size_t(const char* name, std::size_t fallback,
                              std::size_t lo, std::size_t hi) {
  const char* value = detail::env_text(name);
  if (value == nullptr) return fallback;
  // Signs are rejected outright: "-1" must not wrap and "+1" is not a
  // documented spelling for any knob.
  if (std::isdigit(static_cast<unsigned char>(*value))) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    // ERANGE: the overflow saturated to ULLONG_MAX.
    if (errno != ERANGE && parsed >= lo && parsed <= hi &&
        detail::only_blanks(end)) {
      return static_cast<std::size_t>(parsed);
    }
  }
  std::ostringstream want;
  want << "an integer in [" << lo << ", ";
  if (hi == std::numeric_limits<std::size_t>::max()) {
    want << "inf)";
  } else {
    want << hi << ']';
  }
  return detail::reject_env(name, want.str(), fallback);
}

/// A non-negative integer knob with no upper bound.
inline std::size_t env_size_t(const char* name, std::size_t fallback) {
  return env_size_t(name, fallback, 0,
                    std::numeric_limits<std::size_t>::max());
}

/// Parses a finite number knob in [0, limit) under the same contract as
/// env_size_t.
inline double env_double(const char* name, double fallback, double limit) {
  const char* value = detail::env_text(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end != value && errno != ERANGE && std::isfinite(parsed) &&
      parsed >= 0.0 && parsed < limit && detail::only_blanks(end)) {
    return parsed;
  }
  std::ostringstream want;
  want << "a number in [0, " << limit << ')';
  return detail::reject_env(name, want.str(), fallback);
}

}  // namespace kgwas
