#include "runner/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "runner/scenario.hpp"

namespace continu::runner::cli {

std::optional<std::uint64_t> parse_uint(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  // strtoull accepts leading whitespace, signs and trailing garbage;
  // a flag value must be digits only.
  for (const char* p = text; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<std::uint64_t> parse_positive(const char* text) {
  const auto value = parse_uint(text);
  if (!value.has_value() || *value == 0) return std::nullopt;
  return value;
}

std::optional<unsigned> parse_positive_u32(const char* text) {
  const auto value = parse_positive(text);
  if (!value.has_value() || *value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

std::optional<unsigned> parse_uint_u32(const char* text) {
  const auto value = parse_uint(text);
  if (!value.has_value() || *value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

std::optional<double> parse_nonneg_double(const char* text) {
  if (text == nullptr) return std::nullopt;
  // strtod also takes whitespace, signs, hex floats and inf/nan; a
  // flag value must start with a digit or '.', and may use only
  // decimal digits, one point and an exponent.
  if (std::isdigit(static_cast<unsigned char>(*text)) == 0 && *text != '.') {
    return std::nullopt;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (std::isdigit(c) == 0 && c != '.' && c != 'e' && c != 'E' && c != '+' &&
        c != '-') {
      return std::nullopt;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  if (!std::isfinite(value) || value < 0.0) return std::nullopt;
  return value;
}

std::string unknown_scenario_message(const std::string& name) {
  std::string message = "unknown scenario '" + name + "'; valid names:";
  for (const auto& valid : all_scenario_names()) {
    message += "\n  " + valid;
  }
  return message;
}

}  // namespace continu::runner::cli
