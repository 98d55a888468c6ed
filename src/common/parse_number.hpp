// Strict decimal parsing for command-line numbers.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

namespace dart {

/// Parse all of `text` as a decimal T; the value must fit T, so T's maximum
/// is the bound (`--port 70000` into a uint16_t fails instead of wrapping
/// to 4464). Rejects empty text, whitespace, a leading '+', a '-' on
/// unsigned types and trailing characters (`--shards abc` fails instead of
/// becoming 0). `out` is written only on success.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

/// Parse all of `text` as a finite, non-negative decimal double (`--rate
/// 2.5`, `1e3`). Rejects what parse_number rejects, plus NaN, infinities
/// and negative values including -0 (`--rate abc` fails instead of
/// running unpaced). `out` is written only on success.
inline bool parse_nonnegative(std::string_view text, double& out) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if (!std::isfinite(value) || std::signbit(value)) return false;
  out = value;
  return true;
}

}  // namespace dart
