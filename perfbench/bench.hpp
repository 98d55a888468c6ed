// Shared helpers of the dartd benchmark harness: clocks, order statistics,
// resident-set probes and the small JSON writer the result line uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dartbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Linear-interpolated quantile (the "type 7" estimator numpy and
/// statistics.quantiles(method="inclusive") use); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Resident set and its high-water mark from /proc/self/status, in MiB.
double rss_mib();
double peak_rss_mib();
/// Reset the high-water mark to the current resident set
/// (/proc/self/clear_refs "5"); false when the kernel refuses.
bool reset_peak_rss();

/// Shortest decimal text that reads back as exactly `value`.
std::string format_number(double value);
std::string json_string(const std::string& text);

}  // namespace dartbench
