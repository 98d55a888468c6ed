// RTT sample reports (Section 5: Dart "collects raw RTT samples and sends
// them to a collection server").
//
// CSV writer/reader for sample streams so detection pipelines can run
// offline on collected reports, mirroring the paper's testbed where the
// switch exports reports and a server runs the change detector.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rtt_sample.hpp"

namespace dart::analytics {

/// An in-memory sample stream: the collection buffer between a monitor and
/// the export/detection pipelines. The sharded replay runtime gives each
/// worker a private log (single-writer, no locking); logs are merged after
/// the workers join.
class SampleLog {
 public:
  SampleLog() = default;
  explicit SampleLog(std::vector<core::RttSample> samples)
      : samples_(std::move(samples)) {}

  void append(const core::RttSample& sample) { samples_.push_back(sample); }

  /// Sink adapter for monitor constructors. The log must outlive the
  /// returned callback.
  core::SampleCallback callback() {
    return [this](const core::RttSample& sample) { append(sample); };
  }

  const std::vector<core::RttSample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void reserve(std::size_t n) { samples_.reserve(n); }
  void clear() { samples_.clear(); }

  /// Steal `other`'s samples onto the end of this log.
  void absorb(SampleLog&& other);

  /// Drop every sample past the first `n` — the recovery path's rollback to
  /// a checkpoint's sample cursor (samples emitted after the cut belong to
  /// the discarded crash window). No-op when the log is already shorter.
  void truncate(std::size_t n) {
    if (n < samples_.size()) samples_.resize(n);
  }

  bool write_csv(std::ostream& out) const;
  bool write_csv_file(const std::string& path) const;

 private:
  std::vector<core::RttSample> samples_;
};

/// Header + one row per sample:
///   src_ip,src_port,dst_ip,dst_port,eack,seq_ts_ns,ack_ts_ns,rtt_ns,leg
bool write_samples_csv(const std::vector<core::RttSample>& samples,
                       std::ostream& out);
bool write_samples_csv_file(const std::vector<core::RttSample>& samples,
                            const std::string& path);

/// Parse a CSV produced by write_samples_csv; nullopt on malformed input.
std::optional<std::vector<core::RttSample>> read_samples_csv(
    std::istream& in);
std::optional<std::vector<core::RttSample>> read_samples_csv_file(
    const std::string& path);

}  // namespace dart::analytics
