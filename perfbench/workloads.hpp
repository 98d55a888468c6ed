// The benchmark's workloads and the dartd composition they drive.
//
// Every cycle assembles what `dartd run` assembles (src/tools/dart_daemon.cpp):
// a telemetry Registry with RuntimeMetrics, an EpochRunner over a fresh
// ShardedMonitor, and a QueryServer answering the daemon's routes. A
// benchmark-owned PacketSource wrapper times the ingest loop from outside.
// On request, one poller thread watches the live view while the cycle runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/epoch_runner.hpp"
#include "daemon/query_server.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"
#include "trace/trace.hpp"

#if !defined(DART_TELEMETRY)
#error "the benchmark measures dartd as shipped, with DART_TELEMETRY on"
#endif

namespace dartbench {

struct Workload {
  std::string name;
  /// Open loop over the socket source instead of a closed-loop replay.
  bool live = false;
  dart::daemon::DaemonConfig config;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// live_socket: records fed per cycle, on a fixed 0.5 Mpps schedule
/// (record i is due 2i microseconds after the feeder starts). SocketSource
/// reads one record per read() call, about 1 us a record on a 4-vCPU KVM
/// guest, so at 1 Mpps the ingest thread is ~96% busy and any slower
/// stretch of the host starts a backlog. At 0.5 Mpps it is about half busy,
/// which leaves the headroom for the lag to measure the daemon.
inline constexpr std::uint64_t kLiveRecordsPerCycle = 1'000'000;
inline constexpr std::uint64_t kLiveRecordSpacingNs = 2'000;

/// The poller's cadence: last_epoch() at least every 100 us, GET /epoch
/// every 10 ms, GET /metrics every second, one connection at a time.
inline constexpr std::uint64_t kPollerSleepNs = 50'000;
inline constexpr std::uint64_t kEpochQueryPeriodNs = 10'000'000;
inline constexpr std::uint64_t kMetricsQueryPeriodNs = 1'000'000'000;
/// A failed query counts as this slow, so it misses every latency limit.
inline constexpr double kFailedQueryMs = 1000.0;

/// One dartd instance, assembled as the daemon's `run` command does.
class Daemon {
 public:
  explicit Daemon(dart::daemon::DaemonConfig config);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The daemon's query routes; empty for an unknown path.
  std::string handle(const std::string& path);

  dart::telemetry::Registry registry;
  dart::telemetry::RuntimeMetrics metrics;
  dart::daemon::EpochRunner runner;
  dart::daemon::QueryServer server;

 private:
  static dart::daemon::DaemonConfig instrument(
      dart::daemon::DaemonConfig config, dart::telemetry::RuntimeMetrics& m);
};

struct CycleResult {
  bool ran = false;  ///< reached the drained report without aborting
  std::string error;
  std::uint64_t offered = 0;
  std::string report;

  double setup_s = 0;      ///< cycle start -> first PacketSource::poll
  double ingest_s = 0;     ///< first poll -> run_cycle returned
  double drain_ms = 0;     ///< end of input -> run_cycle returned
  double peak_rss_mb = 0;  ///< high-water mark above the loaded inputs

  std::vector<double> epoch_lag_ms;  ///< watched cycles only
  std::vector<double> query_ms;  ///< GET /epoch; failures at kFailedQueryMs
  std::uint64_t queries = 0;     ///< /epoch and /metrics requests sent
  std::uint64_t queries_failed = 0;
  std::vector<double> feeder_late_ms;  ///< live only, one per send

  std::uint64_t empty_polls = 0;
  std::int64_t ring_occupancy_max = 0;  ///< sampled per poll when traced
  /// host_yardstick_ms() on the cycle's CPUs, the mean of one run just before
  /// and one just after the cycle.
  double yardstick_ms = 0;
};

/// Run one full cycle: load the input, assemble the daemon, ingest to the
/// drained report. With `watch`, the poller samples the live view and
/// queries the daemon meanwhile. When `keep` is given it receives the
/// drained daemon.
CycleResult run_cycle(const Workload& workload, const std::string& input,
                      bool watch, std::unique_ptr<Daemon>* keep = nullptr);

/// The expected output for `workload` on `trace`. A replay's reference is
/// the sample total and RTT lines of a scalar run: per-shard
/// DartMonitor::process over the ShardRouter partition. The live feed's is
/// the whole report of an offline ReplaySource replay of the fed prefix
/// under the same DaemonConfig.
std::string reference_text(const Workload& workload, dart::trace::Trace trace);

/// The part of `report` a reference pins (see reference_text).
std::string pinned_text(const Workload& workload, const std::string& report);

/// Output checks of one cycle's report against the accounting identity
/// (per shard and in aggregate, every offered record routed); returns the
/// failures found, empty when all hold.
std::vector<std::string> check_accounting(const std::string& report,
                                          std::uint64_t offered);

/// Value of an unlabelled line `name value` in a report; 0 when missing.
std::uint64_t report_value(const std::string& report, const std::string& name);

}  // namespace dartbench
