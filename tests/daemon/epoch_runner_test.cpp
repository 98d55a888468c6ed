// EpochRunner: the daemon's continuous-rotation core. Pins down the three
// contracts the dartd surface stands on: (1) a drained cycle's report
// carries the exact accounting identity, (2) a rate-paced live run renders
// byte-identical text to an unpaced offline replay of the same trace, and
// (3) stop is drain-to-barrier — a mid-run SIGTERM settles results instead
// of abandoning them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "daemon/epoch_runner.hpp"
#include "daemon/replay_source.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

trace::Trace daemon_workload() {
  gen::CampusConfig config;
  config.seed = 21;
  config.connections = 300;
  config.duration = sec(2);
  return gen::build_campus(config);
}

daemon::DaemonConfig runner_config(std::uint64_t epoch_interval) {
  daemon::DaemonConfig config;
  config.shards = 3;
  config.epoch_interval = epoch_interval;
  config.poll_budget = 512;
  return config;
}

// Value of an *aggregate* line ("name value", no labels) in a report.
std::uint64_t report_value(const std::string& report,
                           const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = report.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || report[pos - 1] == '\n') {
      return std::stoull(report.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  ADD_FAILURE() << "report lacks aggregate line for " << name;
  return 0;
}

void expect_identity(const std::string& report) {
  const std::uint64_t routed = report_value(report, "dart_routed_total");
  const std::uint64_t processed =
      report_value(report, "dart_processed_total");
  const std::uint64_t shed = report_value(report, "dart_shed_total");
  const std::uint64_t abandoned =
      report_value(report, "dart_abandoned_total");
  const std::uint64_t lost =
      report_value(report, "dart_lost_to_crash_total");
  EXPECT_EQ(processed + shed + abandoned + lost, routed);
}

TEST(EpochRunner, DrainsUnpacedReplayWithIdentity) {
  const trace::Trace trace = daemon_workload();
  daemon::EpochRunner runner(runner_config(1000));
  EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kIdle);
  EXPECT_TRUE(runner.final_report().empty());

  daemon::ReplaySource source{trace};
  const std::string report = runner.run_cycle(source, {});

  const daemon::DaemonStatus status = runner.status();
  EXPECT_EQ(status.state, daemon::DaemonStatus::State::kDrained);
  EXPECT_EQ(status.cycle, 1u);
  EXPECT_EQ(status.routed, trace.size());
  EXPECT_TRUE(status.source_exhausted);
  EXPECT_EQ(status.epochs, trace.size() / 1000);

  EXPECT_EQ(runner.final_report(), report);
  EXPECT_NE(report.find("# dartd deterministic report"), std::string::npos);
  EXPECT_EQ(report_value(report, "dart_routed_total"), trace.size());
  expect_identity(report);
}

// The tentpole's provable claim: pacing changes arrival times, never
// content — so the deterministic tier renders the same bytes live as
// offline. The paced run compresses trace time 10^9-fold to keep the
// test fast.
TEST(EpochRunner, PacedLiveRunIsByteIdenticalToOfflineReplay) {
  const trace::Trace trace = daemon_workload();

  daemon::EpochRunner offline(runner_config(500));
  daemon::ReplaySource unpaced{trace};
  const std::string offline_report = offline.run_cycle(unpaced, {});

  daemon::EpochRunner live(runner_config(500));
  daemon::ReplaySource paced{trace, daemon::ReplaySourceConfig{1e9}};
  const std::string live_report = live.run_cycle(paced, {});

  EXPECT_EQ(live_report, offline_report);
  expect_identity(live_report);
}

TEST(EpochRunner, StopMidRunDrainsToBarrier) {
  const trace::Trace trace = daemon_workload();
  daemon::DaemonConfig config = runner_config(100);
  config.poll_budget = 150;  // well under the trace size
  daemon::EpochRunner runner(config);

  // First check lets one poll through; the second stops the cycle. The
  // callback also observes the running state from the inside.
  int checks = 0;
  const daemon::StopFn stop = [&runner, &checks]() {
    EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kRunning);
    return ++checks > 1;
  };
  daemon::ReplaySource source{trace};
  const std::string report = runner.run_cycle(source, stop);

  const daemon::DaemonStatus status = runner.status();
  EXPECT_EQ(status.state, daemon::DaemonStatus::State::kDrained);
  EXPECT_FALSE(status.source_exhausted);  // stopped, not drained dry
  EXPECT_EQ(status.routed, 150u);
  EXPECT_EQ(report_value(report, "dart_routed_total"), 150u);
  expect_identity(report);  // the identity holds even when cut short
}

TEST(EpochRunner, SealsEpochSnapshotsAtBarriers) {
  const trace::Trace trace = daemon_workload();
  const std::uint64_t interval = 250;
  daemon::EpochRunner runner(runner_config(interval));
  EXPECT_NE(runner.epoch_report().find("# dartd epoch barrier"),
            std::string::npos);  // header renders even before any epoch

  daemon::ReplaySource source{trace};
  runner.run_cycle(source, {});

  const daemon::EpochSnapshot last = runner.last_epoch();
  EXPECT_EQ(last.cycle, 1u);
  EXPECT_EQ(last.epoch, trace.size() / interval);
  EXPECT_EQ(last.routed, last.epoch * interval);
  ASSERT_EQ(last.shard_cursors.size(), 3u);
  std::uint64_t sum = 0;
  for (const std::uint64_t cursor : last.shard_cursors) sum += cursor;
  EXPECT_EQ(sum, last.routed);

  const std::string epoch_report = runner.epoch_report();
  EXPECT_NE(epoch_report.find("dartd_epoch " + std::to_string(last.epoch)),
            std::string::npos);
}

// Rotation: each cycle builds a fresh monitor, so a second cycle over the
// same trace reproduces the same counters under the next cycle number.
TEST(EpochRunner, RotatesFreshMonitorPerCycle) {
  const trace::Trace trace = daemon_workload();
  daemon::EpochRunner runner(runner_config(1000));

  daemon::ReplaySource first{trace};
  const std::string report1 = runner.run_cycle(first, {});
  daemon::ReplaySource second{trace};
  const std::string report2 = runner.run_cycle(second, {});

  EXPECT_EQ(runner.status().cycle, 2u);
  EXPECT_NE(report1.find("dartd_cycle 1\n"), std::string::npos);
  EXPECT_NE(report2.find("dartd_cycle 2\n"), std::string::npos);
  // Identical input, identical results — only the cycle stamp moves.
  const std::string tail1 = report1.substr(report1.find("dartd_epochs"));
  const std::string tail2 = report2.substr(report2.find("dartd_epochs"));
  EXPECT_EQ(tail1, tail2);
}

// Every "dart_rtt_ns*" line of a report, in order.
std::string rtt_lines(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  std::string text;
  while (std::getline(in, text)) {
    if (text.rfind("dart_rtt_ns", 0) == 0) {
      out += text;
      out += '\n';
    }
  }
  return out;
}

std::string g17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The drained report bins samples in place on the workers and merges the
// per-shard histograms. Rendering the same lines again from a
// sample-retaining run of the same trace — every sample kept, sorted and
// folded into a default LogHistogram — must give the same bytes. This pins
// the workers' histogram geometry and the merge's skip rule to the
// retained-sample path.
TEST(EpochRunner, RttLinesMatchFoldOfRetainedSamples) {
  const trace::Trace trace = daemon_workload();
  const daemon::DaemonConfig config = runner_config(1000);
  daemon::EpochRunner runner(config);
  daemon::ReplaySource source{trace};
  const std::string report = runner.run_cycle(source, {});

  runtime::ShardedConfig sharded;
  sharded.shards = config.shards;
  sharded.retain_samples = true;
  runtime::ShardedMonitor monitor(sharded, config.dart);
  monitor.process_all(trace.packets());
  monitor.finish();
  analytics::LogHistogram hist;
  for (const core::RttSample& sample : monitor.merged_samples()) {
    hist.add(sample.rtt());
  }
  ASSERT_GT(hist.count(), 0U);

  std::ostringstream expected;
  expected << "dart_rtt_ns_count " << hist.count() << "\n"
           << "dart_rtt_ns_min " << hist.min() << "\n"
           << "dart_rtt_ns_max " << hist.max() << "\n";
  for (const double q : {0.5, 0.9, 0.99}) {
    expected << "dart_rtt_ns{quantile=\"" << g17(q) << "\"} "
             << g17(hist.quantile(q)) << "\n";
  }
  EXPECT_EQ(rtt_lines(report), expected.str());
}

TEST(EpochRunner, EmptySourceDrainsCleanly) {
  daemon::EpochRunner runner(runner_config(100));
  daemon::ReplaySource source{trace::Trace{}};
  const std::string report = runner.run_cycle(source, {});
  EXPECT_EQ(report_value(report, "dart_routed_total"), 0u);
  EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kDrained);
  EXPECT_TRUE(runner.status().source_exhausted);
  expect_identity(report);
}

}  // namespace
}  // namespace dart
