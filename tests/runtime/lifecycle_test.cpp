// Lifecycle contract of ShardedMonitor after the daemon bugfix: ingest
// after finish() and a second finish() are typed errors (LifecycleError),
// not asserts or silent no-ops. The batch era tolerated both — a daemon
// that rotates monitors per cycle cannot, because a stale owner feeding a
// joined runtime would route packets into rings with no consumer. Every
// case runs both without and with checkpoint barriers: recovery is part
// of the same runtime and obeys the same contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/workload.hpp"
#include "runtime/lifecycle.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

trace::Trace tiny_workload() {
  gen::CampusConfig config;
  config.seed = 11;
  config.connections = 40;
  config.duration = sec(1);
  return gen::build_campus(config);
}

runtime::ShardedConfig two_shards() {
  runtime::ShardedConfig config;
  config.shards = 2;
  return config;
}

std::vector<runtime::ShardedConfig> both_modes() {
  runtime::ShardedConfig checkpointed = two_shards();
  checkpointed.checkpoint.interval_packets = 64;
  return {two_shards(), checkpointed};
}

std::string mode_name(const runtime::ShardedConfig& config) {
  return config.checkpoint.enabled() ? "checkpointed" : "plain";
}

TEST(Lifecycle, ProcessAfterFinishThrowsTypedError) {
  const trace::Trace trace = tiny_workload();
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    runtime::ShardedMonitor monitor(config, core::DartConfig{});
    monitor.process_all(trace.packets());
    monitor.finish();
    EXPECT_TRUE(monitor.finished());
    try {
      monitor.process(trace.packets().front());
      FAIL() << "process() after finish() must throw";
    } catch (const runtime::LifecycleError& err) {
      EXPECT_EQ(err.violation(),
                runtime::LifecycleViolation::kProcessAfterFinish);
      EXPECT_NE(std::string(err.what()).find("finish"), std::string::npos);
    }
  }
}

TEST(Lifecycle, ProcessAllAfterFinishThrowsTypedError) {
  const trace::Trace trace = tiny_workload();
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    runtime::ShardedMonitor monitor(config, core::DartConfig{});
    monitor.finish();
    EXPECT_THROW(monitor.process_all(trace.packets()),
                 runtime::LifecycleError);
  }
}

TEST(Lifecycle, DoubleFinishThrowsTypedError) {
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    runtime::ShardedMonitor monitor(config, core::DartConfig{});
    monitor.finish();
    try {
      monitor.finish();
      FAIL() << "second finish() must throw";
    } catch (const runtime::LifecycleError& err) {
      EXPECT_EQ(err.violation(),
                runtime::LifecycleViolation::kFinishAfterFinish);
    }
  }
}

// LifecycleError is a logic_error: a caller bug, catchable as such by
// generic handlers that do not know the daemon types.
TEST(Lifecycle, ErrorIsALogicError) {
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    runtime::ShardedMonitor monitor(config, core::DartConfig{});
    monitor.finish();
    EXPECT_THROW(monitor.finish(), std::logic_error);
  }
}

// Destruction stays legal on every path: after an explicit finish() (the
// destructor must not attempt a second one) and without any finish() at
// all (the destructor drains via the noexcept shutdown path).
TEST(Lifecycle, DestructionAfterFinishIsLegal) {
  const trace::Trace trace = tiny_workload();
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    {
      runtime::ShardedMonitor monitor(config, core::DartConfig{});
      monitor.process_all(trace.packets());
      monitor.finish();
    }  // no throw, no abort
    {
      runtime::ShardedMonitor monitor(config, core::DartConfig{});
      monitor.process_all(trace.packets());
    }  // destructor-only drain
  }
  SUCCEED();
}

// The typed throw happens before any routing: results settled by the first
// finish() survive a rejected ingest attempt untouched.
TEST(Lifecycle, RejectedIngestLeavesResultsIntact) {
  const trace::Trace trace = tiny_workload();
  for (const runtime::ShardedConfig& config : both_modes()) {
    SCOPED_TRACE(mode_name(config));
    runtime::ShardedMonitor monitor(config, core::DartConfig{});
    monitor.process_all(trace.packets());
    monitor.finish();
    const core::DartStats before = monitor.merged_stats();
    EXPECT_THROW(monitor.process(trace.packets().front()),
                 runtime::LifecycleError);
    const core::DartStats after = monitor.merged_stats();
    EXPECT_EQ(before.packets_processed, after.packets_processed);
    EXPECT_EQ(before.samples, after.samples);
    EXPECT_EQ(monitor.routed_total(), trace.size());
  }
}

// The messages are actionable: each names the misuse and what to do
// instead, because they surface in daemon logs where nobody has a
// stack trace.
TEST(Lifecycle, ViolationMessagesNameTheMisuse) {
  const std::string process_msg =
      runtime::to_string(runtime::LifecycleViolation::kProcessAfterFinish);
  EXPECT_NE(process_msg.find("fresh monitor"), std::string::npos);
  const std::string finish_msg =
      runtime::to_string(runtime::LifecycleViolation::kFinishAfterFinish);
  EXPECT_NE(finish_msg.find("twice"), std::string::npos);
}

}  // namespace
}  // namespace dart
