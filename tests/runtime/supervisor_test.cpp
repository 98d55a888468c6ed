// ShardedMonitor with checkpointing under fault-free conditions: a
// checkpointed run must match an unsupervised one — same routing, same
// merged results — while cutting checkpoints at a deterministic barrier
// cadence. The crash-path behavior lives in recovery_chaos_test.cpp;
// here we pin the no-fault contract and the coordinator's fencing rules,
// which must hold long before anything crashes.
#include "runtime/sharded_monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/workload.hpp"
#include "sharded_reference.hpp"
#include "runtime/checkpoint_coordinator.hpp"

namespace dart {
namespace {

trace::Trace workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 400;
  config.duration = sec(3);
  return gen::build_campus(config);
}

core::DartConfig monitor_config() {
  core::DartConfig config;
  config.rt_idle_timeout = sec(2);
  return config;
}

runtime::ShardedConfig supervisor_config() {
  runtime::ShardedConfig config;
  config.shards = 4;
  config.batch_size = 64;
  config.queue_batches = 64;
  config.overload.shed_deadline_ns = sec(30);
  config.hang_detection_ns = 0;  // fault-free: hangs cannot happen
  return config;
}

std::vector<core::RttSample> reference_samples(const trace::Trace& trace) {
  return test::single_monitor_reference(monitor_config(), trace.packets())
      .samples;
}

TEST(Supervisor, CleanRunMatchesSingleMonitor) {
  const trace::Trace trace = workload(1);
  runtime::ShardedConfig config = supervisor_config();
  config.checkpoint.interval_packets = 512;
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  const core::DartStats merged = supervisor.merged_stats();
  const core::RuntimeHealth health = supervisor.health();
  EXPECT_EQ(merged.packets_processed, trace.packets().size());
  EXPECT_EQ(health.shed_packets, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  EXPECT_EQ(health.lost_to_crash, 0U);
  EXPECT_EQ(health.workers_killed, 0U);
  EXPECT_EQ(health.recovered, 0U);
  EXPECT_GT(supervisor.checkpoints_cut(), 0U);

  // Committed samples — barrier commits plus the trailing end-of-input
  // commit — reconstruct the full sample stream.
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
}

TEST(Supervisor, MatchesShardedMonitorRun) {
  const trace::Trace trace = workload(2);

  runtime::ShardedConfig sharded_config;
  sharded_config.shards = 4;
  sharded_config.batch_size = 64;
  sharded_config.queue_batches = 64;
  runtime::ShardedMonitor sharded(sharded_config, monitor_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  runtime::ShardedConfig config = supervisor_config();
  config.checkpoint.interval_packets = 777;  // odd cadence on purpose
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  EXPECT_EQ(supervisor.merged_stats().packets_processed,
            sharded.merged_stats().packets_processed);
  EXPECT_EQ(supervisor.merged_stats().samples,
            sharded.merged_stats().samples);
  EXPECT_EQ(supervisor.merged_samples(), sharded.merged_samples());
}

TEST(Supervisor, PacketBarrierCadenceIsExact) {
  const trace::Trace trace = workload(3);
  runtime::ShardedConfig config = supervisor_config();
  config.shards = 1;  // single stream: the cadence arithmetic is exact
  config.checkpoint.interval_packets = 256;
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  const std::uint64_t n = trace.packets().size();
  EXPECT_EQ(supervisor.checkpoints_cut(), n / 256);
  // The latest image's replay cursor sits on the last barrier.
  core::SnapshotMeta meta;
  ASSERT_TRUE(supervisor.coordinator().latest(0, nullptr, &meta));
  EXPECT_EQ(meta.cursor, (n / 256) * 256);
  EXPECT_EQ(meta.epoch, n / 256);
  // Consistency invariant: the image's sample cursor counts exactly the
  // samples committed at that point — never more than the final total.
  EXPECT_LE(meta.sample_cursor, supervisor.merged_stats().samples);
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
}

TEST(Supervisor, VirtualTimeBarriersFollowTheTraceClock) {
  const trace::Trace trace = workload(4);
  runtime::ShardedConfig config = supervisor_config();
  config.shards = 1;
  config.checkpoint.interval_vtime_ns = msec(500);

  auto run = [&] {
    runtime::ShardedMonitor supervisor(config, monitor_config());
    supervisor.process_all(trace.packets());
    supervisor.finish();
    return supervisor.checkpoints_cut();
  };
  const std::uint64_t first = run();
  const std::uint64_t second = run();
  // ~3 s of trace at a 500 ms cadence: several cuts, and — because the
  // trigger is packet timestamps, not wall time — identical run to run.
  EXPECT_GE(first, 4U);
  EXPECT_EQ(first, second);
}

TEST(Supervisor, DisabledCheckpointingStillMergesEverything) {
  const trace::Trace trace = workload(5);
  runtime::ShardedMonitor supervisor(supervisor_config(), monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  EXPECT_EQ(supervisor.checkpoints_cut(), 0U);
  EXPECT_EQ(supervisor.merged_stats().packets_processed,
            trace.packets().size());
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
}

TEST(CoordinatorFencing, StaleIncarnationCannotCommit) {
  runtime::CheckpointCoordinator coordinator(2);
  const std::uint64_t first = coordinator.begin_incarnation(0);

  core::SnapshotMeta meta;
  meta.epoch = 1;
  meta.cursor = 100;
  core::CheckpointImage image;
  image.bytes = {1, 2, 3};
  EXPECT_TRUE(coordinator.commit(0, first, core::CheckpointImage{image},
                                 meta, {core::RttSample{}}));
  EXPECT_EQ(coordinator.committed_sample_count(0), 1U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);

  // Ownership moves to a successor; the old incarnation becomes a zombie.
  const std::uint64_t second = coordinator.begin_incarnation(0);
  ASSERT_NE(first, second);

  core::SnapshotMeta stale;
  stale.epoch = 2;
  stale.cursor = 999;
  core::CheckpointImage stale_image;
  stale_image.bytes = {9, 9, 9};
  EXPECT_FALSE(coordinator.commit(0, first,
                                  core::CheckpointImage{stale_image}, stale,
                                  {core::RttSample{}, core::RttSample{}}));
  EXPECT_FALSE(coordinator.commit_samples(0, first, {core::RttSample{}}));
  // Nothing the zombie sent landed.
  EXPECT_EQ(coordinator.committed_sample_count(0), 1U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);
  core::CheckpointImage latest;
  core::SnapshotMeta latest_meta;
  ASSERT_TRUE(coordinator.latest(0, &latest, &latest_meta));
  EXPECT_EQ(latest.bytes, image.bytes);
  EXPECT_EQ(latest_meta.cursor, 100U);

  // The rightful owner still commits fine, and an empty image commits
  // samples without replacing the stored checkpoint.
  EXPECT_TRUE(coordinator.commit_samples(0, second, {core::RttSample{}}));
  EXPECT_EQ(coordinator.committed_sample_count(0), 2U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);

  // Other shards are independent.
  EXPECT_EQ(coordinator.committed_sample_count(1), 0U);
  EXPECT_EQ(coordinator.begin_incarnation(1), 1U);
}

}  // namespace
}  // namespace dart
