// Property tests for the batched hot path: however the packet stream is
// cut into batches — fixed widths, the ring-batch capacity, random
// mid-flow splits, interleaved scalar calls — the monitor's observable
// behaviour and end-state snapshot must be bit-identical to the scalar
// reference. Also covers the runtime hazards of batched handoff, each
// against a plain DartMonitor fed every shard's partition through
// process(): a batch split straddling a checkpoint epoch barrier, a
// forced-shed window (fault-injected worker kill), and the
// partial-final-batch flush at shutdown — the mirror of the MinFilter
// partial-tail bug class.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/packet_batch.hpp"
#include "garbage_packets.hpp"
#include "gen/workload.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/sharded_monitor.hpp"
#include "sharded_reference.hpp"

namespace dart {
namespace {

// Coherent garbage: seq/ack pair up per flow, so one packet's SEQ and ACK
// roles meet on shared RT/PT rows and any reordering of table touches
// between the batched and scalar paths shows in the output.
using test::garbage;
constexpr test::Garbage kCoherent = test::Garbage::kCoherent;

core::DartConfig stress_config() {
  core::DartConfig config;
  config.rt_size = 1 << 8;
  config.pt_size = 1 << 8;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.include_syn = true;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = msec(500);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;
  return config;
}

struct RunResult {
  std::vector<core::RttSample> samples;
  core::DartStats stats;
  core::CheckpointImage image;
};

// Run the stream cut into batches at the given boundaries (cumulative
// split points); an empty list means one process_batch over everything.
RunResult run_with_splits(const core::DartConfig& config,
                          std::span<const PacketRecord> packets,
                          const std::vector<std::size_t>& splits) {
  RunResult result;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    result.samples.push_back(sample);
  });
  std::size_t start = 0;
  for (const std::size_t split : splits) {
    monitor.process_batch(packets.subspan(start, split - start));
    start = split;
  }
  monitor.process_batch(packets.subspan(start));
  result.stats = monitor.stats();
  result.image = monitor.snapshot(core::SnapshotMeta{});
  return result;
}

RunResult run_scalar(const core::DartConfig& config,
                     std::span<const PacketRecord> packets) {
  RunResult result;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    result.samples.push_back(sample);
  });
  monitor.process_all(packets);
  result.stats = monitor.stats();
  result.image = monitor.snapshot(core::SnapshotMeta{});
  return result;
}

std::vector<std::size_t> fixed_width_splits(std::size_t count,
                                            std::size_t width) {
  std::vector<std::size_t> splits;
  for (std::size_t at = width; at < count; at += width) splits.push_back(at);
  return splits;
}

class BatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz,
                         ::testing::Values(1u, 42u, 0xF00Du));

TEST_P(BatchFuzz, FixedBatchWidthsNeverChangeOutput) {
  const auto packets = garbage(GetParam(), 30000, kCoherent);
  const RunResult reference = run_scalar(stress_config(), packets);
  // The stream must actually pair SEQs with ACKs, or equality is vacuous.
  EXPECT_GT(reference.samples.size(), packets.size() / 10);

  // 1 and 2 are the degenerate tiles; 7 never divides anything; 64 is the
  // shadow sync interval (tiles straddle shadow flushes); 256 is both the
  // PacketBatch tile and the runtime's ring-batch capacity; 1000 leaves a
  // ragged partial final tile.
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{64},
                                  core::PacketBatch::kCapacity,
                                  std::size_t{1000}}) {
    const RunResult batched = run_with_splits(
        stress_config(), packets, fixed_width_splits(packets.size(), width));
    EXPECT_EQ(reference.stats, batched.stats) << "width " << width;
    EXPECT_EQ(reference.samples, batched.samples) << "width " << width;
    EXPECT_EQ(reference.image.bytes, batched.image.bytes)
        << "width " << width << ": snapshots diverged";
  }
}

TEST_P(BatchFuzz, RandomMidFlowSplitsNeverChangeOutput) {
  const auto packets = garbage(GetParam() ^ 0xBA7C4, 30000, kCoherent);
  const RunResult reference = run_scalar(stress_config(), packets);

  Rng rng(GetParam() * 0x9E3779B9u + 7);
  for (int round = 0; round < 4; ++round) {
    // Random cut points: with a 16-host tuple pool, essentially every cut
    // lands mid-flow for many flows at once.
    std::vector<std::size_t> splits;
    std::size_t at = 0;
    while (at < packets.size()) {
      at += static_cast<std::size_t>(rng.uniform_int(1, 700));
      if (at >= packets.size()) break;
      splits.push_back(at);
    }
    const RunResult batched =
        run_with_splits(stress_config(), packets, splits);
    EXPECT_EQ(reference.stats, batched.stats) << "round " << round;
    EXPECT_EQ(reference.samples, batched.samples) << "round " << round;
    EXPECT_EQ(reference.image.bytes, batched.image.bytes)
        << "round " << round << ": snapshots diverged";
  }
}

TEST_P(BatchFuzz, InterleavedScalarAndBatchedCallsMatch) {
  const auto packets = garbage(GetParam() ^ 0x17E4, 20000, kCoherent);
  const RunResult reference = run_scalar(stress_config(), packets);

  RunResult mixed;
  core::DartMonitor monitor(stress_config(),
                            [&](const core::RttSample& sample) {
                              mixed.samples.push_back(sample);
                            });
  Rng rng(GetParam() + 99);
  std::size_t at = 0;
  while (at < packets.size()) {
    if (rng.bernoulli(0.3)) {
      monitor.process(packets[at]);
      ++at;
    } else {
      const std::size_t run_len = std::min(
          packets.size() - at,
          static_cast<std::size_t>(rng.uniform_int(1, 500)));
      monitor.process_batch(
          std::span<const PacketRecord>(packets).subspan(at, run_len));
      at += run_len;
    }
  }
  mixed.stats = monitor.stats();
  mixed.image = monitor.snapshot(core::SnapshotMeta{});

  EXPECT_EQ(reference.stats, mixed.stats);
  EXPECT_EQ(reference.samples, mixed.samples);
  EXPECT_EQ(reference.image.bytes, mixed.image.bytes);
}

// Regression for the partial-tail bug class: a final ring batch smaller
// than batch_size (router pending buffer drained at finish()) must be
// flushed into the workers, not dropped: every shard reproduces its whole
// partition's reference, packet counts included.
TEST_P(BatchFuzz, PartialFinalBatchIsFlushedNotDropped) {
  // 10007 is prime: never a multiple of any batch_size, so the run always
  // ends on a ragged partial batch.
  const auto packets = garbage(GetParam() ^ 0x9A11, 10007, kCoherent);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  runtime::ShardedConfig config;
  config.shards = 3;
  config.batch_size = 64;
  runtime::ShardedMonitor sharded(config, dart_config);
  sharded.process_all(packets);
  sharded.finish();

  EXPECT_EQ(sharded.merged_stats().packets_processed, packets.size())
      << "the partial final batch was not flushed";
  EXPECT_EQ(sharded.health().shed_packets, 0U);
  test::expect_matches_partitions(sharded, dart_config, packets);
}

// A batch split straddling a checkpoint epoch barrier: the runtime
// interleaves barrier markers between ring batches, so with a batch width
// that never divides the barrier interval, every epoch boundary lands
// mid-batch-stream. Barrier commits must neither perturb the monitors —
// each shard still equals its partition's reference, bounded tables
// included — nor be skipped: one cut per full interval of a shard's stream.
TEST_P(BatchFuzz, BarrierStraddlingBatchesMatchAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0xEB0C, 20000, kCoherent);

  core::DartConfig unbounded;
  unbounded.include_syn = true;
  unbounded.leg = core::LegMode::kBoth;

  for (const core::DartConfig& dart_config : {unbounded, stress_config()}) {
    SCOPED_TRACE(dart_config.rt_size == 0 ? "unbounded" : "bounded");
    runtime::ShardedConfig config;
    config.shards = 2;
    config.batch_size = 7;  // never divides the barrier interval
    config.checkpoint.interval_packets = 1000;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(packets);
    sharded.finish();

    std::uint64_t expected_cuts = 0;
    for (const auto& part : test::partition(packets, config)) {
      expected_cuts += part.size() / config.checkpoint.interval_packets;
    }
    EXPECT_GT(expected_cuts, 0U);
    EXPECT_EQ(sharded.checkpoints_cut(), expected_cuts);
    test::expect_matches_partitions(sharded, dart_config, packets);
  }
}

// A forced-shed window: kill one worker mid-run with no restart budget, so
// the router sheds the remainder of its shard's stream. The fault fires on
// the worker's batch clock, so the dead shard is exactly a reference fed
// its partition's first 3 batches, the healthy shard its whole partition,
// and the shed window is the rest of the dead shard's partition.
TEST_P(BatchFuzz, ForcedShedWindowMatchesAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0x5EED, 20000, kCoherent);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  runtime::FaultPlan faults;
  faults.kill(0, 3);  // shard 0 dies after exactly 3 batches
  runtime::ShardedConfig config;
  config.shards = 2;
  config.batch_size = 16;
  config.faults = &faults;
  runtime::ShardedMonitor sharded(config, dart_config);
  sharded.process_all(packets);
  sharded.finish();

  const auto parts = test::partition(packets, config);
  const std::size_t done = 3 * config.batch_size;
  ASSERT_GT(parts[0].size(), done);
  const core::RuntimeHealth health = sharded.health();
  EXPECT_EQ(health.workers_killed, 1U);
  EXPECT_EQ(health.shed_packets, parts[0].size() - done);
  EXPECT_EQ(health.lost_to_crash, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  test::expect_shard_matches(
      sharded, 0,
      test::scalar_reference(dart_config,
                             std::span(parts[0]).first(done)));
  test::expect_shard_matches(sharded, 1,
                             test::scalar_reference(dart_config, parts[1]));
}

}  // namespace
}  // namespace dart
