// Property tests for the batched hot path: however the packet stream is
// cut into batches — fixed widths, the ring-batch capacity, random
// mid-flow splits, interleaved scalar calls — the monitor's observable
// behaviour and end-state snapshot must be bit-identical to the scalar
// reference. Also covers the two runtime hazards the batching refactor
// could have introduced: a batch split straddling a checkpoint epoch
// barrier (supervised runtime), a forced-shed window (fault-injected
// worker kill), and the partial-final-batch flush at shutdown — the
// mirror of the MinFilter partial-tail bug class fixed in PR 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/packet_batch.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

namespace dart {
namespace {

// The fuzz_test generator's distribution: uniformly random packets over a
// tiny tuple pool so table collisions, retransmission edges, duplicate
// ACKs, and wraparounds all fire constantly.
std::vector<PacketRecord> garbage(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<PacketRecord> packets;
  packets.reserve(count);
  Timestamp ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    PacketRecord p;
    ts += rng.uniform_int(0, 100000);
    p.ts = ts;
    p.tuple.src_ip = Ipv4Addr{static_cast<std::uint32_t>(
        rng.uniform_int(0, 15) | 0x0A080000)};
    p.tuple.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(
        rng.uniform_int(0, 15) | 0x17340000)};
    p.tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    p.tuple.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    p.seq = static_cast<SeqNum>(rng.next_u64());
    p.ack = static_cast<SeqNum>(rng.next_u64());
    p.payload = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    p.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    p.outbound = rng.bernoulli(0.5);
    packets.push_back(p);
  }
  return packets;
}

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
  // Garbage streams rarely produce RTT samples (random 64-bit seq/ack
  // almost never pair up) — the property under test is end-state and
  // sample-stream *equality*, not sample yield; the differential suite's
  // realistic workloads cover yield.
  const auto packets = garbage(GetParam(), 30000);
  const RunResult reference = run_scalar(stress_config(), packets);

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
  const auto packets = garbage(GetParam() ^ 0xBA7C4, 30000);
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
  const auto packets = garbage(GetParam() ^ 0x17E4, 20000);
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
// flushed into the workers, not dropped. With per-flow state the merged
// run must reproduce the single-monitor reference exactly, packet counts
// included.
TEST_P(BatchFuzz, PartialFinalBatchIsFlushedNotDropped) {
  // 10007 is prime: never a multiple of any batch_size, so the run always
  // ends on a ragged partial batch.
  const auto packets = garbage(GetParam() ^ 0x9A11, 10007);

  core::DartConfig dart_config;  // unbounded: exact equivalence
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  std::vector<core::RttSample> reference;
  core::DartMonitor single(dart_config, [&](const core::RttSample& sample) {
    reference.push_back(sample);
  });
  single.process_all(packets);
  runtime::deterministic_order(reference);

  for (const bool batched_workers : {false, true}) {
    runtime::ShardedConfig config;
    config.shards = 3;
    config.batch_size = 64;
    config.batched_workers = batched_workers;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(packets);
    sharded.finish();

    EXPECT_EQ(sharded.merged_stats().packets_processed, packets.size())
        << "batched_workers=" << batched_workers
        << ": the partial final batch was not flushed";
    EXPECT_EQ(sharded.health().shed_packets, 0U);
    EXPECT_EQ(sharded.merged_samples(), reference)
        << "batched_workers=" << batched_workers;
  }
}

// A batch split straddling a checkpoint epoch barrier: the supervised
// runtime interleaves barrier markers between ring batches, so with a
// batch width that never divides the barrier interval, every epoch
// boundary lands mid-batch-stream. Both worker modes must commit the same
// checkpoints and produce identical merged results.
TEST_P(BatchFuzz, BarrierStraddlingBatchesMatchAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0xEB0C, 20000);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  const auto run_supervised = [&](bool batched_workers) {
    runtime::ShardedConfig config;
    config.shards = 2;
    config.batch_size = 7;  // never divides the barrier interval
    config.checkpoint.interval_packets = 1000;
    config.batched_workers = batched_workers;
    runtime::ShardedMonitor supervisor(config, dart_config);
    supervisor.process_all(packets);
    supervisor.finish();
    return std::tuple(supervisor.merged_stats(), supervisor.merged_samples(),
                      supervisor.checkpoints_cut());
  };

  const auto [scalar_stats, scalar_samples, scalar_ckpts] =
      run_supervised(false);
  const auto [batched_stats, batched_samples, batched_ckpts] =
      run_supervised(true);

  EXPECT_GT(scalar_ckpts, 0U);
  EXPECT_EQ(scalar_ckpts, batched_ckpts);
  // RuntimeHealth carries wall-clock backpressure counters that may differ
  // between any two runs; compare its deterministic fields explicitly and
  // mask it out of the full-struct comparison.
  EXPECT_EQ(scalar_stats.runtime.shed_packets,
            batched_stats.runtime.shed_packets);
  EXPECT_EQ(scalar_stats.runtime.abandoned_packets,
            batched_stats.runtime.abandoned_packets);
  EXPECT_EQ(scalar_stats.runtime.lost_to_crash,
            batched_stats.runtime.lost_to_crash);
  core::DartStats scalar_masked = scalar_stats;
  core::DartStats batched_masked = batched_stats;
  scalar_masked.runtime = core::RuntimeHealth{};
  batched_masked.runtime = core::RuntimeHealth{};
  EXPECT_EQ(scalar_masked, batched_masked);
  EXPECT_EQ(scalar_samples, batched_samples);
}

#if defined(DART_FAULT_INJECTION)
// A forced-shed window: kill one worker mid-run so the router sheds the
// remainder of its shard's stream. The packets processed before the kill
// are a deterministic prefix (the fault fires on the worker's batch
// clock), so both worker modes must agree on every processed-side result
// and on the shed totals; only wall-clock noise (backpressure counters)
// may differ.
TEST_P(BatchFuzz, ForcedShedWindowMatchesAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0x5EED, 20000);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  const auto run_with_kill = [&](bool batched_workers) {
    runtime::FaultPlan faults;
    faults.kill(0, 3);  // shard 0 dies after exactly 3 batches
    runtime::ShardedConfig config;
    config.shards = 2;
    config.batch_size = 16;
    config.batched_workers = batched_workers;
    config.faults = &faults;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(packets);
    sharded.finish();
    return std::tuple(sharded.merged_stats(), sharded.merged_samples());
  };

  const auto [scalar_stats, scalar_samples] = run_with_kill(false);
  const auto [batched_stats, batched_samples] = run_with_kill(true);

  // The shed window is real in both runs...
  EXPECT_GT(scalar_stats.runtime.shed_packets, 0U);
  // ...identically sized (routed and processed prefixes are deterministic,
  // and shed absorbs exactly the rest)...
  EXPECT_EQ(scalar_stats.runtime.shed_packets,
            batched_stats.runtime.shed_packets);
  EXPECT_EQ(scalar_stats.packets_processed, batched_stats.packets_processed);
  // ...and the monitor-side results are identical once the wall-clock
  // backpressure noise is masked out.
  core::DartStats scalar_masked = scalar_stats;
  core::DartStats batched_masked = batched_stats;
  scalar_masked.runtime = core::RuntimeHealth{};
  batched_masked.runtime = core::RuntimeHealth{};
  EXPECT_EQ(scalar_masked, batched_masked);
  EXPECT_EQ(scalar_samples, batched_samples);
}
#endif  // DART_FAULT_INJECTION

}  // namespace
}  // namespace dart
