// Reference results the sharded runtime's tests compare against. The main
// one is serial and per partition: ShardedMonitor routes every packet with
// ShardRouter and each worker feeds its shard's monitor in arrival order, so
// shard i of a loss-free run must equal a plain DartMonitor fed partition i
// one process() call at a time — bounded tables included, since the
// partition fixes every collision the shard can see.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "analytics/histogram.hpp"
#include "core/dart_monitor.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart::test {

/// The packets `config`'s router sends to each shard, in arrival order.
inline std::vector<std::vector<PacketRecord>> partition(
    std::span<const PacketRecord> packets,
    const runtime::ShardedConfig& config) {
  const runtime::ShardRouter router(config.shards, config.route_seed);
  std::vector<std::vector<PacketRecord>> parts(router.shards());
  for (const PacketRecord& packet : packets) {
    parts[router.route(packet.tuple)].push_back(packet);
  }
  return parts;
}

struct ShardReference {
  core::DartStats stats;
  std::vector<core::RttSample> samples;  ///< emission order
};

/// A plain DartMonitor fed `packets` one process() call at a time.
inline ShardReference scalar_reference(const core::DartConfig& config,
                                       std::span<const PacketRecord> packets) {
  ShardReference ref;
  core::DartMonitor monitor(config, [&ref](const core::RttSample& sample) {
    ref.samples.push_back(sample);
  });
  for (const PacketRecord& packet : packets) monitor.process(packet);
  ref.stats = monitor.stats();
  return ref;
}

/// scalar_reference() with its samples in merged_samples()'s canonical
/// order: what a whole sharded run equals when all monitor state is
/// per-flow (unbounded tables).
inline ShardReference single_monitor_reference(
    const core::DartConfig& config, std::span<const PacketRecord> packets) {
  ShardReference ref = scalar_reference(config, packets);
  runtime::deterministic_order(ref.samples);
  return ref;
}

/// `stats` without its RuntimeHealth, which carries wall-clock backpressure
/// counters; callers pin the loss terms themselves.
inline core::DartStats monitor_counters(core::DartStats stats) {
  stats.runtime = core::RuntimeHealth{};
  return stats;
}

/// Shard `shard` of a finished run equals `want`: monitor counters, and
/// retained samples in emission order.
inline void expect_shard_matches(const runtime::ShardedMonitor& sharded,
                                 std::uint32_t shard,
                                 const ShardReference& want) {
  EXPECT_EQ(monitor_counters(sharded.shard_stats(shard)), want.stats)
      << "shard " << shard << ": stats diverged";
  EXPECT_EQ(sharded.shard_samples(shard).samples(), want.samples)
      << "shard " << shard << ": sample stream diverged";
}

/// Every shard of a finished, loss-free run equals its partition's
/// reference.
inline void expect_matches_partitions(const runtime::ShardedMonitor& sharded,
                                      const core::DartConfig& config,
                                      std::span<const PacketRecord> packets) {
  const auto parts = partition(packets, sharded.config());
  for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
    expect_shard_matches(sharded, i, scalar_reference(config, parts[i]));
  }
}

/// The default-layout histogram of `samples`, as a worker bins them.
inline analytics::LogHistogram fold(
    const std::vector<core::RttSample>& samples) {
  analytics::LogHistogram hist;
  for (const core::RttSample& sample : samples) hist.add(sample.rtt());
  return hist;
}

inline void expect_same_histogram(const analytics::LogHistogram& got,
                                  const analytics::LogHistogram& want) {
  EXPECT_TRUE(got.same_layout(want));
  EXPECT_EQ(got.bins(), want.bins());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

}  // namespace dart::test
