// Bin-in-place aggregation of the sharded runtime: each worker folds its
// samples into a private LogHistogram as they are emitted, and
// merged_histogram() sums those. The fold is order-independent and every
// shard shares the default layout, so the merged histogram must equal one
// folded from the retained, sorted sample stream — bins, count, min and
// max — across shard counts and table regimes, with every shard equal to
// its partition's plain-DartMonitor reference. Turning retention off must
// leave every log empty and the histogram unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analytics/histogram.hpp"
#include "gen/workload.hpp"
#include "sharded_reference.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

trace::Trace histogram_workload() {
  gen::CampusConfig config;
  config.seed = 0x4157;
  config.connections = 1500;
  config.duration = sec(4);
  return gen::build_campus(config);
}

core::DartConfig unbounded_config() {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  return config;
}

// Small shared tables: heavy collisions and eviction, so each shard's
// sample stream depends on what else hashed there — the regime where the
// sharded run no longer equals a single monitor, but must still equal
// itself folded either way.
core::DartConfig bounded_config() {
  core::DartConfig config = unbounded_config();
  config.rt_size = 1 << 9;
  config.pt_size = 1 << 9;
  config.pt_stages = 2;
  config.max_recirculations = 4;
  return config;
}

struct Case {
  const char* name;
  core::DartConfig dart;
};

TEST(ShardedHistogram, MergedHistogramEqualsFoldOfMergedSamples) {
  const trace::Trace trace = histogram_workload();
  const Case cases[] = {{"unbounded", unbounded_config()},
                        {"bounded", bounded_config()}};
  for (const Case& c : cases) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(c.name);
      SCOPED_TRACE(shards);
      runtime::ShardedConfig config;
      config.shards = shards;

      runtime::ShardedMonitor retained(config, c.dart);
      retained.process_all(trace.packets());
      retained.finish();
      test::expect_matches_partitions(retained, c.dart, trace.packets());
      const std::vector<core::RttSample> samples = retained.merged_samples();
      ASSERT_GT(samples.size(), 0U);
      const analytics::LogHistogram hist = retained.merged_histogram();
      test::expect_same_histogram(hist, test::fold(samples));
      EXPECT_EQ(hist.count(), retained.merged_stats().samples);

      config.retain_samples = false;
      runtime::ShardedMonitor binned(config, c.dart);
      binned.process_all(trace.packets());
      binned.finish();
      for (std::uint32_t i = 0; i < binned.shards(); ++i) {
        EXPECT_TRUE(binned.shard_samples(i).empty());
      }
      EXPECT_TRUE(binned.merged_samples().empty());
      test::expect_same_histogram(binned.merged_histogram(), hist);
      EXPECT_EQ(binned.merged_stats().samples,
                retained.merged_stats().samples);
    }
  }
}

TEST(ShardedHistogram, CheckpointedRunBinsWithoutRetainingSamples) {
  // Barrier commits carry histogram deltas, so a checkpointed run without
  // retained samples still bins every sample exactly once — and keeps no
  // RttSample anywhere, committed or not.
  const trace::Trace trace = histogram_workload();
  const Case cases[] = {{"unbounded", unbounded_config()},
                        {"bounded", bounded_config()}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    runtime::ShardedConfig config;
    config.shards = 4;
    config.retain_samples = false;
    runtime::ShardedMonitor plain(config, c.dart);
    plain.process_all(trace.packets());
    plain.finish();

    config.checkpoint.interval_packets = 1000;
    runtime::ShardedMonitor checkpointed(config, c.dart);
    checkpointed.process_all(trace.packets());
    checkpointed.finish();
    ASSERT_GT(checkpointed.checkpoints_cut(), 0U);
    for (std::uint32_t i = 0; i < checkpointed.shards(); ++i) {
      EXPECT_TRUE(checkpointed.shard_samples(i).empty());
    }
    const analytics::LogHistogram hist = checkpointed.merged_histogram();
    ASSERT_GT(hist.count(), 0U);
    test::expect_same_histogram(hist, plain.merged_histogram());
    EXPECT_EQ(hist.count(), checkpointed.merged_stats().samples);
  }
}

TEST(ShardedHistogram, EmptyStreamMergesToEmptyHistogram) {
  runtime::ShardedConfig config;
  config.shards = 4;
  config.retain_samples = false;
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  sharded.finish();
  const analytics::LogHistogram hist = sharded.merged_histogram();
  EXPECT_EQ(hist.count(), 0U);
  EXPECT_TRUE(hist.same_layout(analytics::LogHistogram{}));
}

}  // namespace
}  // namespace dart
