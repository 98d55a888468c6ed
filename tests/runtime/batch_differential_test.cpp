// Differential proof that the batched SoA hot path is observably identical
// to the scalar per-packet path. This is the safety net under the repo's
// most correctness-critical loop: every scenario runs the same stream
// through DartMonitor::process_all (scalar reference) and
// DartMonitor::process_batch, and asserts byte-identical checkpoint
// snapshots (config, stats, RT, PT, shadow — the complete monitor state),
// identical sample streams *in emission order*, identical collapse /
// optimistic-ACK event streams, and — through the sharded runtime, whose
// workers run process_batch — per-shard results and the deterministic
// telemetry export identical to a plain DartMonitor fed each shard's
// partition one packet at a time.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "sharded_reference.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart {
namespace {

struct Scenario {
  const char* name;
  gen::CampusConfig campus;
};

gen::CampusConfig base_campus() {
  gen::CampusConfig config;
  config.seed = 0xDA27'0006;
  config.connections = 3000;
  config.duration = sec(5);
  return config;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;

  Scenario handshake{"handshake", base_campus()};
  handshake.campus.incomplete_fraction = 0.9;
  all.push_back(handshake);

  Scenario reorder{"reorder", base_campus()};
  reorder.campus.reorder_prob = 0.05;
  all.push_back(reorder);

  Scenario retransmit{"retransmit", base_campus()};
  retransmit.campus.loss_rate = 0.05;
  all.push_back(retransmit);

  Scenario wireless{"wireless-jitter", base_campus()};
  wireless.campus.wireless_fraction = 0.95;
  wireless.campus.wireless_internal_sigma = 2.2;
  wireless.campus.per_packet_jitter_sigma = 0.3;
  all.push_back(wireless);

  return all;
}

// The bounded config exercises every state machine the batch path touches:
// collisions in both tables, recirculation, shadow RT, idle timeout.
core::DartConfig bounded_config() {
  core::DartConfig config;
  config.rt_size = 1 << 10;
  config.pt_size = 1 << 10;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;
  return config;
}

core::DartConfig unbounded_config() {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  return config;
}

// Full observable trace of one monitor run: everything a caller could have
// seen, plus the complete end-state image.
struct RunTrace {
  std::vector<core::RttSample> samples;
  std::vector<core::CollapseEvent> collapses;
  std::vector<core::OptimisticAckEvent> optimistics;
  core::DartStats stats;
  core::CheckpointImage image;
};

enum class Path { kScalar, kBatched };

RunTrace run(const core::DartConfig& config,
             const std::vector<PacketRecord>& packets, Path path) {
  RunTrace trace;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    trace.samples.push_back(sample);
  });
  monitor.set_collapse_callback([&](const core::CollapseEvent& event) {
    trace.collapses.push_back(event);
  });
  monitor.set_optimistic_ack_callback(
      [&](const core::OptimisticAckEvent& event) {
        trace.optimistics.push_back(event);
      });
  if (path == Path::kScalar) {
    monitor.process_all(packets);
  } else {
    monitor.process_batch(packets);
  }
  trace.stats = monitor.stats();
  trace.image = monitor.snapshot(core::SnapshotMeta{});
  return trace;
}

void expect_identical(const RunTrace& scalar, const RunTrace& batched,
                      const std::string& label) {
  EXPECT_EQ(scalar.stats, batched.stats) << label << ": stats diverged";
  EXPECT_EQ(scalar.samples, batched.samples)
      << label << ": sample stream diverged";
  EXPECT_EQ(scalar.collapses, batched.collapses)
      << label << ": collapse events diverged";
  EXPECT_EQ(scalar.optimistics, batched.optimistics)
      << label << ": optimistic-ACK events diverged";
  EXPECT_EQ(scalar.image.bytes, batched.image.bytes)
      << label << ": end-state snapshots are not byte-identical";
}

TEST(BatchDifferential, BoundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar = run(bounded_config(), trace.packets(), Path::kScalar);
    const auto batched =
        run(bounded_config(), trace.packets(), Path::kBatched);
    ASSERT_GT(scalar.samples.size(), 0U)
        << scenario.name << ": scenario produced no samples to compare";
    expect_identical(scalar, batched, scenario.name);
  }
}

TEST(BatchDifferential, UnboundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar =
        run(unbounded_config(), trace.packets(), Path::kScalar);
    const auto batched =
        run(unbounded_config(), trace.packets(), Path::kBatched);
    expect_identical(scalar, batched, scenario.name);
  }
}

TEST(BatchDifferential, SingleLegModesMatchScalar) {
  const auto trace = gen::build_campus(base_campus());
  for (const core::LegMode leg :
       {core::LegMode::kExternal, core::LegMode::kInternal}) {
    core::DartConfig config = bounded_config();
    config.leg = leg;
    const auto scalar = run(config, trace.packets(), Path::kScalar);
    const auto batched = run(config, trace.packets(), Path::kBatched);
    expect_identical(scalar, batched,
                     leg == core::LegMode::kExternal ? "external" : "internal");
  }
}

TEST(BatchDifferential, SynInclusionMatchesScalar) {
  const auto trace = gen::build_campus(base_campus());
  core::DartConfig config = bounded_config();
  config.include_syn = true;
  const auto scalar = run(config, trace.packets(), Path::kScalar);
  const auto batched = run(config, trace.packets(), Path::kBatched);
  expect_identical(scalar, batched, "+SYN");
}

// Each shard of the sharded runtime equals a plain DartMonitor fed its
// partition through process(), in every scenario and both table regimes,
// for a ring batch that divides the checkpoint interval and one that never
// does, with and without barrier commits in the stream.
TEST(BatchDifferential, ShardedWorkerModesAgreePerShard) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    for (const bool bounded : {false, true}) {
      const core::DartConfig dart_config =
          bounded ? bounded_config() : unbounded_config();
      for (const auto& [batch_size, interval] :
           {std::pair<std::size_t, std::uint64_t>{256, 0},
            std::pair<std::size_t, std::uint64_t>{256, 1024},
            std::pair<std::size_t, std::uint64_t>{7, 1024}}) {
        SCOPED_TRACE(::testing::Message()
                     << scenario.name << " bounded=" << bounded
                     << " batch=" << batch_size << " interval=" << interval);
        runtime::ShardedConfig config;
        config.shards = 4;
        config.batch_size = batch_size;
        config.checkpoint.interval_packets = interval;
        runtime::ShardedMonitor sharded(config, dart_config);
        sharded.process_all(trace.packets());
        sharded.finish();
        EXPECT_EQ(sharded.checkpoints_cut() > 0, interval != 0);
        test::expect_matches_partitions(sharded, dart_config,
                                        trace.packets());
      }
    }
  }
}

// Deterministic-tier telemetry is folded from the settled per-shard results
// at quiesce time, so the exported text must be byte-identical to a
// registry folded from the per-partition reference counters.
TEST(BatchDifferential, DeterministicTelemetryExportIsIdentical) {
  const auto trace = gen::build_campus(base_campus());
  telemetry::SnapshotOptions options;
  options.deterministic_only = true;

  telemetry::Registry registry(4);
  telemetry::RuntimeMetrics metrics(registry);
  runtime::ShardedConfig config;
  config.shards = 4;
  config.telemetry = &metrics;
  runtime::ShardedMonitor sharded(config, bounded_config());
  sharded.process_all(trace.packets());
  sharded.finish();
  const std::string sharded_text =
      telemetry::to_prometheus(registry.snapshot(options));

  telemetry::Registry ref_registry(4);
  telemetry::RuntimeMetrics ref_metrics(ref_registry);
  const auto parts = test::partition(trace.packets(), config);
  for (std::uint32_t i = 0; i < parts.size(); ++i) {
    ref_metrics.fold_authoritative(
        i, parts[i].size(),
        test::scalar_reference(bounded_config(), parts[i]).stats);
  }
  const std::string reference_text =
      telemetry::to_prometheus(ref_registry.snapshot(options));

  EXPECT_FALSE(reference_text.empty());
  EXPECT_EQ(sharded_text, reference_text);
}

// The live tier's batch_fill histogram is the batching observability hook:
// it must record one observation per dequeued ring batch in either mode.
TEST(BatchDifferential, BatchFillHistogramRecordsEveryBatch) {
  const auto trace = gen::build_campus(base_campus());
  telemetry::Registry registry(2);
  telemetry::RuntimeMetrics metrics(registry);
  runtime::ShardedConfig config;
  config.shards = 2;
  config.telemetry = &metrics;
  runtime::ShardedMonitor sharded(config, unbounded_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  std::uint64_t batches = 0;
  for (std::size_t i = 0; i < metrics.worker_batches->slots(); ++i) {
    batches += metrics.worker_batches->at(i).value();
  }
  EXPECT_GT(batches, 0U);
  EXPECT_EQ(metrics.batch_fill->fold_all().count(), batches);
}

}  // namespace
}  // namespace dart
