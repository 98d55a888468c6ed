// Garbage-input hardening: every monitor must survive arbitrary packet
// streams — not just simulator output — without crashing or violating its
// invariants. A gateway vantage point sees scans, floods, corrupted
// headers, and protocol nonsense daily.
#include <gtest/gtest.h>

#include "baseline/dapper.hpp"
#include "baseline/strawman.hpp"
#include "baseline/tcptrace.hpp"
#include "core/dart_monitor.hpp"
#include "garbage_packets.hpp"
#include "quic/spin_bit.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

using test::garbage;

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Values(1u, 42u, 0xF00Du));

TEST_P(Fuzz, DartMonitorSurvivesAndKeepsInvariants) {
  const auto packets = garbage(GetParam(), 50000);
  core::DartConfig config;
  config.rt_size = 1 << 8;
  config.pt_size = 1 << 8;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.include_syn = true;  // widest surface
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = msec(500);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;

  std::uint64_t bad_samples = 0;
  core::DartMonitor dart(config, [&](const core::RttSample& sample) {
    if (sample.ack_ts <= sample.seq_ts) ++bad_samples;
  });
  dart.process_all(packets);

  EXPECT_EQ(bad_samples, 0U) << "RTT samples must be strictly positive";
  const core::DartStats& s = dart.stats();
  EXPECT_EQ(s.packets_processed, packets.size());
  EXPECT_LE(dart.packet_tracker().occupied(),
            dart.packet_tracker().capacity());
  EXPECT_LE(dart.range_tracker().occupied(), std::size_t{1} << 8);
  // recirculations also counts the per-packet dual-role recirculations of
  // LegMode::kBoth (Section 5); the eviction ledger excludes those.
  EXPECT_EQ(s.pt_evictions,
            (s.recirculations - s.dual_role_recirculations) +
                s.drops_budget + s.drops_cycle + s.drops_useless +
                s.drops_shadow);
}

TEST_P(Fuzz, UnboundedDartSurvives) {
  const auto packets = garbage(GetParam() ^ 0x111, 30000);
  core::DartMonitor dart(core::DartConfig{});
  dart.process_all(packets);
  EXPECT_EQ(dart.stats().packets_processed, packets.size());
}

TEST_P(Fuzz, BaselinesSurvive) {
  const auto packets = garbage(GetParam() ^ 0x222, 30000);

  baseline::TcpTraceConfig tt_config;
  baseline::TcpTrace tcptrace(tt_config);
  tcptrace.process_all(packets);
  EXPECT_EQ(tcptrace.stats().packets_processed, packets.size());

  baseline::StrawmanConfig sm_config;
  sm_config.table_size = 256;
  sm_config.entry_timeout = msec(100);
  baseline::Strawman strawman(sm_config);
  strawman.process_all(packets);

  baseline::DapperLike dapper(baseline::DapperConfig{});
  dapper.process_all(packets);

  quic::SpinBitMonitor spin;
  spin.process_all(packets);
  SUCCEED();
}

TEST_P(Fuzz, SamplesReferenceRealTimestamps) {
  // Any emitted sample's timestamps must be timestamps of actual packets.
  const auto packets = garbage(GetParam() ^ 0x333, 20000);
  std::set<Timestamp> known;
  for (const auto& p : packets) known.insert(p.ts);

  core::DartConfig config;
  config.rt_size = 1 << 10;
  config.pt_size = 1 << 10;
  core::DartMonitor dart(config, [&](const core::RttSample& sample) {
    EXPECT_TRUE(known.count(sample.seq_ts));
    EXPECT_TRUE(known.count(sample.ack_ts));
  });
  dart.process_all(packets);
}

TEST_P(Fuzz, ShardedDartSurvivesGarbage) {
  // The sharded runtime must shrug off the same garbage as the
  // single-threaded path: every packet processed exactly once across
  // shards, per-shard invariants intact, samples strictly positive.
  const auto packets = garbage(GetParam() ^ 0x444, 50000);
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

  runtime::ShardedConfig sharded_config;
  sharded_config.shards = 4;
  runtime::ShardedMonitor sharded(sharded_config, config);
  sharded.process_all(packets);
  sharded.finish();

  const core::DartStats s = sharded.merged_stats();
  EXPECT_EQ(s.packets_processed, packets.size());
  EXPECT_EQ(s.pt_evictions,
            (s.recirculations - s.dual_role_recirculations) +
                s.drops_budget + s.drops_cycle + s.drops_useless +
                s.drops_shadow);
  std::uint64_t bad_samples = 0;
  for (const core::RttSample& sample : sharded.merged_samples()) {
    if (sample.ack_ts <= sample.seq_ts) ++bad_samples;
  }
  EXPECT_EQ(bad_samples, 0U) << "RTT samples must be strictly positive";
}

TEST(FuzzDegenerate, ZeroLengthAndExtremeValues) {
  core::DartConfig config;
  config.rt_size = 1;  // single-slot tables
  config.pt_size = 1;
  core::DartMonitor dart(config);

  PacketRecord p;
  p.tuple = FourTuple{Ipv4Addr{0}, Ipv4Addr{0xFFFFFFFF}, 0, 65535};
  p.seq = 0xFFFFFFFF;
  p.payload = 65535;
  p.flags = 0xFF;  // every flag at once
  p.outbound = true;
  dart.process(p);
  p.outbound = false;
  p.ack = 0;
  dart.process(p);
  p.ts = ~Timestamp{0};  // end of time
  dart.process(p);
  SUCCEED();
}

}  // namespace
}  // namespace dart
