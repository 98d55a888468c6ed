#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/sample_log.hpp"
#include "bench.hpp"
#include "common/hashing.hpp"
#include "core/config_check.hpp"
#include "core/dart_monitor.hpp"
#include "core/packet_batch.hpp"
#include "core/packet_tracker.hpp"
#include "core/range_tracker.hpp"
#include "placement.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime/spsc_ring.hpp"
#include "spans.hpp"
#include "telemetry/export.hpp"
#include "trace/trace_io.hpp"

namespace dartbench {

namespace core = dart::core;
namespace runtime = dart::runtime;
using dart::PacketRecord;

namespace {

// Keeps probe results observable so no loop is optimised away.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kTile = core::PacketBatch::kCapacity;
constexpr std::uint64_t kQueryCalls = 20'000;
constexpr std::uint64_t kScrapeCalls = 200;

template <typename Fn>
void for_tiles(const std::vector<PacketRecord>& packets, Fn&& fn) {
  for (std::size_t at = 0; at < packets.size(); at += kTile) {
    fn(std::span<const PacketRecord>(packets).subspan(
        at, std::min(kTile, packets.size() - at)));
  }
}

/// runtime: ShardRouter::route over the input; returns shard 0's partition.
std::vector<PacketRecord> probe_route(const std::vector<PacketRecord>& packets,
                                      std::uint32_t shards) {
  const runtime::ShardRouter router(shards, runtime::ShardedConfig{}.route_seed);
  std::vector<std::uint32_t> owner(packets.size());
  {
    SpanScope span("runtime.route");
    for (std::size_t i = 0; i < packets.size(); ++i) {
      owner[i] = router.route(packets[i].tuple);
    }
    span.add(packets.size());
  }
  std::vector<PacketRecord> shard0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (owner[i] == 0) shard0.push_back(packets[i]);
  }
  return shard0;
}

/// runtime: SpscRing try_push/try_pop of 256-record batches, router-style
/// (a fresh vector per batch) on this thread, one consumer thread.
void probe_ring(const std::vector<PacketRecord>& packets) {
  using Batch = std::vector<PacketRecord>;
  runtime::SpscRing<Batch> ring(runtime::ShardedConfig{}.queue_batches);
  const std::size_t batches = packets.size() / kTile;
  SpanScope span("runtime.ring");
  std::jthread consumer([&ring, batches] {
    pin_thread(0, worker_cpu(0));
    Batch batch;
    std::uint64_t seen = 0;
    for (std::size_t got = 0; got < batches;) {
      if (ring.try_pop(batch)) {
        seen += batch.size();
        batch.clear();
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
    g_sink = g_sink + seen;
  });
  for (std::size_t b = 0; b < batches; ++b) {
    const auto first = packets.begin() + static_cast<std::ptrdiff_t>(b * kTile);
    Batch batch(first, first + static_cast<std::ptrdiff_t>(kTile));
    while (!ring.try_push(std::move(batch))) std::this_thread::yield();
  }
  consumer.join();
  span.add(batches);
}

/// core: PacketBatch::build decode, then RangeTracker and PacketTracker
/// driven by the decoded lanes exactly as DartMonitor dispatches them.
void probe_tables(const std::vector<PacketRecord>& packets,
                  const core::DartConfig& config) {
  auto batch = std::make_unique<core::PacketBatch>();
  {
    SpanScope span("core.batch_decode");
    for_tiles(packets, [&](std::span<const PacketRecord> tile) {
      batch->build(tile, config.leg, config.include_syn);
      g_sink = g_sink + batch->roles[0];
    });
    span.add(packets.size());
  }

  // Decoded lanes for the whole partition, outside any span.
  struct Lane {
    std::uint8_t roles;
    std::uint64_t seq_hash;
    std::uint64_t ack_hash;
    dart::SeqNum eack;
  };
  std::vector<Lane> lanes;
  lanes.reserve(packets.size());
  for_tiles(packets, [&](std::span<const PacketRecord> tile) {
    batch->build(tile, config.leg, config.include_syn);
    for (std::size_t i = 0; i < batch->size; ++i) {
      lanes.push_back({batch->roles[i], batch->seq_hash[i], batch->ack_hash[i],
                       batch->eack[i]});
    }
  });

  core::RangeTracker rt(config.rt_size, config.hash_seed,
                        config.wraparound_reset, config.rt_idle_timeout);
  std::vector<std::uint8_t> track(packets.size());
  std::vector<std::uint8_t> advance(packets.size());
  {
    SpanScope span("core.rt");
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const PacketRecord& p = packets[i];
      const Lane& lane = lanes[i];
      if ((lane.roles & core::batch_role::kSeqAny) != 0) {
        track[i] = rt.on_seq_hashed(lane.seq_hash, p.seq, lane.eack, p.ts).track;
        ++ops;
      }
      if ((lane.roles & core::batch_role::kAckAny) != 0) {
        advance[i] = rt.on_ack_hashed(lane.ack_hash, p.ack,
                                      !p.carries_data(), p.ts) ==
                     core::AckDecision::kAdvance;
        ++ops;
      }
    }
    span.add(ops);
  }

  // Seeded as DartMonitor seeds its tracker.
  core::PacketTracker pt(config.pt_size, config.pt_stages, config.policy,
                         dart::mix64(config.hash_seed ^ 0x9e3779b97f4a7c15ULL));
  {
    SpanScope span("core.pt");
    std::uint64_t ops = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const Lane& lane = lanes[i];
      if (track[i] != 0) {
        core::PacketTracker::Record record;
        record.flow_sig = dart::fold_signature(lane.seq_hash);
        record.eack = lane.eack;
        record.ts = packets[i].ts;
        record.rt_ref = rt.ref_of_hashed(lane.seq_hash);
        pt.insert(record);
        ++ops;
      }
      if (advance[i] != 0) {
        hits += pt.lookup_erase(dart::fold_signature(lane.ack_hash),
                                packets[i].ack)
                    .has_value();
        ++ops;
      }
    }
    g_sink = g_sink + hits;
    span.add(ops);
  }
}

/// core: DartMonitor::process_batch single-threaded over one partition.
void probe_process_batch(const std::vector<PacketRecord>& packets,
                         const core::DartConfig& config) {
  std::uint64_t samples = 0;
  core::DartMonitor monitor(config,
                            [&samples](const core::RttSample&) { ++samples; });
  {
    SpanScope span("core.process_batch");
    for_tiles(packets, [&](std::span<const PacketRecord> tile) {
      monitor.process_batch(tile);
    });
    span.add(packets.size());
  }
  g_sink = g_sink + samples;
}

/// runtime/analytics: the sharded composition run_cycle drives, unrolled
/// so finish, merged_samples and the histogram fold can each be timed, and
/// the per-shard monitors and counters inspected at drain.
void probe_sharded(const std::vector<PacketRecord>& packets,
                   const Workload& workload,
                   std::map<std::string, double>& out) {
  const dart::daemon::DaemonConfig& daemon_config = workload.config;
  dart::telemetry::Registry registry(daemon_config.shards);
  dart::telemetry::RuntimeMetrics metrics(registry);
  runtime::ShardedConfig config;
  config.shards = daemon_config.shards;
  config.epoch_interval_packets = daemon_config.epoch_interval;
  config.on_epoch = [](std::uint64_t, std::uint64_t) {};
  config.telemetry = &metrics;
  const core::DartConfig dart = core::ensure_feasible(daemon_config.dart);
  std::vector<const core::DartMonitor*> monitors;
  const std::vector<int> known = thread_ids();
  runtime::ShardedMonitor sharded(
      config, [&](std::uint32_t, core::SampleCallback on_sample) {
        auto m = std::make_unique<runtime::DartReplayMonitor>(
            dart, std::move(on_sample));
        monitors.push_back(&m->monitor());
        return m;
      });

  // Router time inside process_all is timed in the traced cycles, where it
  // runs inside dartd's own loop; here it only feeds the drain below.
  pin_new_threads_as_workers(known);
  const std::uint64_t ingest_start = now_ns();
  sharded.process_all(packets);
  {
    SpanScope span("runtime.finish");
    sharded.finish();
  }
  const double ingest_ns = static_cast<double>(now_ns() - ingest_start);
  std::vector<core::RttSample> merged;
  {
    SpanScope span("runtime.merge");
    merged = sharded.merged_samples();
    span.add(merged.size());
  }
  {
    dart::analytics::LogHistogram hist;
    SpanScope span("analytics.hist_fold");
    for (const core::RttSample& sample : merged) hist.add(sample.rtt());
    span.add(merged.size());
    g_sink = g_sink + hist.count();
  }
  {
    dart::analytics::SampleLog log;
    SpanScope span("analytics.sample_append");
    for (const core::RttSample& sample : merged) log.append(sample);
    span.add(merged.size());
    g_sink = g_sink + log.size();
  }

  double sample_bytes = 0;
  double rt_entries = 0;
  double pt_entries = 0;
  for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
    sample_bytes += static_cast<double>(
        sharded.shard_samples(i).samples().capacity() *
        sizeof(core::RttSample));
    rt_entries += static_cast<double>(monitors[i]->range_tracker().occupied());
    pt_entries += static_cast<double>(monitors[i]->packet_tracker().occupied());
  }
  const core::DartStats stats = sharded.merged_stats();
  const core::RuntimeHealth health = sharded.health();
  const auto per_kpkt = [&stats](std::uint64_t n) {
    return stats.packets_processed == 0
               ? 0.0
               : 1000.0 * static_cast<double>(n) /
                     static_cast<double>(stats.packets_processed);
  };
  const double batches =
      static_cast<double>(metrics.worker_batches->total());
  const dart::analytics::LogHistogram busy = metrics.batch_latency->fold_all();
  double busy_ns = 0;
  for (std::size_t b = 0; b < busy.bins().size(); ++b) {
    busy_ns += static_cast<double>(busy.bins()[b]) * busy.bin_value(b);
  }
  const double lookups =
      static_cast<double>(stats.pt_lookup_hits + stats.pt_lookup_misses);

  out["runtime.backpressure_per_kbatch"] =
      batches == 0 ? 0.0
                   : 1000.0 * static_cast<double>(health.backpressure_events) /
                         batches;
  out["runtime.worker_busy_ratio"] =
      busy_ns / (ingest_ns * static_cast<double>(sharded.shards()));
  out["core.recirc_per_kpkt"] = per_kpkt(stats.recirculations);
  out["core.pt_evictions_per_kpkt"] = per_kpkt(stats.pt_evictions);
  out["core.rt_overwrites_per_kpkt"] = per_kpkt(stats.rt_flow_overwrites);
  out["core.pt_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(stats.pt_lookup_hits) / lookups;
  out["core.rt_entries"] = rt_entries;
  out["core.pt_entries"] = pt_entries;
  out["analytics.sample_bytes"] = sample_bytes;
}

/// trace: decode_packet_record over the wire bytes of the input.
void probe_decode(const std::vector<PacketRecord>& packets) {
  std::vector<std::uint8_t> wire(packets.size() *
                                 dart::trace::kPacketRecordBytes);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    dart::trace::encode_packet_record(packets[i], wire.data() + i * dart::trace::kPacketRecordBytes);
  }
  std::uint64_t valid = 0;
  SpanScope span("trace.decode");
  PacketRecord packet;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    valid += dart::trace::decode_packet_record(wire.data() + i * dart::trace::kPacketRecordBytes, packet);
  }
  span.add(packets.size());
  g_sink = g_sink + valid + packet.seq;
}

/// daemon/telemetry: the query side of a drained daemon.
void probe_queries(Daemon& d) {
  {
    SpanScope span("daemon.epoch_report");
    for (std::uint64_t i = 0; i < kQueryCalls; ++i) {
      g_sink = g_sink + d.runner.epoch_report().size();
    }
    span.add(kQueryCalls);
  }
  {
    SpanScope span("daemon.status");
    for (std::uint64_t i = 0; i < kQueryCalls; ++i) {
      g_sink = g_sink + d.runner.status().routed;
    }
    span.add(kQueryCalls);
  }
  for (std::uint64_t i = 0; i < kQueryCalls; ++i) {
    g_sink = g_sink + d.handle("/epoch").size();
  }
  {
    SpanScope span("telemetry.scrape");
    for (std::uint64_t i = 0; i < kScrapeCalls; ++i) {
      g_sink = g_sink +
               dart::telemetry::to_prometheus(d.registry.snapshot()).size();
    }
    span.add(kScrapeCalls);
  }
}

}  // namespace

std::map<std::string, double> probe_layers(const Workload& workload,
                                           const dart::trace::Trace& trace,
                                           Daemon& drained) {
  const std::vector<PacketRecord>& packets = trace.packets();
  const core::DartConfig config = core::ensure_feasible(workload.config.dart);
  std::map<std::string, double> out;
  {
    const std::vector<PacketRecord> shard0 =
        probe_route(packets, workload.config.shards);
    probe_ring(packets);
    probe_tables(shard0, config);
    probe_process_batch(shard0, config);
  }
  probe_sharded(packets, workload, out);
  probe_decode(packets);
  probe_queries(drained);
  return out;
}

}  // namespace dartbench
