#include "telemetry/runtime_metrics.hpp"

namespace dart::telemetry {

RuntimeMetrics::RuntimeMetrics(Registry& reg) : registry(&reg) {
  const auto det = [](const char* help) {
    FamilyOptions opts;
    opts.help = help;
    opts.deterministic = true;
    return opts;
  };
  const auto live = [](const char* help) {
    FamilyOptions opts;
    opts.help = help;
    opts.deterministic = false;
    return opts;
  };

  routed = &reg.counter("dart_routed_total",
                        det("packets enqueued to the shard by the router, "
                            "shed included"));
  processed = &reg.counter(
      "dart_processed_total",
      det("packets processed and merged (authoritative, post-quiesce)"));
  samples = &reg.counter("dart_samples_total",
                         det("RTT samples emitted by the merged monitors"));
  recirculations = &reg.counter(
      "dart_recirculations_total",
      det("packet-tracker recirculations (paper metric, per-packet when "
          "divided by dart_processed_total)"));
  shed = &reg.counter("dart_shed_total",
                      det("packets dropped by the overload policy"));
  abandoned = &reg.counter(
      "dart_abandoned_total",
      det("packets handed to a worker that was later force-detached"));
  lost_to_crash = &reg.counter(
      "dart_lost_to_crash_total",
      det("packets whose effects were rolled back by crash recovery"));
  workers_killed = &reg.counter("dart_workers_killed_total",
                                det("workers that exited mid-replay"));
  workers_detached = &reg.counter(
      "dart_workers_detached_total",
      det("workers abandoned at join timeout"));
  workers_recovered = &reg.counter(
      "dart_workers_recovered_total",
      det("workers restarted from a checkpoint"));
  replayed_after_restore = &reg.counter(
      "dart_replayed_after_restore_total",
      det("packets re-queued from a dead worker to its successor"));

  worker_batches = &reg.counter(
      "dart_worker_batches_total",
      live("batches dequeued by workers (live heartbeat)"));
  worker_packets = &reg.counter(
      "dart_worker_packets_total",
      live("packets dequeued by workers (live heartbeat; crash windows "
           "are not rolled back here)"));
  backpressure_sleeps = &reg.counter(
      "dart_backpressure_sleeps_total",
      live("router sleeps while a shard ring was full"));
  governor_backoffs = &reg.counter(
      "dart_governor_backoffs_total",
      live("overload-governor transitions into backoff"));
  governor_sheds = &reg.counter(
      "dart_governor_sheds_total",
      live("overload-governor transitions into shedding"));
  checkpoint_commits = &reg.counter(
      "dart_checkpoint_commits_total",
      live("checkpoint epochs committed by the coordinator"));
  checkpoint_rejected = &reg.counter(
      "dart_checkpoint_rejected_total",
      live("checkpoint contributions rejected (stale epoch or fencing)"));

  {
    FamilyOptions opts = live("approximate shard ring occupancy at last "
                              "router flush");
    ring_occupancy = &reg.gauge("dart_ring_occupancy", opts);
  }
  {
    HistogramOptions opts;
    opts.help = "wall-clock latency of one worker batch (ns)";
    batch_latency = &reg.histogram("dart_batch_latency_ns", opts);
  }
  {
    HistogramOptions opts;
    opts.help = "packets per dequeued ring batch (SoA hot-path fill level)";
    batch_fill = &reg.histogram("dart_batch_fill", opts);
  }
  {
    HistogramOptions opts;
    opts.help = "wall-clock latency of one checkpoint commit (ns)";
    // One slot that every worker's commit() observes: concurrent writers
    // are safe because the bins and the min/max are atomic.
    opts.slots = 1;
    opts.max_value = sec(100);
    commit_latency = &reg.histogram("dart_commit_latency_ns", opts);
  }
}

void RuntimeMetrics::fold_authoritative(std::size_t shard,
                                        std::uint64_t routed_to_shard,
                                        const core::DartStats& result) {
  routed->at(shard).set(routed_to_shard);
  processed->at(shard).set(result.packets_processed);
  samples->at(shard).set(result.samples);
  recirculations->at(shard).set(result.recirculations);
  shed->at(shard).set(result.runtime.shed_packets);
  abandoned->at(shard).set(result.runtime.abandoned_packets);
  lost_to_crash->at(shard).set(result.runtime.lost_to_crash);
  workers_killed->at(shard).set(result.runtime.workers_killed);
  workers_detached->at(shard).set(result.runtime.forced_detaches);
  workers_recovered->at(shard).set(result.runtime.recovered);
  replayed_after_restore->at(shard).set(
      result.runtime.replayed_after_restore);
}

}  // namespace dart::telemetry
