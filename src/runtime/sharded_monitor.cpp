#include "runtime/sharded_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/config_check.hpp"
#include "runtime/epoch_math.hpp"
#include "runtime/fault_injection.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart::runtime {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The shard count is a thread count: reject it before the router, the
// coordinator or any incarnation is sized by it.
std::uint32_t checked_shards(std::uint32_t shards) {
  if (shards > kMaxShards) {
    throw std::invalid_argument("ShardedMonitor: shards " +
                                std::to_string(shards) + " exceeds " +
                                std::to_string(kMaxShards));
  }
  return shards == 0 ? 1 : shards;
}

}  // namespace

ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               MonitorFactory factory)
    : config_(config),
      factory_(std::move(factory)),
      router_(checked_shards(config.shards), config.route_seed),
      coordinator_(std::make_shared<CheckpointCoordinator>(router_.shards())),
      shards_(router_.shards()) {
  config_.shards = router_.shards();
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.queue_batches == 0) config_.queue_batches = 1;
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_[i].index = i;
    shards_[i].pending.reserve(config_.batch_size);
    incarnate(shards_[i], 0, /*restart=*/false);
  }
  // Threads start only once every factory call has succeeded, so a
  // throwing factory leaves no worker behind.
  for (Shard& shard : shards_) launch(shard.inc);
}

// Validate before any shard exists so an infeasible config throws the
// pipeline checker's diagnostics without starting a single worker.
ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               const core::DartConfig& dart_config)
    : ShardedMonitor(config,
                     dart_factory(core::ensure_feasible(dart_config))) {}

ShardedMonitor::~ShardedMonitor() { shutdown(); }

std::uint64_t ShardedMonitor::incarnate(Shard& shard, std::uint64_t base,
                                        bool restart) {
  auto inc = std::make_shared<Incarnation>(config_.queue_batches);
  inc->shard = shard.index;
  // Taking ownership is the fence: any commit still in flight from a
  // predecessor (or a released zombie) is rejected from this instant, so
  // the cut read below is final.
  inc->id = coordinator_->begin_incarnation(shard.index);
  inc->base_cursor = base;
  inc->coordinator = coordinator_;
  inc->faults = config_.faults;
  inc->metrics = config_.telemetry;
  // The callback writes the worker-private delta: the worker thread is the
  // only caller of monitor->process_batch, hence the only writer.
  Incarnation* const sink = inc.get();
  const bool retain = config_.retain_samples;
  auto on_sample = [sink, retain](const core::RttSample& sample) {
    sink->rtt.add(sample.rtt());
    if (retain) sink->samples.push_back(sample);
  };
  inc->monitor = factory_(shard.index, std::move(on_sample));
  std::uint64_t restored = 0;
  if (restart) {
    ++shard.restarts;
    ++shard.health.recovered;
    core::CheckpointImage image;
    core::SnapshotMeta meta;
    if (coordinator_->latest(shard.index, &image, &meta) &&
        inc->monitor->supports_checkpoint() && !inc->monitor->restore(image)) {
      restored = meta.cursor;
    }
  }
  shard.inc = std::move(inc);
  shard.hb_armed = false;
  return restored;
}

void ShardedMonitor::launch(const std::shared_ptr<Incarnation>& inc) {
  inc->thread = std::thread([keepalive = inc] { worker_loop(*keepalive); });
}

// ---------------------------------------------------------------------------
// Worker side.

void ShardedMonitor::commit(Incarnation& inc, const Work* marker) {
  core::CheckpointImage image;
  core::SnapshotMeta meta;
  if (marker != nullptr) {
    // The marker is an in-band quiesce point: every packet delivered before
    // it has been processed, so the monitor state *is* the state at stream
    // position marker->cursor.
    assert(inc.base_cursor +
               inc.packets_done.load(std::memory_order_relaxed) ==
           marker->cursor);
    meta.epoch = marker->epoch;
    meta.cursor = marker->cursor;
    meta.sample_cursor = inc.monitor->stats().samples;
    if (inc.monitor->supports_checkpoint()) {
      image = inc.monitor->snapshot(meta);
    }
  }
  const auto commit_start = inc.metrics != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  // Fenced: a zombie's commit is rejected and its delta discarded — it
  // belongs to a window already written off.
  CheckpointCoordinator& store = *inc.coordinator;
  const bool accepted = store.commit(inc.shard, inc.id, std::move(image), meta,
                                     std::move(inc.samples), inc.rtt);
  inc.samples.clear();  // moved-from: restore a defined empty state
  inc.rtt = analytics::LogHistogram{};
  if (marker != nullptr && inc.metrics != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - commit_start;
    inc.metrics->commit_latency->at(0).observe(static_cast<Timestamp>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    if (accepted) {
      inc.metrics->checkpoint_commits->at(inc.shard).inc();
    } else {
      inc.metrics->checkpoint_rejected->at(inc.shard).inc();
    }
  }
}

void ShardedMonitor::worker_loop(Incarnation& inc) {
  Work work;
  std::uint64_t batches_done = 0;
  bool done_seen = false;
  for (;;) {
    if (inc.queue.try_pop(work)) {
      if (work.marker) {
        commit(inc, &work);
        continue;
      }
      // The one hook site. A kill parks the popped-but-unprocessed batch
      // for a successor: it loses only processed-uncommitted state, never
      // in-flight input — so a kill landing on a barrier loses nothing.
      if (inc.faults != nullptr &&
          inc.faults->before_batch(inc.shard, batches_done) ==
              FaultPlan::Action::kExit) {
        inc.limbo.push_back(std::move(work));
        inc.dead.store(true, std::memory_order_release);
        break;
      }
      const auto batch_start = inc.metrics != nullptr
                                   ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
      inc.monitor->process_batch(work.batch);
      inc.packets_done.fetch_add(work.batch.size(), std::memory_order_release);
      if (inc.metrics != nullptr) {
        const auto elapsed = std::chrono::steady_clock::now() - batch_start;
        inc.metrics->batch_latency->at(inc.shard).observe(
            static_cast<Timestamp>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()));
        inc.metrics->batch_fill->at(inc.shard).observe(
            static_cast<Timestamp>(work.batch.size()));
        inc.metrics->worker_batches->at(inc.shard).inc();
        inc.metrics->worker_packets->at(inc.shard).inc(work.batch.size());
      }
      ++batches_done;
      work.batch.clear();
      continue;
    }
    // The done flag is published after the router's last push, so an empty
    // pop observed *after* the flag means the ring is empty for good.
    if (done_seen) break;
    if (inc.input_done.load(std::memory_order_acquire)) {
      done_seen = true;
      continue;  // one more pass drains anything pushed before the flag
    }
    std::this_thread::yield();
  }
  // Clean end of input: commit the trailing delta (fenced, so a released
  // zombie draining its abandoned ring commits nothing).
  if (!inc.dead.load(std::memory_order_relaxed)) commit(inc, nullptr);
  inc.final_stats = inc.monitor->stats();
  inc.exited.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Router side: delivery, barriers, health watching.

void ShardedMonitor::process(const PacketRecord& packet) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  Shard& shard = shards_[router_.route(packet.tuple)];
  shard.pending.push_back(packet);
  if (shard.pending.size() >= config_.batch_size) flush_shard(shard);
  if (config_.checkpoint.enabled()) maybe_barrier(shard, packet.ts);
  ++routed_total_;
  if (config_.on_epoch &&
      closes_epoch(routed_total_, config_.epoch_interval_packets)) {
    // Router-thread barrier: fires between packets, so the callback can
    // publish fleet progress without racing the routing state.
    config_.on_epoch(++epochs_fired_, routed_total_);
  }
}

void ShardedMonitor::process_all(std::span<const PacketRecord> packets) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  for (const PacketRecord& packet : packets) process(packet);
}

std::uint64_t ShardedMonitor::shard_routed_cursor(std::uint32_t shard) const {
  const Shard& s = shards_[shard];
  return s.routed + s.pending.size();
}

void ShardedMonitor::flush_shard(Shard& shard) {
  if (shard.pending.empty()) return;
  Work work;
  work.batch = std::move(shard.pending);
  shard.pending.clear();  // moved-from: restore a defined empty state
  shard.pending.reserve(config_.batch_size);
  shard.routed += work.batch.size();
  deliver(shard, std::move(work));
  if (config_.telemetry != nullptr) {
    config_.telemetry->ring_occupancy->at(shard.index)
        .set(static_cast<std::int64_t>(shard.inc->queue.size_approx()));
  }
}

void ShardedMonitor::maybe_barrier(Shard& shard, Timestamp ts) {
  if (shard.tombstoned) return;
  if (!shard.barrier_ts_armed) {
    shard.barrier_ts_armed = true;
    shard.last_barrier_ts = ts;
  }
  const std::uint64_t since_packets = shard.delivered +
                                      shard.pending.size() -
                                      shard.last_barrier_delivered;
  const bool packets_due = config_.checkpoint.interval_packets != 0 &&
                           since_packets >=
                               config_.checkpoint.interval_packets;
  const bool vtime_due = config_.checkpoint.interval_vtime_ns != 0 &&
                         ts - shard.last_barrier_ts >=
                             config_.checkpoint.interval_vtime_ns;
  if (!packets_due && !vtime_due) return;
  // Epoch barrier: everything routed so far goes in front of the marker,
  // so the marker's cursor is exactly the shard stream position it cuts.
  flush_shard(shard);
  Work marker;
  marker.marker = true;
  marker.epoch = ++shard.epoch;
  marker.cursor = shard.delivered;
  shard.last_barrier_delivered = shard.delivered;
  shard.last_barrier_ts = ts;
  deliver(shard, std::move(marker));
}

void ShardedMonitor::shed(Shard& shard, const Work& work) {
  if (work.marker) return;  // a skipped barrier sheds no coverage
  ++shard.health.shed_batches;
  shard.health.shed_packets += work.batch.size();
}

bool ShardedMonitor::wedged(Shard& shard, const Incarnation& inc) {
  // The heartbeat only matters while the router is backpressured — an idle
  // worker's frozen counter just means an empty ring.
  const std::uint64_t done = inc.packets_done.load(std::memory_order_acquire);
  const std::uint64_t now = now_ns();
  if (!shard.hb_armed || shard.hb_done != done) {
    shard.hb_armed = true;
    shard.hb_done = done;
    shard.hb_since_ns = now;
    return false;
  }
  return now - shard.hb_since_ns >= config_.hang_detection_ns;
}

void ShardedMonitor::deliver(Shard& shard, Work&& work) {
  const std::uint64_t packets = work.batch.size();
  OverloadGovernor governor(config_.overload);
  std::uint64_t backoff_start_ns = 0;  // set on the first post-spin retry
  bool contended = false;
  telemetry::RuntimeMetrics* const tm = config_.telemetry;
  bool backoff_counted = false;
  for (;;) {
    if (shard.tombstoned) {
      shed(shard, work);
      return;
    }
    Incarnation& inc = *shard.inc;
    if (inc.dead.load(std::memory_order_acquire)) {
      recover_dead(shard);
      continue;
    }
    if (inc.queue.try_push(std::move(work))) {
      shard.delivered += packets;
      return;
    }
    if (!contended) {
      contended = true;
      ++shard.health.backpressure_events;
    }
    if (config_.hang_detection_ns != 0 && wedged(shard, inc)) {
      abandon(shard, /*allow_successor=*/true);
      continue;
    }
    std::uint64_t elapsed_ns = 0;
    if (!governor.spinning()) {
      const std::uint64_t now = now_ns();
      if (backoff_start_ns == 0) backoff_start_ns = now;
      elapsed_ns = now - backoff_start_ns;
    }
    const OverloadDecision decision = governor.next(elapsed_ns);
    if (decision.action == OverloadAction::kShed) {
      if (tm != nullptr) tm->governor_sheds->at(shard.index).inc();
      shed(shard, work);
      return;
    }
    if (decision.action == OverloadAction::kSleep) {
      ++shard.health.backoff_sleeps;
      if (tm != nullptr) {
        tm->backpressure_sleeps->at(shard.index).inc();
        if (!backoff_counted) {
          backoff_counted = true;  // ladder transition, not per-sleep
          tm->governor_backoffs->at(shard.index).inc();
        }
      }
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(decision.sleep_ns));
    } else {
      std::this_thread::yield();
    }
  }
}

void ShardedMonitor::requeue(Shard& shard, std::vector<Work>&& carryover) {
  // Redeliver a dead predecessor's unconsumed input to the successor, in
  // FIFO order, ahead of anything the router routes next (recovery runs
  // synchronously on the router thread, so nothing can interleave).
  for (Work& work : carryover) {
    const std::uint64_t packets = work.batch.size();
    const bool marker = work.marker;
    for (;;) {
      if (shard.tombstoned) {
        shed(shard, work);
        break;
      }
      if (shard.inc->dead.load(std::memory_order_acquire)) {
        // The successor died before swallowing the backlog; recursion is
        // bounded by the restart budget.
        recover_dead(shard);
        continue;
      }
      if (shard.inc->queue.try_push(std::move(work))) {
        if (!marker) shard.health.replayed_after_restore += packets;
        break;
      }
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery.

void ShardedMonitor::recover_dead(Shard& shard) {
  const std::shared_ptr<Incarnation> dead = shard.inc;
  // A dead worker has stopped committing; the join publishes its delta,
  // limbo and stats to this thread.
  if (dead->thread.joinable()) dead->thread.join();
  ++shard.health.workers_killed;
  // Unconsumed input: the parked batch precedes the ring content in stream
  // order (it was popped first).
  std::vector<Work> carryover = std::move(dead->limbo);
  for (Work work; dead->queue.try_pop(work);) {
    carryover.push_back(std::move(work));
  }
  if (shard.restarts >= config_.restart_budget) {
    // Kill, no successor: the shard keeps the worker's own stats and bins
    // and sheds everything it never processed.
    coordinator_->commit_samples(shard.index, dead->id,
                                 std::move(dead->samples), dead->rtt);
    shard.tombstoned = true;
    shard.result = dead->final_stats;
    for (const Work& work : carryover) shed(shard, work);
    return;
  }
  // Kill, successor allowed: the successor resumes from the last cut, so
  // what the dead worker processed beyond it is the loss window. max()
  // keeps repeated crashes from re-counting a window already lost.
  const std::uint64_t frontier =
      dead->base_cursor + dead->packets_done.load(std::memory_order_acquire);
  const std::uint64_t restored = incarnate(shard, frontier, /*restart=*/true);
  launch(shard.inc);
  const std::uint64_t floor = std::max(restored, dead->base_cursor);
  if (frontier > floor) shard.health.lost_to_crash += frontier - floor;
  requeue(shard, std::move(carryover));
}

void ShardedMonitor::abandon(Shard& shard, bool allow_successor) {
  const std::shared_ptr<Incarnation> zombie = shard.inc;
  // Fence FIRST: if the zombie wakes between here and a restart, its
  // commit must already be rejected — otherwise it could move the very cut
  // this accounting and the successor rely on.
  coordinator_->begin_incarnation(shard.index);
  core::CheckpointImage image;
  core::SnapshotMeta meta;
  core::DartStats cut_stats;
  const bool has_cut = coordinator_->latest(shard.index, &image, &meta) &&
                       !core::read_stats(image, &cut_stats);
  // The zombie's ring is unsalvageable (it may still pop from it), and its
  // frontier is a racy read of a live thread: everything it was handed
  // past the last cut is abandoned with it.
  const std::uint64_t cut = has_cut ? meta.cursor : 0;
  const std::uint64_t floor = std::max(cut, zombie->base_cursor);
  ++shard.health.forced_detaches;
  shard.health.abandoned_packets += shard.delivered - floor;
  // Hand the zombie its exit condition for a later wake-up, then let it go;
  // its keepalive reference keeps its world alive indefinitely.
  zombie->input_done.store(true, std::memory_order_release);
  zombie->thread.detach();
  shard.detached.push_back(zombie);
  if (allow_successor && shard.restarts < config_.restart_budget) {
    incarnate(shard, shard.delivered, /*restart=*/true);
    launch(shard.inc);
  } else {
    shard.tombstoned = true;
    shard.result = cut_stats;
  }
}

// ---------------------------------------------------------------------------
// Shutdown and results.

bool ShardedMonitor::wait_exited(const Incarnation& inc,
                                 std::uint64_t timeout_ns) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_ns);
  while (!inc.exited.load(std::memory_order_acquire)) {
    if (timeout_ns != 0 && std::chrono::steady_clock::now() >= deadline) {
      // Deadline racing a clean exit must side with the worker: without
      // this final re-check, a worker that finishes its last batch right
      // at the deadline gets detached and its results discarded.
      return inc.exited.load(std::memory_order_acquire);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void ShardedMonitor::finish() {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kFinishAfterFinish);
  }
  shutdown();
}

void ShardedMonitor::shutdown() noexcept {
  if (finished_) return;
  finished_ = true;
  // Signal everyone first so workers drain in parallel, then reap one by
  // one — recovering any worker that dies while draining.
  for (Shard& shard : shards_) {
    flush_shard(shard);
    shard.inc->input_done.store(true, std::memory_order_release);
  }
  for (Shard& shard : shards_) {
    while (!shard.tombstoned) {
      Incarnation& inc = *shard.inc;
      inc.input_done.store(true, std::memory_order_release);
      if (!wait_exited(inc, config_.join_timeout_ns)) {
        // Wedged past the shutdown budget: there is no further input to
        // feed a successor.
        abandon(shard, /*allow_successor=*/false);
        break;
      }
      inc.thread.join();
      if (!inc.dead.load(std::memory_order_acquire)) break;
      recover_dead(shard);  // restart and replay the backlog, or tombstone
    }
  }
  for (Shard& shard : shards_) {
    if (!shard.tombstoned) shard.result = shard.inc->final_stats;
    shard.result.runtime = shard.health;
    std::vector<core::RttSample> samples;
    coordinator_->take_committed(shard.index, &samples, &shard.rtt);
    shard.samples = analytics::SampleLog(std::move(samples));
  }
  // Quiesce fold: authoritative counters are written exactly once, from
  // the settled per-shard results. Live per-batch counts include work a
  // rollback or a detach discarded, so they must never feed this tier.
  if (config_.telemetry != nullptr) {
    for (const Shard& shard : shards_) {
      config_.telemetry->fold_authoritative(shard.index, shard.routed,
                                            shard.result);
    }
  }
}

const analytics::SampleLog& ShardedMonitor::shard_samples(
    std::uint32_t shard) const {
  assert(finished_ && "results require finish()");
  return shards_[shard].samples;
}

core::DartStats ShardedMonitor::shard_stats(std::uint32_t shard) const {
  assert(finished_ && "results require finish()");
  return shards_[shard].result;
}

core::DartStats ShardedMonitor::merged_stats() const {
  assert(finished_ && "results require finish()");
  core::DartStats merged;
  for (const Shard& shard : shards_) merged += shard.result;
  return merged;
}

core::RuntimeHealth ShardedMonitor::health() const {
  assert(finished_ && "results require finish()");
  core::RuntimeHealth merged;
  for (const Shard& shard : shards_) merged += shard.health;
  return merged;
}

std::vector<core::RttSample> ShardedMonitor::merged_samples() const {
  assert(finished_ && "results require finish()");
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.samples.size();
  std::vector<core::RttSample> merged;
  merged.reserve(total);
  for (const Shard& shard : shards_) {
    const auto& samples = shard.samples.samples();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  deterministic_order(merged);
  return merged;
}

analytics::LogHistogram ShardedMonitor::merged_histogram() const {
  assert(finished_ && "results require finish()");
  analytics::LogHistogram merged;
  for (const Shard& shard : shards_) merged.merge(shard.rtt);
  return merged;
}

bool ShardedMonitor::await_detached(std::uint64_t timeout_ns) const {
  assert(finished_ && "await_detached() requires finish()");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_ns);
  for (const Shard& shard : shards_) {
    for (const auto& zombie : shard.detached) {
      while (!zombie->exited.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  return true;
}

void deterministic_order(std::vector<core::RttSample>& samples) {
  std::sort(samples.begin(), samples.end(), core::sample_less);
}

}  // namespace dart::runtime
