// ShardedMonitor: flow-affinity parallel replay across N worker threads.
//
//                      +-> [ring] -> worker 0 --commit--+
//   packets -> router -+-> [ring] -> worker 1 --commit--+-> coordinator
//                      +-> [ring] -> worker 2 --commit--+   (histograms,
//          (epoch barriers if checkpointing)   restore on   samples, cuts)
//                                              a crash
//
// The caller's thread routes each packet by the canonical 4-tuple hash onto
// one of N shards; each shard is a worker thread owning a private monitor
// (no shared mutable state between shards). Handoff is batched (~256
// packets per push) through bounded SPSC rings; a full ring backpressures
// the router, bounding memory at O(shards * queue depth * batch). A worker
// hands each batch it pops to ReplayMonitor::process_batch.
//
// Determinism: both directions of a connection hash to the same shard and
// the single router preserves arrival order into each FIFO ring, so every
// flow sees exactly the packet subsequence — in exactly the order — it
// would see in a single-monitor run. With per-flow monitor state (unbounded
// tables), the merged sample stream is therefore bit-identical *as a
// multiset* to the single-monitor reference, and merged DartStats equal the
// reference counters; `merged_samples()` returns the canonical sorted order
// so equal multisets compare equal as vectors. Bounded tables shared by
// many flows break this equivalence by design (shards see different
// collision patterns). In both regimes each shard equals a plain
// DartMonitor fed that shard's partition of the stream, stats and samples
// in emission order alike; the differential tests hold every shard to it.
//
// Bin in place, one result path: every worker folds each sample into a
// fixed-geometry LogHistogram (plus a raw sample log under
// `retain_samples`) holding what it emitted since its last commit, and
// commits that delta to the CheckpointCoordinator at each epoch barrier
// and at a clean exit. Results are the committed deltas alone: bin counts,
// min and max do not depend on sample order and all shards share one
// layout, so `merged_histogram()` is an exact bin-by-bin sum — equal to a
// histogram folded from `merged_samples()`. An unsupervised run commits
// once per shard, at exit, by moving the delta into an empty slot.
//
// Graceful degradation: backpressure is *bounded*. When a shard's ring
// stays full past the OverloadPolicy's deadline (spin -> exponential
// backoff -> shed), the router drops that batch and accounts it in the
// shard's RuntimeHealth instead of freezing the whole pipeline behind one
// sick worker. The invariant, per shard and merged, is
//
//     processed + shed + abandoned + lost_to_crash == routed
//
// Recovery (optional; all off by default): with `checkpoint` set, the
// router injects barrier markers into each shard's stream and the worker
// cuts a CheckpointImage at each one. Each worker is a fenced incarnation:
//
//   * Kill, successor allowed (`restart_budget` not spent): the successor
//     restores the last cut; what the dead worker processed past it is
//     `lost_to_crash`, and its parked batch plus ring content are requeued
//     in FIFO order (`replayed_after_restore`).
//   * Kill, no successor: the shard keeps the dead worker's own stats and
//     bins, and sheds the parked batch and everything after it.
//   * Wedge (`hang_detection_ns` on a backpressured push, or the shutdown
//     `join_timeout_ns`): the worker is fenced, then detached; its result
//     is the last committed cut (zeros if none) and everything it was
//     handed past that cut is `abandoned`. Hang detection then starts a
//     successor on a fresh ring if the budget allows.
//
// See DESIGN.md §8 "Failure and recovery model".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/sample_log.hpp"
#include "common/packet.hpp"
#include "common/thread_annotations.hpp"
#include "core/config.hpp"
#include "core/rtt_sample.hpp"
#include "core/stats.hpp"
#include "runtime/checkpoint_coordinator.hpp"
#include "runtime/lifecycle.hpp"
#include "runtime/overload_policy.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/spsc_ring.hpp"

namespace dart::telemetry {
struct RuntimeMetrics;
}  // namespace dart::telemetry

namespace dart::runtime {

class FaultPlan;

/// Largest shard count a ShardedMonitor accepts. Each shard is one worker
/// thread, so the count is a thread count; 256 is 32x the largest count any
/// tool, test or bench uses (8) and still far below a process thread limit.
inline constexpr std::uint32_t kMaxShards = 256;

struct ShardedConfig {
  /// Number of worker threads / monitor partitions (1..kMaxShards; 0 means
  /// 1).
  std::uint32_t shards = 1;

  /// Packets accumulated per shard before a queue handoff. One push
  /// amortizes the ring synchronization over the whole batch.
  std::size_t batch_size = 256;

  /// Bounded ring capacity per shard, in batches. A full ring stalls the
  /// router (backpressure) rather than growing without bound.
  std::size_t queue_batches = 64;

  /// Routing hash seed; independent of the monitors' table hash seeds.
  std::uint64_t route_seed = 0xDA27'0002;

  /// Keep every RTT sample, for shard_samples() and merged_samples(). The
  /// per-shard histograms behind merged_histogram() are fed either way;
  /// false drops the raw stream so result memory stays O(shards * bins)
  /// for the whole run.
  bool retain_samples = true;

  /// How hard the router waits on a full ring before shedding the batch.
  OverloadPolicy overload;

  /// Barrier cadence for checkpoints. Disabled (the default) cuts none:
  /// a restarted worker then starts from empty state and the whole
  /// pre-crash window counts as lost.
  CheckpointPolicy checkpoint;

  /// Restarts each shard may consume; 0 (the default) never restarts, so
  /// a killed or wedged worker's shard degrades to the shed path.
  std::uint32_t restart_budget = 0;

  /// A worker whose heartbeat makes no progress for this long while the
  /// router is backpressured on its full ring is declared wedged and
  /// force-detached. 0 (the default) disables hang detection; wedges then
  /// surface at finish() via join_timeout_ns.
  std::uint64_t hang_detection_ns = 0;

  /// Epoch hook: when nonzero, `on_epoch(epoch, routed)` fires on the
  /// *router thread* after every `epoch_interval_packets` routed packets
  /// (epoch counts from 1; `routed` is the total routed so far, i.e.
  /// epoch * interval). This is the fleet exporter's barrier source: the
  /// callback runs between process() calls, so it may inspect router-side
  /// state and publish progress frames, but the workers have not
  /// necessarily consumed up to the cursor yet — it is a routing barrier,
  /// not a quiesce point. Keep the callback cheap; it stalls routing.
  std::uint64_t epoch_interval_packets = 0;
  std::function<void(std::uint64_t epoch, std::uint64_t routed)> on_epoch;

  /// How long finish() waits for a worker to exit before force-detaching
  /// it (diagnosed in RuntimeHealth::forced_detaches). After end-of-input a
  /// healthy worker only has the ring's backlog left, so this bounds
  /// shutdown: it fires only for a genuinely wedged worker. 0 waits
  /// forever.
  std::uint64_t join_timeout_ns = 30'000'000'000ULL;  // 30 s

  /// Fault-injection hooks for the chaos suites; must outlive the monitor
  /// (or at least every worker). nullptr (the default) skips the one
  /// per-batch hook site.
  FaultPlan* faults = nullptr;

  /// Standard metric families to instrument; must outlive every worker.
  /// nullptr (the default) runs uninstrumented: each instrumentation site
  /// is then one pointer test.
  telemetry::RuntimeMetrics* telemetry = nullptr;
};

class ShardedMonitor {
 public:
  /// Workers are started immediately; `factory` is invoked once per shard
  /// (and once per restart) on the router thread. Throws
  /// std::invalid_argument, before any worker exists, when `config.shards`
  /// exceeds kMaxShards.
  ShardedMonitor(const ShardedConfig& config, MonitorFactory factory);

  /// Convenience: every shard runs a private DartMonitor with this config.
  ShardedMonitor(const ShardedConfig& config,
                 const core::DartConfig& dart_config);

  /// Joins the workers (shutdown) if the caller has not already finished.
  ~ShardedMonitor();

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// Route one packet to its shard. Caller thread only; packets must arrive
  /// in monitor order (as for DartMonitor::process). Throws LifecycleError
  /// (kProcessAfterFinish) once finish() has run — the workers have joined
  /// and a routed batch would land in a ring with no consumer.
  void process(const PacketRecord& packet);

  /// Route a whole time-ordered stream. Same lifecycle contract as
  /// process().
  void process_all(std::span<const PacketRecord> packets);

  /// Flush partial batches, signal end-of-stream, and join all workers
  /// (bounded by join_timeout_ns per worker; a worker that dies while
  /// draining is still restarted if the budget allows). Results are
  /// available afterwards. A second explicit call throws LifecycleError
  /// (kFinishAfterFinish): the batch-era "idempotent finish" contract hid
  /// daemon restart bugs where two owners both believed they ended the
  /// cycle. Destruction after finish() remains legal (the destructor uses
  /// the noexcept shutdown path, never this method).
  void finish();

  /// True once finish() has settled results (queries allowed, ingest not).
  bool finished() const { return finished_; }

  std::uint32_t shards() const { return router_.shards(); }
  const ShardedConfig& config() const { return config_; }

  /// Router-side epoch clock: packets routed so far. Router thread only
  /// while running (it is the writer); any thread after finish().
  std::uint64_t routed_total() const { return routed_total_; }

  /// Router-side per-shard cursor: packets routed to `shard` so far,
  /// including the pending partial batch not yet handed to the ring. The
  /// cursors sum to routed_total(); an on_epoch callback may snapshot them
  /// to stamp a barrier frame. Same threading contract as routed_total().
  std::uint64_t shard_routed_cursor(std::uint32_t shard) const;

  /// Per-shard committed results; valid only after finish(). A shard whose
  /// worker wedged reports its last committed cut (empty / zeros if none)
  /// plus the RuntimeHealth accounting. Without retain_samples every log
  /// is empty.
  const analytics::SampleLog& shard_samples(std::uint32_t shard) const;
  core::DartStats shard_stats(std::uint32_t shard) const;

  /// Sum of all per-shard counters (including RuntimeHealth); valid only
  /// after finish().
  core::DartStats merged_stats() const;

  /// Merged degradation accounting alone; valid only after finish().
  core::RuntimeHealth health() const;

  /// All committed samples in the canonical `sample_less` order — the
  /// deterministic merge. Valid only after finish(). Samples a crashed
  /// worker emitted past its last cut are part of the loss window and
  /// absent by design. Empty without retain_samples.
  std::vector<core::RttSample> merged_samples() const;

  /// All shards' committed RTT histograms merged (default LogHistogram
  /// geometry); the fold of merged_samples() whether or not samples are
  /// retained. Valid only after finish().
  analytics::LogHistogram merged_histogram() const;

  /// Committed checkpoint images cut across the run.
  std::uint64_t checkpoints_cut() const {
    return coordinator_->total_checkpoints_cut();
  }

  const CheckpointCoordinator& coordinator() const { return *coordinator_; }

  /// Wait up to `timeout_ns` for any force-detached workers to finally
  /// exit (e.g. after a fault plan released a hang). Returns true when
  /// none remain running. Valid only after finish().
  bool await_detached(std::uint64_t timeout_ns) const;

 private:
  using PacketBatch = std::vector<PacketRecord>;

  /// One ring entry: a packet batch or an epoch barrier marker.
  struct Work {
    PacketBatch batch;
    bool marker = false;
    std::uint64_t epoch = 0;
    std::uint64_t cursor = 0;  ///< shard packets delivered before the marker
  };

  /// One worker lifetime. Each restart builds a fresh Incarnation — ring
  /// included, because a wedged predecessor may still pop from its own.
  /// The worker holds a shared_ptr to it (and to the coordinator), so a
  /// force-detached zombie that wakes up later — even after the monitor is
  /// gone — only ever touches live memory.
  //
  // Lock-free cross-thread protocol, in DART_PUBLISHED_BY terms: the router
  // publishes monitor/faults/metrics to the worker via thread creation; the
  // worker publishes its delta, limbo and final_stats back with its exited
  // release-store, which the router acquires via join (or an exited load).
  struct Incarnation {
    explicit Incarnation(std::size_t queue_batches) : queue(queue_batches) {}

    SpscRing<Work> queue;
    std::unique_ptr<ReplayMonitor> monitor DART_PUBLISHED_BY(exited);
    /// Emitted since the last commit (samples only under retain_samples).
    std::vector<core::RttSample> samples DART_PUBLISHED_BY(exited);
    analytics::LogHistogram rtt DART_PUBLISHED_BY(exited);
    /// The popped-unprocessed batch parked at a kill.
    std::vector<Work> limbo DART_PUBLISHED_BY(exited);
    core::DartStats final_stats DART_PUBLISHED_BY(exited);
    std::thread thread;
    std::uint32_t shard = 0;
    std::uint64_t id = 0;           ///< coordinator incarnation id (fence)
    std::uint64_t base_cursor = 0;  ///< shard-stream position at start
    std::shared_ptr<CheckpointCoordinator> coordinator;

    /// Heartbeat: shard-stream packets processed by *this* incarnation;
    /// base_cursor + packets_done is its frontier.
    std::atomic<std::uint64_t> packets_done{0};
    std::atomic<bool> input_done{false};
    std::atomic<bool> dead{false};    ///< exited early (kill fault)
    std::atomic<bool> exited{false};  ///< worker loop finished (all paths)
    FaultPlan* faults = nullptr;
    telemetry::RuntimeMetrics* metrics = nullptr;  ///< worker-read, may be null
  };

  /// Router-side state of one shard.
  struct Shard {
    std::uint32_t index = 0;
    /// Current worker; a tombstoned shard keeps its last one (results and
    /// monitor stay inspectable).
    std::shared_ptr<Incarnation> inc;
    std::vector<std::shared_ptr<Incarnation>> detached;  ///< wedged zombies
    PacketBatch pending;          ///< accumulation for the next batch
    std::uint64_t routed = 0;     ///< handed to flush (incl. later shed)
    std::uint64_t delivered = 0;  ///< pushed into a ring
    std::uint32_t restarts = 0;
    /// No worker left: everything routed here is shed, `result` is final.
    bool tombstoned = false;
    core::RuntimeHealth health;
    core::DartStats result;
    // Settled by finish() from the coordinator's committed deltas.
    analytics::SampleLog samples;
    analytics::LogHistogram rtt;

    // Barrier bookkeeping, touched only when checkpointing is on.
    std::uint64_t epoch = 0;
    std::uint64_t last_barrier_delivered = 0;
    std::uint64_t last_barrier_ts = 0;
    bool barrier_ts_armed = false;

    // Heartbeat tracking for hang detection; incarnate() disarms it.
    std::uint64_t hb_done = 0;
    std::uint64_t hb_since_ns = 0;
    bool hb_armed = false;
  };

  /// Make `shard.inc` a fresh incarnation at stream position `base`,
  /// fencing off its predecessor; launch() starts its thread. A restart
  /// also restores the last committed cut; returns the cursor the new
  /// monitor's state reflects (0 = empty state).
  std::uint64_t incarnate(Shard& shard, std::uint64_t base, bool restart);
  static void launch(const std::shared_ptr<Incarnation>& inc);
  // The whole finish() sequence minus the lifecycle check, safe from the
  // destructor: flush, end-of-input, join/recover/detach, settle results,
  // fold telemetry. Idempotent.
  void shutdown() noexcept;
  void flush_shard(Shard& shard);
  void maybe_barrier(Shard& shard, Timestamp ts);
  void deliver(Shard& shard, Work&& work);
  void requeue(Shard& shard, std::vector<Work>&& carryover);
  bool wedged(Shard& shard, const Incarnation& inc);
  void recover_dead(Shard& shard);
  void abandon(Shard& shard, bool allow_successor);
  static void shed(Shard& shard, const Work& work);
  static bool wait_exited(const Incarnation& inc, std::uint64_t timeout_ns);
  static void worker_loop(Incarnation& inc);
  static void commit(Incarnation& inc, const Work* marker);

  ShardedConfig config_;
  MonitorFactory factory_;
  ShardRouter router_;
  std::shared_ptr<CheckpointCoordinator> coordinator_;
  std::uint64_t routed_total_ = 0;  ///< router-side packets, epoch clock
  std::uint64_t epochs_fired_ = 0;
  std::vector<Shard> shards_;
  bool finished_ = false;
};

/// Canonicalize a sample stream into the `sample_less` total order, in
/// place. Applying this to a single-monitor run and comparing against
/// `merged_samples()` is the multiset-equality test.
void deterministic_order(std::vector<core::RttSample>& samples);

}  // namespace dart::runtime
