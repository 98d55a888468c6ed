// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the harness's own files, around its calls
// into the program's public functions: name, start, end, parent span and
// run id, plus a work count (packets, operations) so a layer's cost can be
// given per unit. They are kept in memory and written out when the run
// ends. A layer's self time is its duration minus the time its child spans
// cover; children are recorded on the parent's thread, so they never
// overlap one another and the covered time is their sum.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dartbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t run = 0;     ///< cycle or probe the span belongs to
  std::uint64_t count = 0;   ///< work items the span covered
};

struct LayerTime {
  double self_ns = 0;
  double total_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t count = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void set_run(std::uint32_t run) {
    run_.store(run, std::memory_order_relaxed);
  }

  /// Open a span on this thread; returns its id, -1 when tracing is off.
  std::int64_t begin(const char* name);
  void end(std::int64_t id, std::uint64_t count = 0);

  /// Record an already-finished span under this thread's open span.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t count = 0);

  std::map<std::string, LayerTime> layer_times() const;
  bool write_tsv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  // Read by query-handler threads as well as the harness thread.
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> run_{0};
};

Tracer& tracer();

/// RAII span; a no-op when tracing is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(tracer().begin(name)) {}
  ~SpanScope() { tracer().end(id_, count_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void add(std::uint64_t n) { count_ += n; }

 private:
  std::int64_t id_;
  std::uint64_t count_ = 0;
};

}  // namespace dartbench
