#include "spans.hpp"

#include <fstream>

#include "bench.hpp"

namespace dartbench {
namespace {

thread_local std::vector<std::int64_t> t_open;

std::int64_t open_parent() { return t_open.empty() ? -1 : t_open.back(); }

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int64_t Tracer::begin(const char* name) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.parent = open_parent();
  span.run = run_.load(std::memory_order_relaxed);
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(span);
  }
  t_open.push_back(id);
  // Stamp last so the bookkeeping above is not charged to the span.
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_ns = start;
  return id;
}

void Tracer::end(std::int64_t id, std::uint64_t count) {
  if (id < 0) return;
  const std::uint64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end;
  span.count = count;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t count) {
  if (!enabled()) return;
  Span span{name, start_ns, end_ns, open_parent(),
            run_.load(std::memory_order_relaxed), count};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double total = static_cast<double>(span.end_ns - span.start_ns);
    LayerTime& layer = out[span.name];
    layer.total_ns += total;
    layer.self_ns += total - covered[i];
    layer.calls += 1;
    layer.count += span.count;
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trun\tname\tstart_ns\tend_ns\tcount\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.parent << '\t' << span.run << '\t' << span.name
        << '\t' << span.start_ns << '\t' << span.end_ns << '\t' << span.count
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace dartbench
