#include "workloads.hpp"

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "analytics/histogram.hpp"
#include "bench.hpp"
#include "core/config_check.hpp"
#include "core/dart_monitor.hpp"
#include "daemon/net.hpp"
#include "daemon/replay_source.hpp"
#include "daemon/socket_source.hpp"
#include "placement.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"
#include "spans.hpp"
#include "telemetry/export.hpp"
#include "trace/trace_io.hpp"

namespace dartbench {

namespace daemon = dart::daemon;

namespace {

// Paper-scale and cache-sized bounded tables, both split evenly over the
// two shards: DaemonConfig::dart is the per-shard monitor config.
Workload replay_workload(const char* name, std::size_t rt_total,
                         std::size_t pt_total) {
  Workload w;
  w.name = name;
  w.config.shards = 2;
  w.config.dart.rt_size = rt_total / w.config.shards;
  w.config.dart.pt_size = pt_total / w.config.shards;
  w.config.dart.pt_stages = 1;
  w.config.epoch_interval = 65536;
  return w;
}

// dartd's shipped config (unbounded tables, 2 shards, default poll budget
// and idle sleep), with finer epochs so the live view moves every ~16 ms.
Workload live_workload() {
  Workload w;
  w.name = "live_socket";
  w.live = true;
  w.config.shards = 2;
  w.config.epoch_interval = 4096;
  return w;
}

std::string render_status(const daemon::DaemonStatus& status) {
  std::string out = "# dartd status\nstate ";
  out += daemon::to_string(status.state);
  out += "\ncycle " + std::to_string(status.cycle);
  out += "\nepochs " + std::to_string(status.epochs);
  out += "\nrouted " + std::to_string(status.routed);
  out += "\nsource_exhausted ";
  out += status.source_exhausted ? "1\n" : "0\n";
  return out;
}

// Same %.17g convention as the daemon's deterministic report.
std::string format17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Times the daemon's ingest loop from outside: every poll, the router's
/// process_all between polls, and the instant input ran out. Its first poll
/// runs after run_cycle started the shard workers, and pins them.
class TimedSource final : public daemon::PacketSource {
 public:
  TimedSource(daemon::PacketSource& inner,
              dart::telemetry::RuntimeMetrics& metrics)
      : inner_(inner), metrics_(metrics) {}

  std::size_t poll(std::vector<dart::PacketRecord>& out,
                   std::size_t max) override {
    if (first_poll_ns == 0) {
      worker_threads = pin_new_threads_as_workers(known_threads);
    }
    const std::uint64_t start = now_ns();
    if (first_poll_ns == 0) first_poll_ns = start;
    if (last_pulled_ > 0) {
      tracer().record("runtime.process_all", last_return_ns_, start,
                      last_pulled_);
    }
    const std::size_t pulled = inner_.poll(out, max);
    const std::uint64_t end = now_ns();
    tracer().record("daemon.poll", start, end, pulled);
    if (pulled == 0) ++empty_polls;
    released += pulled;
    if (pulled > 0) releases.emplace_back(released, end);
    if (end_ns == 0 && inner_.exhausted()) end_ns = end;
    if (tracer().enabled()) {
      for (std::size_t i = 0; i < metrics_.ring_occupancy->slots(); ++i) {
        ring_max = std::max(ring_max, metrics_.ring_occupancy->at(i).value());
      }
    }
    last_return_ns_ = end;
    last_pulled_ = pulled;
    return pulled;
  }

  bool exhausted() const override { return inner_.exhausted(); }

  /// Threads that ran before the cycle: all others are its shard workers.
  std::vector<int> known_threads;
  std::size_t worker_threads = 0;  ///< new threads at the first poll
  std::uint64_t first_poll_ns = 0;
  std::uint64_t end_ns = 0;  ///< first poll that found the input exhausted
  std::uint64_t empty_polls = 0;
  std::uint64_t released = 0;
  std::int64_t ring_max = 0;
  /// (records released so far, poll return time) per non-empty poll.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> releases;

 private:
  daemon::PacketSource& inner_;
  dart::telemetry::RuntimeMetrics& metrics_;
  std::uint64_t last_return_ns_ = 0;
  std::size_t last_pulled_ = 0;
};

/// One HTTP GET over a fresh loopback connection; the round trip in ms, or
/// nullopt when the request failed or the body lacks `expect`.
std::optional<double> http_get(std::uint16_t port, const std::string& path,
                               const char* expect) {
  const std::uint64_t start = now_ns();
  const int fd = daemon::connect_tcp_local(port);
  if (fd < 0) return std::nullopt;
  timeval timeout{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  bool ok = ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(request.size());
  std::string response;
  char buf[4096];
  while (ok) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) ok = false;
    if (n > 0) response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (!ok || response.rfind("HTTP/1.0 200", 0) != 0 ||
      response.find(expect) == std::string::npos) {
    return std::nullopt;
  }
  return static_cast<double>(now_ns() - start) / 1e6;
}

/// The load generator's watcher thread: samples the live epoch view and
/// queries the daemon on a fixed cadence until stopped.
class Poller {
 public:
  explicit Poller(Daemon& d) : daemon_(d) {
    seen_ns.reserve(1 << 16);
    query_ms.reserve(1 << 14);
    thread_ = std::jthread([this] { loop(); });
  }
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<std::uint64_t> seen_ns;  ///< [k-1]: epoch k first visible
  std::vector<double> query_ms;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;

 private:
  void observe() {
    const std::uint64_t epoch = daemon_.runner.last_epoch().epoch;
    const std::uint64_t now = now_ns();
    while (seen_ns.size() < epoch) seen_ns.push_back(now);
  }

  void loop() {
    const std::uint16_t port = daemon_.server.port();
    std::uint64_t next_epoch_query = now_ns() + kEpochQueryPeriodNs;
    std::uint64_t next_metrics_query = now_ns() + kMetricsQueryPeriodNs;
    while (!stop_.load(std::memory_order_acquire)) {
      observe();
      const std::uint64_t now = now_ns();
      if (now >= next_epoch_query) {
        const auto ms = http_get(port, "/epoch", "dartd_epoch ");
        ++queries;
        if (!ms) ++failed;
        query_ms.push_back(ms ? *ms : kFailedQueryMs);
        next_epoch_query =
            std::max(next_epoch_query + kEpochQueryPeriodNs, now);
      }
      if (now >= next_metrics_query) {
        ++queries;
        if (!http_get(port, "/metrics", "dart_routed_total")) ++failed;
        next_metrics_query = now + kMetricsQueryPeriodNs;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollerSleepNs));
    }
    observe();
  }

  Daemon& daemon_;
  std::atomic<bool> stop_{false};
  std::jthread thread_;  // last: starts after every member it reads
};

constexpr std::uint64_t kRecordBytes = dart::trace::kPacketRecordBytes;

struct FeedResult {
  bool ok = false;
  std::uint64_t start_ns = 0;
  std::vector<double> late_ms;
};

/// Open-loop feeder: streams `records` wire records to the ingest port,
/// record i due at start + i * kLiveRecordSpacingNs. Each send carries every
/// record due by then; its lateness is that of the oldest record in it.
void feed(std::uint16_t port, const std::vector<std::uint8_t>& wire,
          std::uint64_t records, std::atomic<bool>& abort, FeedResult& out) {
  const int fd = daemon::connect_tcp_local(port);
  if (fd < 0) {
    abort.store(true);
    return;
  }
  // Send each due chunk at once: Nagle's algorithm would hold small writes
  // back for milliseconds and the lag would measure the generator.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const daemon::StopFn stop = [&abort] { return abort.load(); };
  const std::uint64_t start = now_ns();
  out.start_ns = start;
  std::uint64_t sent = 0;
  bool ok = true;
  while (ok && sent < records) {
    const std::uint64_t now = now_ns();
    const std::uint64_t due =
        std::min(records, (now - start) / kLiveRecordSpacingNs + 1);
    if (due <= sent) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    out.late_ms.push_back(
        static_cast<double>(now - (start + sent * kLiveRecordSpacingNs)) /
        1e6);
    ok = daemon::write_all(fd, wire.data() + sent * kRecordBytes,
                           (due - sent) * kRecordBytes, stop);
    sent = due;
  }
  daemon::close_fd(fd);  // EOF ends the daemon's ingest cycle
  out.ok = ok;
  if (!ok) abort.store(true);
}

/// Epoch k closes on record k*interval - 1. It is due when the feeder's
/// schedule says so (open loop), or when the source released it (closed
/// loop); the lag runs until the poller first saw the epoch.
std::vector<double> epoch_lags(
    const Workload& workload, const std::vector<std::uint64_t>& seen_ns,
    std::uint64_t feed_start_ns,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& releases) {
  std::vector<double> lags;
  const std::uint64_t interval = workload.config.epoch_interval;
  std::size_t release = 0;
  for (std::uint64_t k = 1; k <= seen_ns.size(); ++k) {
    const std::uint64_t last = k * interval;  // routed when epoch k closes
    std::uint64_t due = 0;
    if (workload.live) {
      due = feed_start_ns + (last - 1) * kLiveRecordSpacingNs;
    } else {
      while (release < releases.size() && releases[release].first < last) {
        ++release;
      }
      if (release == releases.size()) break;
      due = releases[release].second;
    }
    const std::uint64_t seen = seen_ns[k - 1];
    lags.push_back(seen > due ? static_cast<double>(seen - due) / 1e6 : 0.0);
  }
  return lags;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      replay_workload("replay_paper_tables", std::size_t{1} << 22,
                      std::size_t{1} << 23),
      replay_workload("replay_small_tables", std::size_t{1} << 16,
                      std::size_t{1} << 16),
      live_workload(),
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Daemon::Daemon(daemon::DaemonConfig config)
    : registry(config.shards),
      metrics(registry),
      runner(instrument(std::move(config), metrics)),
      server(0, [this](const std::string& path) { return handle(path); }) {}

daemon::DaemonConfig Daemon::instrument(daemon::DaemonConfig config,
                                        dart::telemetry::RuntimeMetrics& m) {
  config.telemetry = &m;
  return config;
}

std::string Daemon::handle(const std::string& path) {
  SpanScope span("daemon.handler");
  if (path == "/healthz") return "ok\n";
  if (path == "/status") return render_status(runner.status());
  if (path == "/epoch") return runner.epoch_report();
  if (path == "/deterministic") {
    const std::string report = runner.final_report();
    return report.empty() ? runner.epoch_report() : report;
  }
  if (path == "/metrics") {
    return dart::telemetry::to_prometheus(registry.snapshot());
  }
  return std::string();
}

CycleResult run_cycle(const Workload& workload, const std::string& input,
                      bool watch, std::unique_ptr<Daemon>* keep) {
  CycleResult result;
  // Hand the previous cycle's freed heap back to the kernel, so every
  // cycle's resident high-water mark starts from the same state.
  malloc_trim(0);
  const double yardstick_before = host_yardstick_ms(workload.config.shards);
  SpanScope cycle_span("cycle");
  const std::uint64_t start = now_ns();

  std::optional<dart::trace::Trace> trace;
  {
    SpanScope span("trace.read");
    trace = dart::trace::read_binary_file(input);
  }
  if (!trace) {
    result.error = "cannot read " + input;
    return result;
  }

  // Inputs: the replay source owns the trace; the live feeder owns the
  // wire encoding of the fed prefix and the daemon never sees the trace.
  std::unique_ptr<daemon::PacketSource> source;
  daemon::SocketSource* socket = nullptr;
  std::vector<std::uint8_t> wire;
  if (workload.live) {
    result.offered = std::min<std::uint64_t>(kLiveRecordsPerCycle,
                                             trace->packets().size());
    wire.resize(result.offered * kRecordBytes);
    for (std::uint64_t i = 0; i < result.offered; ++i) {
      dart::trace::encode_packet_record(trace->packets()[i],
                                        wire.data() + i * kRecordBytes);
    }
    trace.reset();
    auto socket_source = std::make_unique<daemon::SocketSource>(0);
    socket = socket_source.get();
    source = std::move(socket_source);
  } else {
    result.offered = trace->packets().size();
    source = std::make_unique<daemon::ReplaySource>(std::move(*trace));
    trace.reset();
  }
  FeedResult fed;
  fed.late_ms.reserve(result.offered / 8 + 1024);

  const double rss_loaded = rss_mib();
  if (!reset_peak_rss()) {
    result.error = "cannot reset the resident high-water mark";
    return result;
  }

  auto d = std::make_unique<Daemon>(workload.config);
  if (!d->server.running() || (socket != nullptr && socket->port() == 0)) {
    result.error = "cannot bind loopback ports";
    return result;
  }
  TimedSource timed(*source, d->metrics);
  timed.releases.reserve(result.offered / 64 + 1024);

  std::atomic<bool> abort{false};
  // A cycle that has not drained two minutes in is aborted and fails.
  const std::uint64_t deadline = start + 120'000'000'000ULL;
  const daemon::StopFn stop = [&abort, deadline] {
    if (now_ns() > deadline) abort.store(true);
    return abort.load();
  };
  std::string report;
  {
    std::optional<Poller> poller;
    if (watch) poller.emplace(*d);
    std::jthread feeder;
    if (socket != nullptr) {
      feeder = std::jthread([&] {
        feed(socket->port(), wire, result.offered, abort, fed);
      });
    }
    // Every thread so far but this one (the router) is load generator or
    // query server: they share the helper CPU.
    timed.known_threads = thread_ids();
    for (const int tid : timed.known_threads) {
      if (tid != this_thread_id()) pin_thread(tid, helper_cpu());
    }
    {
      SpanScope span("daemon.run_cycle");
      report = d->runner.run_cycle(timed, stop);
    }
    const std::uint64_t done = now_ns();
    if (poller) poller->stop();
    if (feeder.joinable()) feeder.join();
    if (timed.worker_threads != workload.config.shards) {
      abort.store(true);
      result.error = "found " + std::to_string(timed.worker_threads) +
                     " shard worker threads, expected " +
                     std::to_string(workload.config.shards);
    }

    result.setup_s = seconds_between(start, timed.first_poll_ns);
    result.ingest_s = seconds_between(timed.first_poll_ns, done);
    result.drain_ms =
        timed.end_ns == 0 ? 0.0 : static_cast<double>(done - timed.end_ns) / 1e6;
    result.peak_rss_mb = peak_rss_mib() - rss_loaded;
    if (poller) {
      result.query_ms = std::move(poller->query_ms);
      result.queries = poller->queries;
      result.queries_failed = poller->failed;
      result.epoch_lag_ms =
          epoch_lags(workload, poller->seen_ns, fed.start_ns, timed.releases);
    }
  }
  result.yardstick_ms =
      (yardstick_before + host_yardstick_ms(workload.config.shards)) / 2;
  result.feeder_late_ms = std::move(fed.late_ms);
  result.empty_polls = timed.empty_polls;
  result.ring_occupancy_max = timed.ring_max;

  if (abort.load()) {
    if (result.error.empty()) {
      result.error = workload.live && !fed.ok ? "feeder failed"
                                              : "cycle aborted at deadline";
    }
    return result;
  }
  result.ran = true;
  result.report = std::move(report);
  if (keep != nullptr) *keep = std::move(d);
  return result;
}

std::string reference_text(const Workload& workload,
                           dart::trace::Trace trace) {
  if (workload.live) {
    if (trace.packets().size() > kLiveRecordsPerCycle) {
      trace.packets().resize(kLiveRecordsPerCycle);
    }
    daemon::ReplaySource source(std::move(trace));
    daemon::EpochRunner runner(workload.config);
    return runner.run_cycle(source, {});
  }
  const dart::core::DartConfig config =
      dart::core::ensure_feasible(workload.config.dart);
  dart::runtime::ShardRouter router(workload.config.shards,
                                    dart::runtime::ShardedConfig{}.route_seed);
  dart::analytics::LogHistogram hist;
  std::vector<std::unique_ptr<dart::core::DartMonitor>> monitors;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    monitors.push_back(std::make_unique<dart::core::DartMonitor>(
        config,
        [&hist](const dart::core::RttSample& s) { hist.add(s.rtt()); }));
  }
  for (const dart::PacketRecord& packet : trace.packets()) {
    monitors[router.route(packet.tuple)]->process(packet);
  }
  std::uint64_t samples = 0;
  for (const auto& monitor : monitors) samples += monitor->stats().samples;

  std::string out;
  out += "dart_samples_total " + std::to_string(samples) + "\n";
  out += "dart_rtt_ns_count " + std::to_string(hist.count()) + "\n";
  out += "dart_rtt_ns_min " + std::to_string(hist.min()) + "\n";
  out += "dart_rtt_ns_max " + std::to_string(hist.max()) + "\n";
  for (const double q : {0.5, 0.9, 0.99}) {
    out += "dart_rtt_ns{quantile=\"" + format17(q) + "\"} " +
           format17(hist.count() == 0 ? 0.0 : hist.quantile(q)) + "\n";
  }
  return out;
}

std::string pinned_text(const Workload& workload, const std::string& report) {
  if (workload.live) return report;
  std::istringstream in(report);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.rfind("dart_samples_total ", 0) == 0 ||
        line.rfind("dart_rtt_ns", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

std::uint64_t report_value(const std::string& report,
                           const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + key.size(), nullptr, 10);
}

std::vector<std::string> check_accounting(const std::string& report,
                                          std::uint64_t offered) {
  std::vector<std::string> failures;
  const auto identity = [&](const std::string& label) {
    const auto v = [&](const char* name) {
      return report_value(report, std::string(name) + label);
    };
    const std::uint64_t routed = v("dart_routed_total");
    const std::uint64_t settled = v("dart_processed_total") +
                                  v("dart_shed_total") +
                                  v("dart_abandoned_total") +
                                  v("dart_lost_to_crash_total");
    if (settled != routed) {
      failures.push_back("accounting identity broken" + label + ": " +
                         std::to_string(settled) +
                         " settled != " + std::to_string(routed) + " routed");
    }
    return routed;
  };
  std::uint64_t shard_routed = 0;
  for (std::uint32_t i = 0;
       report.find("{shard=\"" + std::to_string(i) + "\"}") !=
       std::string::npos;
       ++i) {
    shard_routed += identity("{shard=\"" + std::to_string(i) + "\"}");
  }
  const std::uint64_t routed = identity("");
  if (shard_routed != routed) {
    failures.push_back("shard routed totals do not sum to the aggregate");
  }
  if (routed != offered) {
    failures.push_back("routed " + std::to_string(routed) + " of " +
                       std::to_string(offered) + " offered records");
  }
  return failures;
}

}  // namespace dartbench
