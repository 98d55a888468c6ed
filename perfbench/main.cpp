// dartbench: the dartd end-to-end benchmark program.
//
//   dartbench gen --seed S --connections N --duration-s D --out FILE
//       write the seeded campus-mix input trace (.dtrc)
//   dartbench reference --workload W --input FILE --out FILE
//       write the expected output of workload W on the input
//   dartbench run --workload W --input FILE --reference FILE --seconds T
//                 [--trace 0|1] [--spans FILE]
//       run W's cycles for about T seconds, check every cycle's output and
//       print the metrics; the last stdout line is the JSON result
//
// perfbench/run.py builds this program, caches the input and reference per
// seed, and calls it; see BENCHMARK.json for the workloads and metrics.
// Exit codes: 0 ok, 1 an output check failed or the run broke, 2 usage.
#include <malloc.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gen/workload.hpp"
#include "layers.hpp"
#include "placement.hpp"
#include "spans.hpp"
#include "trace/trace_io.hpp"
#include "workloads.hpp"

namespace dartbench {
namespace {

struct Args {
  std::map<std::string, std::string> values;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    args.values[key.substr(2)] = argv[i + 1];
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string sysfs(const std::string& path) {
  std::string value;
  std::ifstream in(path);
  std::getline(in, value);
  return value;
}

/// The host and build this result was measured on.
std::string host_block() {
  std::string l2;
  std::string l3;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = sysfs(dir + "level");
    if (level == "2") l2 = sysfs(dir + "size");
    if (level == "3") l3 = sysfs(dir + "size");
  }
  std::string out = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"l2\": " + json_string(l2);
  out += ", \"l3\": " + json_string(l3);
  out += ", \"compiler\": " + json_string(DARTBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(DARTBENCH_BUILD_TYPE);
  out += ", \"dart_telemetry\": 1}";
  return out;
}

int cmd_gen(const Args& args) {
  dart::gen::CampusConfig config;
  config.seed = std::strtoull(args.get("seed", "0").c_str(), nullptr, 10);
  config.connections = static_cast<std::uint32_t>(
      std::strtoul(args.get("connections", "0").c_str(), nullptr, 10));
  config.duration = dart::sec(
      std::strtoull(args.get("duration-s", "0").c_str(), nullptr, 10));
  const std::string out = args.get("out");
  if (out.empty() || config.connections == 0) return 2;
  const dart::trace::Trace trace = dart::gen::build_campus(config);
  if (!dart::trace::write_binary_file(trace, out)) {
    std::cerr << "dartbench: cannot write " << out << "\n";
    return 1;
  }
  std::cerr << "dartbench: wrote " << trace.packets().size() << " packets\n";
  return 0;
}

int cmd_reference(const Args& args) {
  const Workload* workload = find_workload(args.get("workload"));
  if (workload == nullptr || args.get("out").empty()) return 2;
  auto trace = dart::trace::read_binary_file(args.get("input"));
  if (!trace) {
    std::cerr << "dartbench: cannot read " << args.get("input") << "\n";
    return 1;
  }
  std::ofstream out(args.get("out"), std::ios::binary);
  out << reference_text(*workload, std::move(*trace));
  return out ? 0 : 1;
}

/// Cycles for about `seconds`: another starts while at least half of the
/// previous one's duration fits, and at least `min_cycles` run.
std::vector<CycleResult> run_phase(const Workload& workload,
                                   const std::string& input, double seconds,
                                   std::size_t min_cycles, bool watch,
                                   std::uint32_t& run,
                                   std::unique_ptr<Daemon>* keep) {
  std::vector<CycleResult> cycles;
  const std::uint64_t start = now_ns();
  double last = 0;
  while (cycles.size() < min_cycles ||
         seconds_between(start, now_ns()) + last / 2 < seconds) {
    tracer().set_run(++run);
    const std::uint64_t cycle_start = now_ns();
    cycles.push_back(run_cycle(workload, input, watch, keep));
    last = seconds_between(cycle_start, now_ns());
    if (!cycles.back().ran) break;
  }
  return cycles;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One latency series of every cycle, concatenated.
std::vector<double> pooled(const std::vector<CycleResult>& cycles,
                           std::vector<double> CycleResult::*series) {
  std::vector<double> out;
  for (const CycleResult& c : cycles) {
    out.insert(out.end(), (c.*series).begin(), (c.*series).end());
  }
  return out;
}

/// host_yardstick_ms() on the reference host (a quiet 4-vCPU KVM guest,
/// Xeon, GCC 12.2, RelWithDebInfo). Only the ratio to it matters.
constexpr double kReferenceYardstickMs = 15.5;

/// The end-to-end metrics of a set of cycles: medians over the cycles.
/// With `at_reference_speed`, each cycle's CPU-bound times are scaled to
/// the reference host speed by its yardstick: setup and drain always, and
/// the ingest time on the replays. The open loop's ingest time follows the
/// feeder's schedule, not the host's speed, so it is not scaled.
std::vector<Metric> end_to_end(const Workload& workload,
                               const std::vector<CycleResult>& cycles,
                               bool at_reference_speed) {
  std::vector<double> setup, mpps, drain, rss;
  double samples_per_kpkt = 0;
  double delivered = 1.0;
  for (const CycleResult& c : cycles) {
    if (!c.ran) continue;
    const double slowdown =
        at_reference_speed ? c.yardstick_ms / kReferenceYardstickMs : 1.0;
    const auto routed =
        static_cast<double>(report_value(c.report, "dart_routed_total"));
    const auto processed =
        static_cast<double>(report_value(c.report, "dart_processed_total"));
    setup.push_back(c.setup_s / slowdown);
    mpps.push_back(routed / c.ingest_s / 1e6 *
                   (workload.live ? 1.0 : slowdown));
    drain.push_back(c.drain_ms / slowdown);
    rss.push_back(c.peak_rss_mb);
    samples_per_kpkt =
        routed == 0 ? 0.0
                    : 1000.0 *
                          static_cast<double>(
                              report_value(c.report, "dart_samples_total")) /
                          routed;
    delivered = std::min(delivered,
                         processed / static_cast<double>(c.offered));
  }
  return {
      {"setup_s", median(setup), "s"},
      {"throughput_mpps", median(mpps), "Mpps"},
      {"drain_ms", median(drain), "ms"},
      {"peak_rss_mb", median(rss), "MiB"},
      {"samples_per_kpkt", samples_per_kpkt, "count"},
      {"delivered_ratio", delivered, "ratio"},
  };
}

/// The live view's latencies in untraced watched cycles: epoch lag and
/// GET /epoch round trips. Only cycles with the poller have them, and the
/// replays' untraced cycles run without it, so they are recorded here,
/// without a bound, rather than gated as end-to-end metrics.
std::vector<Metric> live_view(const std::vector<CycleResult>& cycles) {
  const std::vector<double> lag = pooled(cycles, &CycleResult::epoch_lag_ms);
  const std::vector<double> query = pooled(cycles, &CycleResult::query_ms);
  return {{"daemon.epoch_lag_p50_ms", quantile(lag, 0.5), "ms"},
          {"daemon.epoch_lag_p99_ms", quantile(lag, 0.99), "ms"},
          {"daemon.query_p50_ms", quantile(query, 0.5), "ms"},
          {"daemon.query_p99_ms", quantile(query, 0.99), "ms"}};
}

std::vector<Metric> per_layer(const std::vector<CycleResult>& traced,
                              const std::map<std::string, double>& probed) {
  const std::map<std::string, LayerTime> layers = tracer().layer_times();
  const auto layer = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  // Self time per unit of work, and per call.
  const auto per_unit = [&](const char* name, double scale) {
    const LayerTime t = layer(name);
    return t.count == 0 ? 0.0 : t.self_ns / static_cast<double>(t.count) * scale;
  };
  const auto per_call = [&](const char* name, double scale) {
    const LayerTime t = layer(name);
    return t.calls == 0 ? 0.0 : t.self_ns / static_cast<double>(t.calls) * scale;
  };
  double empty_polls = 0;
  double ingest_s = 0;
  double ring_max = 0;
  std::vector<double> yardstick;
  for (const CycleResult& c : traced) {
    yardstick.push_back(c.yardstick_ms);
    empty_polls += static_cast<double>(c.empty_polls);
    ingest_s += c.ingest_s;
    ring_max = std::max(ring_max, static_cast<double>(c.ring_occupancy_max));
  }
  const LayerTime read = layer("trace.read");
  const auto probe = [&probed](const char* name) {
    const auto it = probed.find(name);
    return it == probed.end() ? 0.0 : it->second;
  };
  return {
      {"runtime.route_ns_per_pkt", per_unit("runtime.route", 1), "ns"},
      {"runtime.ring_ns_per_batch", per_unit("runtime.ring", 1), "ns"},
      {"runtime.process_all_ns_per_pkt", per_unit("runtime.process_all", 1),
       "ns"},
      {"runtime.backpressure_per_kbatch",
       probe("runtime.backpressure_per_kbatch"), "1/kbatch"},
      {"runtime.ring_occupancy_max", ring_max, "batches"},
      {"runtime.worker_busy_ratio", probe("runtime.worker_busy_ratio"),
       "ratio"},
      {"runtime.finish_ms", per_call("runtime.finish", 1e-6), "ms"},
      {"runtime.merge_ms", per_call("runtime.merge", 1e-6), "ms"},
      {"core.process_batch_ns_per_pkt", per_unit("core.process_batch", 1),
       "ns"},
      {"core.batch_decode_ns_per_pkt", per_unit("core.batch_decode", 1), "ns"},
      {"core.rt_ns_per_op", per_unit("core.rt", 1), "ns"},
      {"core.pt_ns_per_op", per_unit("core.pt", 1), "ns"},
      {"core.recirc_per_kpkt", probe("core.recirc_per_kpkt"), "1/kpkt"},
      {"core.pt_evictions_per_kpkt", probe("core.pt_evictions_per_kpkt"),
       "1/kpkt"},
      {"core.rt_overwrites_per_kpkt", probe("core.rt_overwrites_per_kpkt"),
       "1/kpkt"},
      {"core.pt_hit_ratio", probe("core.pt_hit_ratio"), "ratio"},
      {"core.rt_entries", probe("core.rt_entries"), "count"},
      {"core.pt_entries", probe("core.pt_entries"), "count"},
      {"analytics.hist_fold_ms", per_call("analytics.hist_fold", 1e-6), "ms"},
      {"analytics.sample_bytes", probe("analytics.sample_bytes"), "B"},
      {"analytics.sample_append_ns", per_unit("analytics.sample_append", 1),
       "ns"},
      {"daemon.poll_ns_per_pkt", per_unit("daemon.poll", 1), "ns"},
      {"daemon.empty_polls_per_s", ingest_s == 0 ? 0.0 : empty_polls / ingest_s,
       "1/s"},
      {"daemon.epoch_report_us", per_unit("daemon.epoch_report", 1e-3), "us"},
      {"daemon.status_us", per_unit("daemon.status", 1e-3), "us"},
      {"daemon.handler_us", per_call("daemon.handler", 1e-3), "us"},
      {"trace.read_s",
       read.calls == 0 ? 0.0 : read.total_ns / static_cast<double>(read.calls) / 1e9,
       "s"},
      {"trace.decode_ns_per_pkt", per_unit("trace.decode", 1), "ns"},
      {"telemetry.scrape_us", per_unit("telemetry.scrape", 1e-3), "us"},
      {"host.yardstick_ms", median(yardstick), "ms"},
  };
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << format_number(m.value) << " "
              << m.unit << "\n";
  }
}

int cmd_run(const Args& args) {
  const Workload* workload = find_workload(args.get("workload"));
  const std::string input = args.get("input");
  const double seconds = std::strtod(args.get("seconds", "0").c_str(), nullptr);
  const bool traced = args.get("trace", "0") == "1";
  if (workload == nullptr || input.empty() || !(seconds > 0)) return 2;
  const std::optional<std::string> reference = read_file(args.get("reference"));
  if (!reference) {
    std::cerr << "dartbench: cannot read the reference\n";
    return 1;
  }

  std::cout << "host " << host_block() << "\n";
  std::cout << "workload " << workload->name << "\n";
  if (!pin_thread(0, router_cpu())) {
    std::cerr << "dartbench: cannot pin the router thread; threads run "
                 "where the kernel puts them\n";
  }

  // Untraced cycles give the end-to-end metrics. The poller watches the
  // live view only on live_socket, so the replays stay a plain closed loop.
  // A traced run spends half its time untraced and half traced (their
  // difference is the tracing overhead), then probes each layer in
  // isolation. On the replays it first runs two untraced watched cycles,
  // which give the live-view latencies.
  std::uint32_t run = 0;
  std::unique_ptr<Daemon> drained;
  const std::vector<CycleResult> plain =
      run_phase(*workload, input, traced ? seconds / 2 : seconds, 3,
                workload->live, run, nullptr);
  std::vector<CycleResult> watched;
  std::vector<CycleResult> with_spans;
  if (traced) {
    if (!workload->live) {
      watched = run_phase(*workload, input, 0, 2, true, run, nullptr);
    }
    tracer().enable();
    with_spans = run_phase(*workload, input, seconds / 2, 2, workload->live,
                           run, &drained);
  }
  std::uint64_t attempted = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t failed_queries = 0;
  std::string first_report;
  for (const std::vector<CycleResult>* phase :
       std::initializer_list<const std::vector<CycleResult>*>{
           &plain, &watched, &with_spans}) {
    for (const CycleResult& c : *phase) {
      ++attempted;
      std::vector<std::string> failures;
      if (!c.ran) {
        failures.push_back(c.error);
      } else {
        failures = check_accounting(c.report, c.offered);
        if (first_report.empty()) first_report = c.report;
        if (c.report != first_report) {
          failures.push_back("report differs from the first cycle's");
        }
        if (pinned_text(*workload, c.report) != *reference) {
          failures.push_back("report differs from the reference");
        }
      }
      for (const std::string& f : failures) {
        std::cerr << "check failed: " << f << "\n";
      }
      if (!failures.empty()) ++check_failures;
      attempted += c.queries;
      failed_queries += c.queries_failed;
    }
  }
  std::cout << "cycles " << plain.size() << " untraced, " << watched.size()
            << " watched, " << with_spans.size() << " traced\n";
  for (const CycleResult& c : plain) {
    std::cout << "  cycle setup_s=" << format_number(c.setup_s)
              << " ingest_s=" << format_number(c.ingest_s)
              << " drain_ms=" << format_number(c.drain_ms)
              << " peak_rss_mb=" << format_number(c.peak_rss_mb)
              << " yardstick_ms=" << format_number(c.yardstick_ms) << "\n";
  }
  print_metrics("end-to-end (untraced, as measured)",
                end_to_end(*workload, plain, false));
  const std::vector<Metric> e2e = end_to_end(*workload, plain, true);
  print_metrics("end-to-end (untraced, at the reference host speed)", e2e);
  const std::vector<CycleResult>& view = workload->live ? plain : watched;
  const std::vector<double> lag = pooled(view, &CycleResult::epoch_lag_ms);
  const std::vector<double> query = pooled(view, &CycleResult::query_ms);
  const std::vector<double> late = pooled(plain, &CycleResult::feeder_late_ms);
  std::cout << "latency distributions (samples, p50, p90, p95, p99, max; ms)\n";
  for (const auto& [name, values] :
       {std::pair{"epoch_lag_ms", &lag}, std::pair{"query_ms", &query},
        std::pair{"feeder_late_ms", &late}}) {
    if (values->empty()) continue;
    std::cout << "  " << name << " " << values->size();
    for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
      std::cout << " " << format_number(quantile(*values, q));
    }
    std::cout << "\n";
  }

  std::vector<Metric> result = e2e;
  if (traced) {
    const std::vector<Metric> traced_e2e =
        end_to_end(*workload, with_spans, true);
    std::cout << "tracing overhead (traced vs untraced)\n";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const double base = e2e[i].value;
      std::cout << "  " << e2e[i].name << ": " << format_number(base) << " -> "
                << format_number(traced_e2e[i].value) << " "
                << e2e[i].unit;
      if (base != 0) {
        std::cout << " (" << format_number((traced_e2e[i].value - base) / base *
                                           100.0)
                  << "%)";
      }
      std::cout << "\n";
    }
    std::map<std::string, double> probed;
    if (drained != nullptr) {
      tracer().set_run(++run);
      auto trace = dart::trace::read_binary_file(input);
      if (trace) probed = probe_layers(*workload, *trace, *drained);
    }
    if (probed.empty()) {
      std::cerr << "check failed: the layer probes did not run\n";
      ++check_failures;
    }
    std::cout << "layer self time (span, calls, work, self ms)\n";
    for (const auto& [name, t] : tracer().layer_times()) {
      std::cout << "  " << name << " " << t.calls << " " << t.count << " "
                << format_number(t.self_ns / 1e6) << "\n";
    }
    result = per_layer(with_spans, probed);
    for (const Metric& m : live_view(view)) result.push_back(m);
    print_metrics("per-layer (traced)", result);
    const std::string spans = args.get("spans");
    if (!spans.empty() && !tracer().write_tsv(spans)) {
      std::cerr << "dartbench: cannot write " << spans << "\n";
    }
  }

  const bool correct = check_failures == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << check_failures + failed_queries
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << json_string(result[i].name)
              << ": {\"value\": " << format_number(result[i].value)
              << ", \"unit\": " << json_string(result[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dartbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first large free, so later cycles keep big buffers on
  // the heap and their resident peaks differ from the first cycle's.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  dartbench::init_placement();
  dartbench::Args args;
  if (argc < 2 || !dartbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: dartbench gen|reference|run --key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  int code = 2;
  if (command == "gen") code = dartbench::cmd_gen(args);
  if (command == "reference") code = dartbench::cmd_reference(args);
  if (command == "run") code = dartbench::cmd_run(args);
  if (code == 2) std::cerr << "usage: dartbench gen|reference|run --key value ...\n";
  return code;
}
