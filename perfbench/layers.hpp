// Per-layer probes of the traced run.
//
// Each probe drives one layer's public functions over the workload's input
// at the workload's per-shard config, inside a span named after the layer
// (src/ module + function), so its self time per unit of work is that
// layer's cost in isolation. Counters the layers keep (DartStats,
// RuntimeHealth, telemetry families, table occupancy) are returned as
// values.
#pragma once

#include <map>
#include <string>

#include "trace/trace.hpp"
#include "workloads.hpp"

namespace dartbench {

std::map<std::string, double> probe_layers(const Workload& workload,
                                           const dart::trace::Trace& trace,
                                           Daemon& drained);

}  // namespace dartbench
