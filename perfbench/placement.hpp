// Thread placement for the benchmark's pipeline.
//
// The router (the harness's main thread) and each ShardedMonitor worker run
// on a CPU of their own, and the load generator (poller, feeder, the query
// server's thread) shares one more. A kernel that balances load spreads
// these threads by itself. Where it does not (a cpuset with
// sched_load_balance off), a thread stays on the CPU of the thread that
// created it, so the router and both workers would time-share one CPU and
// the throughput would follow wherever the kernel happened to start them.
//
// The host yardstick times a fixed kernel on the same CPUs, so the
// end-to-end timings can be scaled to a reference host speed.
#pragma once

#include <cstddef>
#include <vector>

namespace dartbench {

/// Record the CPUs this process may run on; call once before any pinning.
void init_placement();

/// Thread ids of this process, ascending, and this thread's id.
std::vector<int> thread_ids();
int this_thread_id();

/// CPU of the router, of worker `i`, and of the load generator.
int router_cpu();
int worker_cpu(std::size_t i);
int helper_cpu();

/// Restrict thread `tid` (0: the calling thread) to `cpu`; false on error.
bool pin_thread(int tid, int cpu);

/// Pin every thread of this process that is not in `known` (ascending) to
/// the worker CPUs in creation order; returns how many threads were new.
/// Pinning is best effort: a thread the kernel refuses to pin runs where
/// the kernel puts it.
std::size_t pin_new_threads_as_workers(const std::vector<int>& known);

/// The host's speed on the pipeline's CPUs: the mean time, in ms, of a
/// fixed benchmark-owned compute kernel run at once on the router's CPU
/// and on the first `workers` worker CPUs.
double host_yardstick_ms(std::size_t workers);

}  // namespace dartbench
