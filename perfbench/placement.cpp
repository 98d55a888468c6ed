#include "placement.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace dartbench {
namespace {

std::vector<int>& cpus() {
  static std::vector<int> allowed;
  return allowed;
}

}  // namespace

void init_placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int>& allowed = cpus();
  allowed.clear();
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
  }
  if (allowed.empty()) allowed.push_back(0);
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) ids.push_back(tid);
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int this_thread_id() { return static_cast<int>(::syscall(SYS_gettid)); }

// With four or more CPUs the load generator takes the first, which also
// takes most of the host's interrupts, the router the second and the
// workers the rest. With fewer, the router takes the first CPU, the workers
// the others, and the load generator shares the last.
int router_cpu() {
  const std::vector<int>& allowed = cpus();
  return allowed.size() >= 4 ? allowed[1] : allowed.front();
}

int worker_cpu(std::size_t i) {
  const std::vector<int>& allowed = cpus();
  if (allowed.size() < 2) return allowed.front();
  const std::size_t first = allowed.size() >= 4 ? 2 : 1;
  return allowed[first + i % (allowed.size() - first)];
}

int helper_cpu() {
  const std::vector<int>& allowed = cpus();
  return allowed.size() >= 4 ? allowed.front() : allowed.back();
}

bool pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::size_t pin_new_threads_as_workers(const std::vector<int>& known) {
  std::size_t found = 0;
  for (const int tid : thread_ids()) {
    if (std::binary_search(known.begin(), known.end(), tid)) continue;
    pin_thread(tid, worker_cpu(found++));
  }
  return found;
}

namespace {

/// A chain of dependent multiply-adds: it runs at the core's speed, and
/// moves with the clock and with whatever shares the core, but it touches
/// no memory, so it ignores the cache state the program leaves behind.
double kernel_ms() {
  constexpr std::uint64_t kSteps = 10'000'000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

double host_yardstick_ms(std::size_t workers) {
  std::vector<double> times(workers + 1);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back([&times, i] {
        pin_thread(0, worker_cpu(i));
        times[i + 1] = kernel_ms();
      });
    }
    times[0] = kernel_ms();
  }
  double sum = 0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

}  // namespace dartbench
