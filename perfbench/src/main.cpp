// perfbench: one named workload against the full DEFLECTION stack.
//
//   perfbench --workload serve-echo|serve-image|admit --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//   perfbench --selftest
//
// Prints the host fingerprint and the seed, then, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced replay.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

// CPU budget of every workload: the process confines itself (and so every
// thread it starts) to the first two CPUs it may use. The serving loops are
// cross-thread ping-pongs; on a virtual machine whose other vCPUs the host
// may deschedule, wake-ups across vCPUs dominate the tail and swing from
// run to run, while two CPUs still give each of the two tenants its own.
constexpr int kCpuBudget = 2;

int confine_to_cpu_budget() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t budget;
  CPU_ZERO(&budget);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < kCpuBudget; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &budget);
      ++taken;
    }
  return sched_setaffinity(0, sizeof budget, &budget) == 0 ? taken : CPU_COUNT(&allowed);
}

}  // namespace

int main(int argc, char** argv) {
  // Allocator settings, fixed so that every run sees the same memory
  // behaviour. Each enclave address space is a ~30 MB buffer. By default
  // glibc serves such buffers by mmap until the first one is freed, then
  // from per-thread arenas that it may trim: whether a reset reuses a freed
  // buffer or faults in fresh pages then depends on the arena the
  // allocating thread happened to get and on trim timing, and changes from
  // run to run. One arena, buffers below 32 MB always from it, no trimming:
  // the steady state of a long-running server, from the first request.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Args args;
  args.work_dir = ".";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value().c_str(), nullptr);
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--work-dir") args.work_dir = value();
    else if (flag == "--selftest") selftest = true;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (selftest) return perfbench::run_selftest();
  if (args.workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const int cpus = confine_to_cpu_budget();
  std::printf("# host: %s\n", perfbench::host_fingerprint().c_str());
  std::printf("# cpus used: %d\n", cpus);
  std::printf("# workload: %s seed: %llu seconds: %g trace: %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);
  return args.trace ? perfbench::run_traced(args) : perfbench::run_workload(args);
}
