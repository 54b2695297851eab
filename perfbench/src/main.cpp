// One rep of one benchmark workload, in its own process so that its set-up
// time and memory high-water mark are its own.
//
//   fedbench --workload NAME --seed N [--trace 0|1] [--trace-file PATH]
//
// Prints one JSON line with everything perfbench/run.py gates and
// aggregates; exits nonzero only when the rep cannot run at all.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RepOptions opt;
  opt.process_start = perfbench::Clock::now();
  opt.nproc = std::max(1U, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--trace") {
      opt.traced = value == "1";
    } else if (key == "--trace-file") {
      opt.trace_path = value;
    } else {
      std::fprintf(stderr, "fedbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "usage: fedbench --workload NAME --seed N "
                         "[--trace 0|1] [--trace-file PATH]\nworkloads:");
    for (const std::string& w : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    const std::string line = perfbench::run_rep(opt);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedbench: %s\n", e.what());
    return 1;
  }
}
