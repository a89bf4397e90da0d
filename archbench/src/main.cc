// archbench: the ArchIS benchmark driver.
//
//   archbench --workload table3|archisd_mixed|ingest [--seed N]
//             [--seconds N] [--trace 0|1] [--work-dir DIR] [--trace-out FILE]
//
// DIR (default .bench_build/run-<pid>) holds the archives' WAL and
// checkpoint files and is removed at exit.
//
// Builds the workload from the seed, runs its fixed amount of work
// (--seconds x the workload's per-second quota), checks the answers and
// prints, as the last line, one JSON object with correct / attempted /
// failed and the metrics of the mode: end-to-end with --trace 0, per-layer
// with --trace 1 (spans are also written to FILE, by default
// .bench_build/trace-<workload>-seed<N>.json).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: archbench --workload table3|archisd_mixed|ingest "
               "[--seed N] [--seconds N] [--trace 0|1] [--work-dir DIR] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  archbench::Args args;
  args.seed = 1;
  args.work_dir = ".bench_build/run-" + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      args.work_dir = v;
    } else if (arg == "--trace-out") {
      args.trace_path = v;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();
  if (args.trace_path.empty()) {
    args.trace_path = ".bench_build/trace-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".json";
  }
  // The process embeds archisd: a peer that goes away must surface as a
  // write error, not kill the benchmark (archisd's main does the same).
  std::signal(SIGPIPE, SIG_IGN);

  archbench::RunResult result;
  if (args.workload == "table3") {
    result = archbench::RunTable3(args);
  } else if (args.workload == "archisd_mixed") {
    result = archbench::RunArchisdMixed(args);
  } else if (args.workload == "ingest") {
    result = archbench::RunIngest(args);
  } else {
    return Usage();
  }
  archbench::RemoveTree(args.work_dir);
  if (result.metrics.empty()) {
    // Set-up or recovery failed before anything was measured.
    for (const std::string& p : result.problems) {
      std::fprintf(stderr, "archbench: %s\n", p.c_str());
    }
    return 1;
  }
  archbench::PrintResult(result);
  return 0;
}
