#!/usr/bin/env python3
"""Build and run the ArchIS benchmark.

    python3 archbench/run.py --workload table3|archisd_mixed|ingest
                             [--seed N] [--seconds N] [--trace 0|1]

Run from the repository root. The first call configures and builds the
ArchIS libraries from src/ plus the archbench driver into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later calls
rebuild incrementally. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

--trace 1 runs the workload twice on the same seed, first untraced and then
traced, and adds trace.overhead_pct: how much slower the traced run's
operations went (ops_s of the untraced run over trace.ops_s, minus 1).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table3", "archisd_mixed", "ingest")
# Settings that would change what is measured: the slow-query log, the
# flight recorder and logging.
CLEARED_ENV = ("ARCHIS_SLOW_QUERY_MS", "ARCHIS_FLIGHT_RECORDER",
               "ARCHIS_FR_RING", "ARCHIS_LOG", "ARCHIS_CRASHDUMP_DIR")
# One malloc arena for every thread. The process runs on one CPU (see
# pin_to_one_cpu), so threads never contend for it; with one arena per
# thread, which server worker happened to run a large checkpoint decided
# how much freed memory stayed resident, and peak_rss_mb moved with it.
PINNED_ENV = {"MALLOC_ARENA_MAX": "1"}
# Budget of the workload process(es) of one call, after the build: --trace 1
# runs the workload twice within it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def pin_to_one_cpu():
    """Runs the workload process on one CPU (the last it may use). Its
    threads still interleave, so reads still run beside commits; what the
    pin removes is cross-CPU wake-ups, which moved archisd_mixed's rate
    3.5x between runs on a shared 4-vCPU host."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fail(msg):
    print("archbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    cmake_dir = os.path.join(build_dir, "archbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # One build at a time per build directory.
    lock = open(os.path.join(build_dir, "build.lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    with lock, open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", BUILD_JOBS,
                      "--target", "archbench"])
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return os.path.join(cmake_dir, "archbench")


def run_once(binary, build_dir, args, traced, deadline):
    """Runs one workload, killed at `deadline` (time.monotonic());
    returns (output lines, parsed result)."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    work_dir = os.path.join(build_dir, "run-%d-%d" % (os.getpid(), traced))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--work-dir", work_dir, "--trace-out",
           os.path.join(build_dir, "trace-%s-seed%d.json" %
                        (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()),
                              universal_newlines=True,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line from %s" % args.workload)
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the ArchIS sources (src/) are not next to %s" % HERE)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    print("workload=%s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))

    if not args.trace:
        lines, result = run_once(binary, build_dir, args, traced=False,
                                 deadline=deadline)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    _, plain = run_once(binary, build_dir, args, traced=False,
                        deadline=deadline)
    lines, traced = run_once(binary, build_dir, args, traced=True,
                             deadline=deadline)
    untraced_ops_s = plain["metrics"]["ops_s"]["value"]
    traced_ops_s = traced["metrics"]["trace.ops_s"]["value"]
    overhead = (untraced_ops_s / traced_ops_s - 1.0) * 100.0
    traced["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    traced["correct"] = traced["correct"] and plain["correct"]
    print("\n".join(lines))
    print("tracing overhead: untraced ops_s=%.6g traced ops_s=%.6g (%+.2f%%)"
          % (untraced_ops_s, traced_ops_s, overhead))
    print(json.dumps(traced))


if __name__ == "__main__":
    main()
