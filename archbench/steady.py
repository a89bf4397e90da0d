#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints every metric's
median, quartiles and spread.

    python3 archbench/steady.py [--runs 10] [--first-seed 1] [--seconds N]
                                [--trace 0|1] [--json OUT] [workload ...]

Run i uses seed first_seed + i. The spread of a metric is the distance
between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median; for every
end-to-end metric, setup_s included, it must stay within the metric's bound
in BENCHMARK.json, and the bounds were set from what this prints. The failed
share (failed / attempted) must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=["table3", "archisd_mixed", "ingest"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    record = {}
    ok = True
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                ok = False
                continue
            r = json.loads(out.stdout.splitlines()[-1])
            r["seed"] = seed
            results.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
        record[w] = results
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, failed share %s, all correct: %s" %
              (w, len(results), shares, all(r["correct"] for r in results)))
        ok = ok and len(shares) == 1 and all(r["correct"] for r in results)
        print("%-36s %6s %14s %14s %14s %8s %6s" %
              ("metric", "unit", "q1", "median", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if not spread <= bound:
                    flag = " OVER"
                    ok = False
                elif spread > bound / 3:
                    flag = " >1/3"
            print("%-36s %6s %14.6g %14.6g %14.6g %7.2f%% %6s%s" %
                  (name, unit, q1, med, q3, spread * 100,
                   "" if bound is None else "%.0f%%" % (bound * 100), flag))
        print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
