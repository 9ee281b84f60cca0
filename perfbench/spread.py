#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads compile,design,serve]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), in the order seeds-major
so the workloads interleave, and prints for each workload and metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The bounds
in BENCHMARK.json were set from this output. Exits 1 if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="compile,design,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for seed in seeds_of(args.seeds):
        for w in workloads:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("run failed: %s seed %d (exit %d)\n%s" % (w, seed, out.returncode,
                                                                out.stderr[-2000:]))
                sys.exit(1)
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
    for w in workloads:
        print("== %s" % w)
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = float("nan")
            print("  %-24s median %-14.6g spread %.4f  (n=%d)" % (name, med, spread, len(vs)))


if __name__ == "__main__":
    main()
