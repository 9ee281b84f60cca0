#!/usr/bin/env python3
"""The benchmark's own test: work counts repeat exactly at a fixed seed.

    python3 perfbench/test_counts.py [--seed N] [--seconds S]

Runs the traced run of every workload twice at the same seed and fails
(exit 1) unless every work count below is identical in both runs. These
are the counts a later change may claim on: they come from a fixed amount
of work (the output checks and the first round, or the first 2000 serve
requests) and so do not depend on how fast the host ran.
"""

import argparse
import json
import subprocess
import sys

COUNTS = [
    "dfg.cut_queries",
    "dfg.augmenting_paths",
    "core.certify_fast_share",
    "core.repairs",
    "sched.simulations",
    "sched.iterations",
    "explore.points_evaluated",
    "explore.points_pruned",
    "explore.prune_rate",
    "explore.memo_hit_rate",
    "explore.variants",
    "rebudget.memo_hits",
    "cache.tier2_hits",
    "cache.tier2_misses",
    "cache.evictions.tier1",
    "cache.evictions.tier2",
]


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s: traced run failed (exit %d)\n%s" % (workload, out.returncode,
                                                        out.stderr[-2000:]))
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in COUNTS}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for workload in ["compile", "design", "serve"]:
        a = traced(workload, args.seed, args.seconds)
        b = traced(workload, args.seed, args.seconds)
        diff = [k for k in COUNTS if a[k] != b[k]]
        print("%s: %s" % (workload, "counts repeat" if not diff else "DIFFER: " + ", ".join(
            "%s %s vs %s" % (k, a[k], b[k]) for k in diff)))
        ok = ok and not diff
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
