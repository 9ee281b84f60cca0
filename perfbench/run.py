#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload compile|design|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/srfa_serve.exe with dune inside the
tree (no shared dune cache), runs one workload, and passes its output
through: the last stdout line is the JSON result object. Exits non-zero
without a result when the tree cannot be built, and with the benchmark's
own exit code (1 on any output-check mismatch) otherwise.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
OUT_DIR = os.path.join("perfbench", "out")
BENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "srfa_serve.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.md5()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top)
            if not d.startswith(OUT_DIR) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def reap_group(pgid):
    """Kill whatever the benchmark left in its process group (a daemon
    orphaned by a crash) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["compile", "design", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", os.path.join("lib", "core"),
                   os.path.join("bin", "srfa_serve.ml"),
                   os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("run from the root of the source tree (missing %s)" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
             "./bin/srfa_serve.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--daemon", DAEMON, "--commit", source_revision()]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 124
    reap_group(proc.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()
