#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
dune into .bench_build/ (temporary files go there too), then one run of
the workload prints its notes and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero,
and no result is printed, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "_build", "default", "perfbench", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir",
             os.path.join(BUILD, "_build"), "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build did not finish: {e}")
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        ok = False
    if run.returncode != 0 or not ok:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
