#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload NAME --seconds S --trace 0|1 --seeds 321,322,... \\
        --out BENCH.json

DIR is the root of a checkout (the parent commit and the change). For
each seed, both sides run `python3 perfbench/run.py` once with the same
arguments; the parent runs first on even-indexed seeds and second on
odd ones, so drift of the host's speed over minutes falls on both sides
alike. Every run is appended to the JSON list in --out (created if
missing) as one object: workload, seed, side ("parent" or "change"),
seconds, trace, and the run's final JSON line as "result" (or "error"
with the tail of stderr when the run failed).
"""

import argparse
import json
import os
import subprocess


def run(root, workload, seed, seconds, trace):
    r = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().split("\n")
    try:
        return {"result": json.loads(lines[-1])}
    except ValueError:
        return {"error": r.stderr[-500:]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    roots = {"parent": args.parent, "change": args.change}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = {"workload": args.workload, "seed": seed, "side": side,
                   "seconds": args.seconds, "trace": args.trace}
            rec.update(run(roots[side], args.workload, seed, args.seconds,
                           args.trace))
            runs = []
            if os.path.exists(args.out):
                with open(args.out) as f:
                    runs = json.load(f)
            runs.append(rec)
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)
                f.write("\n")


if __name__ == "__main__":
    main()
