#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with distinct seeds and,
for every end-to-end metric, prints the median, the quartiles, the
interquartile spread and max-min as shares of the median, against the
metric's bound in BENCHMARK.json.  Flags any spread above its bound (and,
as a warning, above a third of it).

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads forest-hubs,graph-road] [--seconds S]

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for w in a.workloads.split(","):
        results = [run_once(w, a.first_seed + i, a.seconds) for i in range(a.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{w}: {a.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and iqr > bound:
                flag = "  SPREAD ABOVE BOUND"
                flagged += 1
            elif iqr > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<24} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  iqr {100 * iqr:6.2f} %  max-min {100 * rng:6.2f} %"
                  f"  bound {100 * bound:5.1f} %{flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
