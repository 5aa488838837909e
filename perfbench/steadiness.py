#!/usr/bin/env python3
"""Run the benchmark on several seeds and check that it is steady.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--first-seed 1] [--baseline FILE]
                                    [--logs DIR]

For each workload, runs `perfbench/run.py --trace 0` once per seed and,
for every end-to-end metric in BENCHMARK.json, prints the median, the
quartiles (statistics.quantiles(n=4)) and the spread: the quartile
distance as a share of the median. A spread above a third of the
metric's bound is flagged.
--baseline writes those figures, with the host thread count, build
type and commit, as JSON; --logs keeps each run's stdout, per-pass
times included. Exit status is 1 when any run fails or any spread is
flagged.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, logs):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if logs:
        with open(os.path.join(logs, f"{workload}.{seed}.txt"), "w") as f:
            f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--baseline")
    ap.add_argument("--logs", help="directory to keep each run's stdout in")
    args = ap.parse_args()
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    flagged = False
    report = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i, seconds,
                                    args.logs)
            walls.append(wall)
            got = result["metrics"]
            if set(got) != set(metrics):
                raise RuntimeError(f"{workload}: metrics {sorted(got)} != "
                                   f"BENCHMARK.json {sorted(metrics)}")
            for name in metrics:
                values[name].append(got[name]["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        report[workload] = {}
        for name, m in metrics.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            bad = spread > limit
            flagged |= bad
            print(f"  {name:18s} median {med:.6g} {m['unit']:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"(bound/3 {limit:.4f}){'  <-- NOT STEADY' if bad else ''}")
            report[workload][name] = {"unit": m["unit"], "median": med,
                                      "q1": q1, "q3": q3, "spread": spread,
                                      "values": v}
    if args.baseline:
        doc = {
            "commit": commit(),
            "build_type": "Release",
            "host_threads": os.cpu_count(),
            "host": platform.processor() or platform.machine(),
            "run_seconds": seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": report,
        }
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
