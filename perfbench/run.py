#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator libraries and the benchmark driver (Release) into .bench_build;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. The exit status is the
driver's: 0 when every output check passed.

--workload all runs the four workloads one after another, one driver
process each, and ends with one JSON line whose metric names carry a
"<workload>." prefix; it fails if any workload fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig-grid", "torture", "serve", "gpm-wide")
# Beyond --seconds, a run spends a few seconds on set-up, warm-up and
# output checks. At the benchmark's 25 s it must end within 180 s.
RUN_MARGIN_S = 145


def build():
    """Configure once, then build the driver; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources missing under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def run_driver(binary, workload, args):
    """Run one workload, echoing its output; return (status, last line)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timeout = args.seconds + RUN_MARGIN_S
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line.strip() or last
        status = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if status < 0:
        print(f"perfbench: {workload} killed after {timeout} s",
              file=sys.stderr)
        status = 4
    return status, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 1 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 1 and --seconds in [1, 3600]")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.workload != "all":
        return run_driver(binary, args.workload, args)[0]

    worst = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        status, last = run_driver(binary, workload, args)
        worst = worst or status
        try:
            result = json.loads(last)
        except ValueError:
            total["correct"] = False
            worst = worst or 1
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 1 if worst or not total["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
