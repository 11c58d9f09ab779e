#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload mandelbrot --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn. The build goes to
`.bench_build/` at the checkout root (configured once, then incremental).
The benchmark's last stdout line is the result JSON; its exit status is passed
through (nonzero on any failed loop). HDLS_* environment knobs are removed
from the benchmark's environment so every cell runs the configuration the
benchmark names.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORKLOADS = ["mandelbrot", "fine-grain", "psia-adaptive"]
RUN_TIMEOUT_S = 175


def build():
    if not all((ROOT / f).is_file() for f in ("CMakeLists.txt", "src/core/runner.hpp")):
        sys.exit(f"perfbench: no hdls sources next to {HERE}; nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(workload, args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HDLS_")}
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run(workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
