#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_dense --seed 1 --seconds 50 --trace 0

The first run configures and builds perfbench/ (which compiles the
repository's src/ tree) into .bench_build/perfbench; later runs only check
that the build is up to date. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the traced run's
spans are written to .bench_build/perfbench/spans/.

Every SND_* environment variable is removed before building and running:
those switches select alternative implementations or redirect artifacts,
and a result measured under one is not comparable.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_dense", "service_mixed")
# A run does about --seconds of work (half untraced, half traced with
# --trace 1) plus set-up and checks; anything far beyond that is a hang.
RUN_TIMEOUT_S = 175


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be from 1 to 3600")
    return args


def build(env):
    """Configures (once) and builds the perfbench target; False on failure."""
    if shutil.which("cmake") is None:
        print("run.py: cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    args = parse_args()
    env = {key: value for key, value in os.environ.items() if not key.startswith("SND_")}
    if not build(env):
        return 1
    command = [
        str(BUILD / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--golden", str(HERE / "golden.txt"),
    ]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
