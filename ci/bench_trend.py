#!/usr/bin/env python3
"""Bench trend gate: compare the current BENCH_*.json micro-benchmark
artifacts against the previous run's and flag regressions.

Usage:
    bench_trend.py --previous DIR --current DIR [--threshold 0.25] [--fail]
                   [--require-baseline]

Both directories hold BENCH_micro_crypto.json / BENCH_micro_sim.json (any
BENCH_*.json present in both is compared). Tracked series are the numeric
leaves whose key names a per-operation cost ("*us_per*": lower is better).
A tracked mean more than --threshold above the previous run emits a GitHub
"::warning" annotation (or "::error" + exit 1 with --fail); missing previous
artifacts are not an error, so the gate degrades gracefully on the first
run, on forks, and on expired artifact retention.

Against a committed baseline directory, pass --require-baseline: then a
current artifact without a readable baseline, or a run that compares no
tracked series at all, is an "::error" and exit 1 instead of a skip, so
the gate cannot pass by default.
"""

import argparse
import glob
import json
import os
import sys


def numeric_leaves(tree, prefix=""):
    """Flattens a JSON tree to {dotted.path: float} for numeric leaves."""
    out = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            out.update(numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            out.update(numeric_leaves(value, f"{prefix}{i}."))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[prefix.rstrip(".")] = float(tree)
    return out


def tracked(leaves):
    """The series worth gating: per-operation times ("*us_per*", lower is
    better) and throughputs ("*per_s*", higher is better)."""
    return {path: v for path, v in leaves.items()
            if "us_per" in path or "per_s" in path}


def higher_is_better(path):
    """Throughput series regress by dropping, not rising."""
    return "per_s" in path and "us_per" not in path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--previous", required=True, help="dir with the last run's BENCH_*.json")
    parser.add_argument("--current", required=True, help="dir with this run's BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that trips the gate (default 0.25)")
    parser.add_argument("--fail", action="store_true",
                        help="exit non-zero on regression instead of only warning")
    parser.add_argument("--require-baseline", action="store_true",
                        help="exit 1 when a current artifact has no readable baseline "
                             "or no tracked series is compared")
    args = parser.parse_args()

    missing = []

    def no_baseline(message):
        """A skip normally; an error that fails the gate with --require-baseline."""
        if args.require_baseline:
            print(f"::error title=bench baseline missing::{message}")
            missing.append(message)
        else:
            print(f"bench-trend: {message}; skipping")

    current_files = sorted(glob.glob(os.path.join(args.current, "BENCH_*.json")))
    if not current_files:
        no_baseline(f"no BENCH_*.json under {args.current}; nothing to compare")
        return 1 if missing else 0

    regressions = []
    compared = 0
    for current_path in current_files:
        name = os.path.basename(current_path)
        previous_path = os.path.join(args.previous, name)
        if not os.path.exists(previous_path):
            no_baseline(f"no previous {name} under {args.previous}")
            continue
        try:
            with open(previous_path) as f:
                previous = tracked(numeric_leaves(json.load(f)))
            with open(current_path) as f:
                current = tracked(numeric_leaves(json.load(f)))
        except (OSError, json.JSONDecodeError) as e:
            no_baseline(f"cannot parse {name}: {e}")
            continue

        for path, now in sorted(current.items()):
            before = previous.get(path)
            if before is None:
                # A series that exists now but not before (new bench, renamed
                # key) must be visible, not silently untracked -- a rename
                # would otherwise disable the gate for that series forever.
                print(f"bench-trend: {name}:{path}: no comparable baseline "
                      f"(series absent from previous run); not compared")
                continue
            if before <= 0.0:
                # A zero/negative previous mean makes the ratio meaningless
                # (and used to crash older versions with a divide-by-zero).
                print(f"bench-trend: {name}:{path}: no comparable baseline "
                      f"(previous value {before:.3f} <= 0); not compared")
                continue
            compared += 1
            ratio = now / before
            if higher_is_better(path):
                regressed = ratio < 1.0 - args.threshold
            else:
                regressed = ratio > 1.0 + args.threshold
            marker = " <-- REGRESSION" if regressed else ""
            print(f"bench-trend: {name}:{path}: {before:.3f} -> {now:.3f} "
                  f"({(ratio - 1.0) * 100.0:+.1f}%){marker}")
            if marker:
                regressions.append((name, path, before, now, ratio))

    for name, path, before, now, ratio in regressions:
        level = "error" if args.fail else "warning"
        verb = "dropped" if higher_is_better(path) else "slowed"
        print(f"::{level} title=bench regression::{name}:{path} {verb} "
              f"{abs(ratio - 1.0) * 100.0:.1f}% ({before:.3f} -> {now:.3f})")

    print(f"bench-trend: {compared} tracked series compared, "
          f"{len(regressions)} over the {args.threshold * 100.0:.0f}% threshold")
    if compared == 0 and not missing:
        no_baseline("no tracked series had a comparable baseline")
    if missing:
        return 1
    return 1 if (regressions and args.fail) else 0


if __name__ == "__main__":
    sys.exit(main())
