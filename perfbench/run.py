#!/usr/bin/env python3
"""Builds be2d-server and the be2d-perfbench binary, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 20 --trace 0

Workloads: exact-scan, staged-sharded, write-mix (see perfbench/README.md).
Cargo builds into $CARGO_TARGET_DIR (default .bench_build); the run's
server log and WAL live under <target>/perfbench-work. The last line of
standard output is the JSON result; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "be2d-server", "--bin", "be2d-server"]),
        (os.path.join(ROOT, "perfbench", "Cargo.toml"), []),
    ]
    for manifest, extra in builds:
        if not os.path.isfile(manifest):
            print(f"error: {manifest} is missing; run from a full checkout", file=sys.stderr)
            return 2
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        if subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: build of {manifest} failed", file=sys.stderr)
            return 2

    bench = [
        os.path.join(target, "release", "be2d-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(target, "release", "be2d-server"),
        "--work", os.path.join(target, "perfbench-work"),
        "--rev", capture(["git", "rev-parse", "--short", "HEAD"]),
        "--rustc", capture(["rustc", "--version"]),
    ]
    return subprocess.run(bench, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
