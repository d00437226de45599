#!/usr/bin/env python3
"""Builds hefbench from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload ssb-scan --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the first run compiles the engine
libraries, later runs only check that the build is up to date. Build
output goes to stderr. hefbench's stdout is passed through unchanged: its last
line is the result object. With --trace 1 the span log is written to
<build>/traces/<workload>-seed<seed>.json.

Exits with hefbench's code, or 1 when the build fails or a step times out.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an existing build directory takes well under a second,
    # and always doing it recovers from an interrupted first configure.
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "hefbench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    try:
        if not build(out):
            print("run.py: build failed", file=sys.stderr)
            return 1
        cmd = [str(out / "hefbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.trace == "1":
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace_out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
