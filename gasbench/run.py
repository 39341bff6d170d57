#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs a workload.

    python3 gasbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may be "all": every workload then runs in turn with the same
arguments, and the exit code is the first non-zero one.

Run it from the repository root.  Each call configures and builds (CMake,
Release) the library under src/ and the gas_bench program in gasbench/src/
into $CARGO_TARGET_DIR/gasbench, default .bench_build/gasbench; after the
first call that is a quick up-to-date check.  Build output goes to stderr.
gas_bench then runs with the given arguments; its last stdout line is the
result object and its exit code is passed through.  Result records and
Chrome traces land in the build directory's out/ folder.

Workloads: paper-fig4, serve-small, serve-mixed (see gasbench/README.md).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def work_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "gasbench")


def build():
    """Configures and builds gas_bench; returns its path, or None on failure."""
    build_dir = os.path.join(work_dir(), "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"gasbench: {' '.join(cmd[:2])} failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "gas_bench")


def main():
    exe = build()
    if exe is None:
        print("gasbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        i = args.index("--workload") + 1
        names = json.loads(subprocess.run([exe, "--list-metrics"], capture_output=True,
                                          text=True, check=True).stdout)["workloads"]
        runs = [args[:i] + [name] + args[i + 1:] for name in names]
    status = 0
    for run_args in runs:
        cmd = [exe, "--out-dir", os.path.join(work_dir(), "out")] + run_args
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"gasbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            code = 124
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
