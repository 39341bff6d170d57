#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 gasbench/selftest.py [--seconds S]

Run it from the repository root.  It builds gas_bench (as run.py does) and
checks that:
  1. the reference checker rejects an unsorted row, a dropped payload pair
     and a non-Ok status, and accepts correct outputs (gas_bench --selftest);
  2. the metric catalogue compiled into gas_bench equals BENCHMARK.json's
     end_to_end / per_layer lists (names and units) and its workloads;
  3. a short run of every workload, untraced and traced, prints as its last
     line exactly {correct, attempted, failed, metrics} with exactly the
     BENCHMARK.json metric names for that mode, correct, with no failures;
  4. on paper-fig4 the layer spans of the decomposed sorts cover at least
     MIN_COVERAGE of the traced gpu_array_sort's wall time.
Exits non-zero on the first kind of failure it finds, after reporting all.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

# Share of a traced paper-fig4 sort's wall time its layer spans must cover.
MIN_COVERAGE = 0.9


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="measured seconds of each short run (default 2)")
    args = ap.parse_args()
    problems = []

    exe = bench_run.build()
    if exe is None:
        print("selftest: build failed")
        return 1

    if subprocess.run([exe, "--selftest"]).returncode != 0:
        problems.append("checker self-test failed")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalogue = json.loads(subprocess.run([exe, "--list-metrics"], capture_output=True,
                                          text=True, check=True).stdout)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        have = [(m["name"], m["unit"]) for m in catalogue[key]]
        if want != have:
            problems.append(f"{key}: BENCHMARK.json {want} != gas_bench {have}")
    if [w["name"] for w in spec["workloads"]] != catalogue["workloads"]:
        problems.append("workload names differ between BENCHMARK.json and gas_bench")

    out_dir = os.path.join(bench_run.work_dir(), "selftest-out")
    for workload in catalogue["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [exe, "--workload", workload, "--seed", "7", "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out-dir", out_dir],
                capture_output=True, text=True, timeout=bench_run.RUN_TIMEOUT_S)
            tag = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            names = list(result["metrics"])
            want = [m["name"] for m in spec[key]]
            if names != want:
                problems.append(f"{tag}: printed metrics {names} != {want}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            coverage = result["metrics"].get("trace.span_coverage", {}).get("value")
            if workload == "paper-fig4" and trace == 1 and not coverage >= MIN_COVERAGE:
                problems.append(f"{tag}: layer spans cover {coverage} of the traced sort, "
                                f"below {MIN_COVERAGE}")
            print(f"selftest {tag}: {len(names)} metrics, {result['attempted']} units")

    for p in problems:
        print("selftest FAILED:", p)
    print("selftest:", "all checks passed" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
