#!/usr/bin/env python3
"""Steadiness check: run each workload several times and report the spread.

    python3 e2ebench/steady.py [--runs 10] [--seconds 10] [--trace 0]
                               [--workloads ingest,read_cold,mixed_hot]

Run it from the repository root. It runs the command in ``BENCHMARK.json``;
run i gets seed i (1, 2, ...). For every metric it prints the median, the
first and third quartiles (Python's ``statistics.quantiles(values, n=4)``),
the quartile distance as a share of the median (the figure held against
each end-to-end bound in ``BENCHMARK.json``), and the min/max spread. A
quartile distance above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    for workload in workloads:
        values = {}
        shares = set()
        walls = []
        for i in range(args.runs):
            seed = i + 1
            started = time.time()
            proc = subprocess.run(
                cmd
                + [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(args.trace),
                ],
                capture_output=True,
                text=True,
            )
            walls.append(time.time() - started)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(
            f"== {workload}: {args.runs} runs, seeds 1..{args.runs}, wall {min(walls):.1f}-{max(walls):.1f} s, "
            f"failed/attempted {sorted(shares)}"
        )
        print(
            f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'iqr/med':>8} {'bound':>6} {'min..max/med':>12}"
        )
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            iqr = (q3 - q1) / med if med else float("nan")
            span = (max(vals) - min(vals)) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and iqr > bound / 3:
                flag = "  <-- above a third of the bound"
            print(
                f"{name:<44} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                f"{iqr:>8.3f} {bound if bound is not None else '-':>6} {span:>12.3f}{flag}"
            )
        sys.stdout.flush()


if __name__ == "__main__":
    main()
