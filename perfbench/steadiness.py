#!/usr/bin/env python3
"""Steadiness evidence for the benchmark's end-to-end metrics.

Runs every workload N times, interleaved (A B C A B C ...) so machine drift
spreads evenly over the workloads, each run with its own seed. For every
metric it reports the median, the quartile spread (Q3 - Q1) / median as
statistics.quantiles(values, n=4) gives the quartiles, and whether the
medians of the first and second half of the runs agree within the metric's
bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    wall = time.time() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result, wall


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    half = len(values) // 2
    first, second = statistics.median(values[:half]), statistics.median(values[half:])
    halves = abs(second - first) / first if first else 0.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "halves_diff": halves,
        "halves_agree": halves <= bound,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound", 0.0) for m in metrics}

    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    failures = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            result, wall = run_once(w, seed, bench["run_seconds"], args.trace)
            walls[w].append(round(wall, 2))
            if not result["correct"] or result["failed"]:
                failures.append({"workload": w, "seed": seed})
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i} {w} seed {seed}: {wall:.1f}s correct={result['correct']}",
                  file=sys.stderr)

    report = {"runs_per_workload": args.runs, "interleaved": True,
              "trace": args.trace, "seeds": [args.seed_base + i for i in range(args.runs)],
              "failures": failures, "wall_s": walls, "workloads": {}}
    for w in workloads:
        report["workloads"][w] = {m: summarize(v, bounds[m]) for m, v in values[w].items()}
        for m, s in report["workloads"][w].items():
            flag = "" if s["iqr_over_median"] <= s["bound"] / 3 else "  <-- above bound/3"
            if args.trace == 0:
                print(f"{w:16s} {m:18s} median {s['median']:12.4f} "
                      f"spread {s['iqr_over_median']:.3f} bound {s['bound']:.2f} "
                      f"halves {s['halves_diff']:.3f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
