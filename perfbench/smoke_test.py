#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size (a few seconds).

For every workload in BENCHMARK.json it checks that
  * the ledger is exact: every emitted event archived exactly once (in
    total and wave by wave), no failed or mismatched query, `correct`
    true and exit code 0;
  * every end-to-end metric (untraced run) and every per-layer metric
    (traced run) is present, by name and unit;
  * one seed gives identical counts on two runs.
Run from the repository root:

    python3 perfbench/smoke_test.py
"""
import json
import subprocess
import sys

COUNTS = ("events_emitted", "events_archived", "events_counted_drops",
          "saturation_events", "open_loop_events", "queries", "queries_checked")


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    # Exit 1 is an incorrect run, which still prints its result.
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise AssertionError(f"{' '.join(cmd)}: exit {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    side = json.load(open(f".bench_out/{workload}-seed{seed}-trace{trace}.json"))
    diagnostics = {k: v["value"] for k, v in side["diagnostics"].items()}
    diagnostics["exit"] = proc.returncode
    return result, diagnostics


def check(workload, bench, errors):
    def expect(cond, what):
        if not cond:
            errors.append(f"{workload}: {what}")

    seed = 7
    first, diag1 = run(workload, seed, 0)
    second, diag2 = run(workload, seed, 0)
    traced, diag_t = run(workload, seed, 1)
    for name, result, diag in (("run 1", first, diag1), ("run 2", second, diag2),
                               ("traced run", traced, diag_t)):
        expect(result["correct"] is True, f"{name}: not correct")
        expect(diag["exit"] == 0, f"{name}: exit {diag['exit']}")
        expect(result["failed"] == 0, f"{name}: {result['failed']} failed")
        expect(result["attempted"] >= 1, f"{name}: nothing attempted")
        expect(diag["events_emitted"] ==
               diag["events_archived"] + diag["events_counted_drops"],
               f"{name}: ledger not exact")
        expect(diag["events_counted_drops"] == 0, f"{name}: events dropped")
        expect(diag["waves_mismatched"] == 0,
               f"{name}: {diag['waves_mismatched']} waves archived != emitted")
        expect(diag["error_rate"] == 0, f"{name}: error_rate {diag['error_rate']}")
    for metric in bench["end_to_end"]:
        got = first["metrics"].get(metric["name"])
        expect(got is not None and got["unit"] == metric["unit"],
               f"end-to-end metric {metric['name']} missing or mis-unit")
    for metric in bench["per_layer"]:
        got = traced["metrics"].get(metric["name"])
        expect(got is not None and got["unit"] == metric["unit"],
               f"per-layer metric {metric['name']} missing or mis-unit")
    expect(first["attempted"] == second["attempted"], "attempted differs across runs")
    for key in COUNTS:
        expect(diag1[key] == diag2[key],
               f"{key} differs across runs of one seed: {diag1[key]} vs {diag2[key]}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        check(workload, bench, errors)
        print(f"{workload}: {'ok' if not errors else 'FAIL'}", file=sys.stderr)
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke test:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
