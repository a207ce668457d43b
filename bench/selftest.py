"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload it runs bench/run.py three times, one pass each: traced
twice on SEED and untraced once on SECOND_SEED.  It requires that

- every run is correct, with fail_frac 0 (a traced run also fails when a
  traced output differs from the untraced one apart from `timings`, or when
  layer counts differ between its traced passes);
- the two traced runs give identical counts: every *_calls metric,
  series.coeff_ops and fieldext.max_bits;
- the second seed gives the same known-answer verdict for every job kind;
- every per-layer metric is nonzero on at least one workload, so no layer
  escapes the wrapping;
- the metrics printed are exactly those that BENCHMARK.json names, with the
  same units;
- in a directory holding only BENCHMARK.json and bench/, run.py exits with a
  nonzero code and prints no result.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECOND_SEED = 2


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if layer_units != tracing.LAYER_UNITS:
        problems.append("per_layer in BENCHMARK.json differs from tracing.LAYER_UNITS")
    nonzero = set()

    for workload in workloads.WORKLOADS:
        runs = [run(workload, SEED, 1), run(workload, SEED, 1),
                run(workload, SECOND_SEED, 0)]
        for report, result in runs:
            if not result["correct"] or result["failed"] or report["fail_frac"]:
                problems.append(f"{workload} seed {report['seed']}: {report['failures']}")
        (rep1, res1), (_, res2), (rep3, res3) = runs
        for name in tracing.COUNT_METRICS:
            a, b = res1["metrics"][name]["value"], res2["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} in one traced run, {b} in another")
        if rep1["verdicts"] != rep3["verdicts"]:
            problems.append(f"{workload}: verdicts change with the seed: "
                            f"{rep1['verdicts']} vs {rep3['verdicts']}")
        for result, units in ((res1, layer_units), (res3, e2e_units)):
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload}: printed metrics {got} differ from "
                                f"BENCHMARK.json {units}")
        nonzero |= {n for n, m in res1["metrics"].items() if m["value"]}
        print(f"{workload}: checked", flush=True)

    for name in layer_units:
        if name not in nonzero:
            problems.append(f"per-layer metric {name} is zero on every workload")

    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workloads.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("run.py succeeded without the snul sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
