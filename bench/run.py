"""Benchmark of the `snul` command line: certify, fit and derive.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: snul is imported from `src/` next to
this directory, never from an installed copy.  One closed-loop client runs
the workload's jobs one at a time, in-process through `snul.cli.main` with
stdout captured and parsed, and checks every output against its known answer
(see workloads.py).  A pass is one run through the job list; passes repeat
for about S seconds (see `measure`).  Each run is a fresh interpreter, and
every `snul` command builds its own lattice, so lattice caches start cold in
every job, as they do for a command-line user.

--trace 0 prints the end-to-end metrics, measured without tracing.
--trace 1 pairs each untraced pass with a traced one, in turn first, and
prints the per-layer metrics from the traced passes (tracing.py), plus the
tracing overhead.  It also requires the traced outputs to equal the
untraced ones apart from `timings`, and the layer counts to repeat exactly
between traced passes.

Stage and layer times come only from the benchmark's own spans.
`Certificate.timings` is never read: each of its entries is the time since
`certify` started, not the duration of the stage.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a report with the run
metadata, fail_frac = failed/attempted and the verdict of every job kind.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is sampled in a fresh interpreter (setup_sample.py) at the start of
# every cycle: one sample per this many seconds of the previous pass, at
# least one, so that every workload gets about as many samples per run, and
# neither one slow import nor one slow moment of the machine decides the
# median.
SETUP_EVERY_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def import_snul():
    """Import snul from this checkout and return its cli module."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("snul.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"snul imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv):
    """One `snul` command; returns (exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), None


def run_pass(cli, jobs, clock, tracer=None):
    """Run every job once.  Returns per-job (exit code, stdout, error, raw
    seconds, scaled seconds); see speed.py."""
    results = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        (rc, stdout, error), raw, scaled = clock.time(invoke, cli, job.argv)
        results.append((rc, stdout, error, raw, scaled))
    return results


def setup_samples(workload, seed, workdir, count, clock):
    """`count` set-up samples in fresh interpreters; returns raw and scaled
    seconds and the number of modules each loaded."""
    raws, scaleds, modules = [], [], []
    (workdir / "setup").mkdir(exist_ok=True)
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_sample.py"), workload, str(seed),
             str(workdir / "setup")],
            capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(proc.stdout)
        raws.append(sample["setup_s"])
        scaleds.append(clock.scale(sample["setup_s"]))
        modules.append(sample["modules"])
    return raws, scaleds, modules


def parse_output(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_results(jobs, results, failures, verdicts, reference=None):
    """Known-answer check of one pass; returns the number of failed jobs.
    With `reference` (the untraced pass), a job whose output differs from
    the reference apart from `timings` fails too."""
    failed = 0
    for idx, (job, (rc, stdout, error, _, _)) in enumerate(zip(jobs, results)):
        out = parse_output(stdout)
        if error is not None:
            problem = error
        elif out is None:
            problem = f"exit code {rc}, output is not JSON"
        else:
            try:
                problem = job.check(rc, out)
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"
        if problem is None and reference is not None:
            plain = reference[idx]
            if plain[0] != rc or without_timings(plain[1]) != without_timings(stdout):
                problem = "traced output differs from untraced"
        verdicts.setdefault(job.kind, set()).add(workloads.verdict(rc, out))
        if problem is not None:
            failed += 1
            failures.append(f"{job.kind}: {problem}")
    return failed


def without_timings(stdout):
    out = parse_output(stdout)
    if isinstance(out, dict):
        out.pop("timings", None)
        return json.dumps(out)
    return stdout


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "snul").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def measure(workload, seed, seconds, trace, workdir):
    failures: list[str] = []
    verdicts: dict[str, set] = {}
    attempted = failed = 0
    walls, raw_walls, job_p50s, job_tails = [], [], [], []
    setups, raw_setups, setup_modules = [], [], []
    overheads, layer_runs = [], []
    tracer = tracing.Tracer() if trace else None
    clock = speed.Clock()
    cli = import_snul()
    jobs = workloads.generate(workload, seed, workdir)
    begin = time.perf_counter()
    # Cycles repeat while the next one is expected to end less than half a
    # cycle after `seconds`.
    while not walls or (time.perf_counter() - begin) * (1 + 0.5 / len(walls)) < seconds:
        if not trace:
            count = max(1, round(walls[-1] / SETUP_EVERY_S)) if walls else 1
            raw, value, modules = setup_samples(workload, seed, workdir, count, clock)
            raw_setups += raw
            setups += value
            setup_modules += modules
        gc.collect()
        # A traced cycle runs an untraced and a traced pass, in turn first.
        traced_first = trace and len(walls) % 2 == 1
        if traced_first:
            traced = run_traced(cli, jobs, clock, tracer)
        results = run_pass(cli, jobs, clock)
        times = [r[4] for r in results]
        walls.append(sum(times))
        raw_walls.append(sum(r[3] for r in results))
        job_p50s.append(statistics.median(times))
        job_tails.append(max(times))
        attempted += len(results)
        failed += check_results(jobs, results, failures, verdicts)
        if not trace:
            continue
        if not traced_first:
            traced = run_traced(cli, jobs, clock, tracer)
        overheads.append(sum(r[4] for r in traced) / walls[-1] - 1)
        layer_runs.append(tracer.layer_metrics())
        attempted += len(traced)
        failed += check_results(jobs, traced, failures, verdicts, reference=results)

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "passes": len(walls),
        "jobs_per_pass": len(jobs),
        "pass_walls": walls,
        "raw_pass_walls": raw_walls,
        "verdicts": {kind: sorted(v) for kind, v in sorted(verdicts.items())},
    }
    if trace:
        counts = {m: [run[m] for run in layer_runs] for m in tracing.COUNT_METRICS}
        unsteady = [m for m, vals in counts.items() if len(set(vals)) > 1]
        if unsteady:
            failed += 1
            failures.append(f"counts differ between traced passes: {unsteady}")
        metrics = {}
        for name, unit in tracing.LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(overheads)
            elif name in tracing.COUNT_METRICS:
                value = layer_runs[0][name]
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
        report["trace_overheads"] = overheads
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(spans_dir / f"{workload}-seed{seed}.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "parent", "job", "start", "end"],
                       "spans": tracer.span_dump()}, fh)
    else:
        report["raw_setup_s"] = statistics.median(raw_setups)
        report["setup_modules"] = max(setup_modules)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(job_p50s),
            "job_tail_s": statistics.median(job_tails),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    report["fail_frac"] = failed / attempted
    report["failures"] = failures[:10]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def run_traced(cli, jobs, clock, tracer):
    tracer.reset()
    tracer.install()
    try:
        return run_pass(cli, jobs, clock, tracer)
    finally:
        tracer.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snul" / "cli.py").is_file():
        print(f"error: no snul sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir)
    except ImportError as exc:
        print(f"error: cannot import snul: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
