"""infomarket benchmark: one run of one workload.

    python3 perfbench/run.py --workload jcurve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads: jcurve, markov, analytics (see
README.md). The run

1. times set-up (``setup_s``) in several fresh interpreters,
2. generates the workload's inputs from ``--seed``,
3. runs the workload for ``--seconds`` in a fresh process (workload.py),
   checking every output outside the timed region,
4. writes a results file with provenance under ``.perfbench_out/results/``,
5. prints a readable summary, then one JSON line as the last line: the
   end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

``--smoke`` shrinks every size so a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("jcurve", "markov", "analytics")
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this

# Set-up as a user pays it on every CLI call: import the CLI and build the
# workload's preset config, timed inside a fresh interpreter.
_SETUP_CODE = {
    "jcurve": "presets.batch_for_preset('jcurve10', 0)",
    "markov": "presets.switching_for_preset('markov3')",
    "analytics": "pass",
}
_PROBE = """\
import sys, time
sys.path.insert(0, {here!r})
import calibrate
before = calibrate.block()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import infomarket.cli
from infomarket import presets
{build}
wall = time.perf_counter() - t0
print(wall, wall * calibrate.scale(before + calibrate.block()))
"""
SETUP_PROBES = 10  # the first one (byte-compilation, cold caches) is discarded
SMOKE_SETUP_PROBES = 2


def _run_child(argv: list[str], deadline: float, log: Path | None = None) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group at the deadline."""
    stdout = open(log, "w") if log is not None else subprocess.PIPE
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=stdout,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    finally:
        if log is not None:
            stdout.close()
    return subprocess.CompletedProcess(argv, proc.returncode, out, None)


def measure_setup(workload: str, probes: int, deadline: float) -> list[tuple[float, float]]:
    """(raw seconds, normalized seconds) of each probe but the first."""
    code = _PROBE.format(here=str(HERE), src=str(SRC), build=_SETUP_CODE[workload])
    samples = []
    for _ in range(probes):
        proc = _run_child([sys.executable, "-c", code], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stdout}")
        wall, normalized = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append((wall, normalized))
    return samples[1:]


def provenance(args, sizes: dict, load_start) -> dict:
    import numpy

    commit, dirty = "unknown: not a git checkout", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": sizes,
    }


def end_to_end(measure: dict, setup: list[tuple[float, float]], normalized: bool) -> dict[str, float]:
    """Medians over the untraced iterations, of normalized or of raw timings."""
    column = "normalized" if normalized else "timings"
    untraced = [it[column] for it in measure["iterations"] if not it["traced"]]
    metrics = {"setup_s": statistics.median(probe[normalized] for probe in setup)}
    for key in untraced[0]:
        metrics[key] = statistics.median(t[key] for t in untraced)
    metrics["peak_rss_mb"] = measure["peak_rss_mb"]
    metrics["ops_failed_frac"] = measure["failed"] / measure["attempted"]
    return metrics


def per_layer(measure: dict, e2e: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced iterations, counts as counted."""
    traced = [it for it in measure["iterations"] if it["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        values = [it["layers"][key] for it in traced]
        exact = all(isinstance(v, int) for v in values)
        metrics[key] = statistics.median_low(values) if exact else statistics.median(values)
    # Pooled over the traced iterations so the 90th percentile has >= 10 samples beyond it.
    sessions_ms = [ms for it in traced for ms in it["session_ms"]]
    deciles = statistics.quantiles(sessions_ms, n=10) if len(sessions_ms) >= 2 else [0.0] * 9
    metrics["engine.run_session.p50_ms"] = deciles[4]
    metrics["engine.run_session.p90_ms"] = deciles[8]
    metrics["engine.run_session.samples"] = len(sessions_ms)
    traced_wall = statistics.median(it["normalized"]["wall_s"] for it in traced)
    metrics["trace_overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
    jobs1, jobs2 = e2e.get("runs_per_s_jobs1", 0.0), e2e.get("runs_per_s_jobs2", 0.0)
    metrics["montecarlo.speedup_jobs2"] = jobs2 / jobs1 if jobs1 else 0.0
    for key in ("runs_per_s_jobs1", "runs_per_s_jobs2", "periods_per_s", "ops_failed_frac"):
        metrics[key] = e2e.get(key, 0.0)
    metrics["trace.counts_mismatched"] = len(measure["counts_mismatched"])
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="infomarket benchmark: one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "infomarket" / "__init__.py").is_file():
        print(f"error: no infomarket sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(HERE))
    from inputs import sizes_for, write_analytics_inputs

    load_start = os.getloadavg()
    sizes = sizes_for(args.workload, args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = measure_setup(args.workload, SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES, deadline)
    if args.workload == "analytics":
        write_analytics_inputs(work / "inputs", args.seed, sizes)

    child = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)] + (["--smoke"] if args.smoke else [])
    log = work / "workload.log"
    proc = _run_child(child, deadline, log)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}; log follows", file=sys.stderr)
        print(log.read_text()[-4000:], file=sys.stderr)
        return 1
    measure = json.loads((work / "measure.json").read_text())

    e2e = end_to_end(measure, setup, normalized=True)
    raw = end_to_end(measure, setup, normalized=False)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(measure, e2e, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": measure["failed"] == 0,
        "attempted": measure["attempted"],
        "failed": measure["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_file = results_dir / f"{tag}.json"
    record = {
        "provenance": provenance(args, sizes, load_start),
        "result": result,
        "all_metrics": {k: {"value": v, "unit": units[k]} for k, v in {**e2e, **metrics}.items()},
        "raw_medians": raw,
        "setup_samples_s": setup,
        "iterations": measure["iterations"],
        "failures": measure["failures"],
        "output_sha256": measure["digests"],
        "notes": measure["notes"],
        "trace_file": str((work / "trace.json").relative_to(ROOT)) if args.trace else None,
    }
    results_file.write_text(json.dumps(record, indent=1) + "\n")

    n_iter = len(measure["iterations"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} iterations={n_iter} "
          f"sizes={json.dumps(sizes, sort_keys=True)}")
    print(f"  {'metric':<28} {'normalized':>14} {'raw':>14}")
    for key, value in e2e.items():
        print(f"  {key:<28} {value:>14.6g} {raw[key]:>14.6g} {units[key]}")
    print(f"  ops: {measure['failed']} failed of {measure['attempted']} attempted")
    if args.trace:
        print(f"  trace_overhead_frac          {metrics['trace_overhead_frac']:>14.6g} ratio")
    for note in measure["notes"]:
        print(f"  {note}")
    for failure in measure["failures"]:
        print(f"  FAILED {failure['op']}: {failure['errors'][0].strip().splitlines()[-1]}")
    print(f"  results: {results_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
