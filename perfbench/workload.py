"""One benchmark run of one workload, in a fresh process started by run.py.

    python3 perfbench/workload.py --workload jcurve --seed 1 --seconds 30 \\
        --trace 0 --work DIR [--smoke]

Imports infomarket from the checkout's ``src/``, repeats the workload until
``--seconds`` have passed (closed loop: the next iteration starts when the
previous one ends), checks every output outside the timed region and writes
``DIR/measure.json``. With ``--trace 1`` iterations run untraced,
traced, traced, then alternate, and the traced
records go to ``DIR/trace.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import infomarket  # noqa: E402
from infomarket import analytics, cli, montecarlo  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from inputs import sizes_for  # noqa: E402
from tracer import Tracer  # noqa: E402

_perf = time.perf_counter
JOBS = 2  # worker count of every parallel phase; the machine has 2 cores
MAX_LAG = 20  # the stats command's default --max-lag
# Count metrics that must repeat exactly across traced iterations of one seed.
EXTRA_COUNTS = ("switching.flips", "switching.segments", "csv.rows", "csv.bytes")


class Op:
    """One operation: a CLI invocation or an analysis call, with its checks."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.seconds = 0.0
        self.scale = 1.0  # calibration factor: seconds * scale = reference seconds
        self.result = None
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


class Ops:
    def __init__(self) -> None:
        self.done: list[Op] = []
        # The calibration block taken right after the last op; back-to-back
        # ops share it. None once other work has run since.
        self.fresh_calibration: list[float] | None = None

    def call(self, label: str, fn, *args) -> Op:
        op = Op(label)
        before = self.fresh_calibration or calibrate.block()
        t0 = _perf()
        try:
            op.result = fn(*args)
        except Exception:  # a failed operation is counted, never fatal to the run
            op.errors.append(traceback.format_exc(limit=4))
        op.seconds = _perf() - t0
        self.fresh_calibration = calibrate.block()
        op.scale = calibrate.scale(before + self.fresh_calibration)
        self.done.append(op)
        return op

    def cli(self, label: str, argv: list[str]) -> Op:
        op = self.call(label, cli.main, argv)
        if op.ok:
            op.expect(op.result == 0, f"exit code {op.result}")
        return op


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    sizes: dict
    work: Path
    ops: Ops = dataclasses.field(default_factory=Ops)
    digests: dict | None = None
    data: dict = dataclasses.field(default_factory=dict)


def _phase(tracer: Tracer | None, label: str, phase: str) -> None:
    if tracer is not None:
        tracer.run_id = f"{label}/{phase}"


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _check_p_matrix(op: Op, p: np.ndarray) -> None:
    op.expect(np.array_equal(p, p.T), "p-matrix is not symmetric")
    op.expect(bool(((p >= 0.0) & (p <= 1.0)).all()), "p-matrix has entries outside [0, 1]")
    op.expect(bool((np.diag(p) == 1.0).all()), "p-matrix diagonal is not 1")


# ---------------------------------------------------------------------------
# jcurve: reduced jcurve10 batch at --jobs 1 and --jobs 2
# ---------------------------------------------------------------------------


def run_jcurve(ctx: Context, out: Path, tracer: Tracer | None, label: str):
    s = ctx.sizes
    ops = []
    for jobs in (1, JOBS):
        argv = ["batch", "--preset", "jcurve10", "--seed", str(ctx.seed),
                "--sessions", str(s["sessions"]), "--runs", str(s["runs"]),
                "--jobs", str(jobs), "--out", str(out / f"jobs{jobs}")]
        if "periods" in s:
            argv += ["--periods", str(s["periods"])]
        _phase(tracer, label, f"jobs{jobs}")
        ops.append(ctx.ops.cli(f"batch --jobs {jobs}", argv))
    return ops


def time_jcurve(ctx: Context, seconds: list[float]) -> dict[str, float]:
    n = ctx.sizes["sessions"] * ctx.sizes["runs"]
    t1, t2 = seconds
    return {"wall_s": t1 + t2, "work_per_s": n / t1, "runs_per_s_jobs1": n / t1, "runs_per_s_jobs2": n / t2}


def check_jcurve(ctx: Context, out: Path, ops: list[Op]) -> None:
    serial, parallel = ops
    if not (serial.ok and parallel.ok):
        return
    for name in ("runs.csv", "jcurve.csv", "pvalues.csv"):
        same = (out / "jobs1" / name).read_bytes() == (out / f"jobs{JOBS}" / name).read_bytes()
        parallel.expect(same, f"{name} differs between --jobs 1 and --jobs {JOBS}")
    rows = _read_csv(out / "jobs1" / "runs.csv")
    n_runs = ctx.sizes["sessions"] * ctx.sizes["runs"]
    levels = sorted({int(r[2]) for r in rows})
    serial.expect(len(rows) == n_runs * len(levels), f"runs.csv has {len(rows)} rows")
    rel = np.array([float(r[3]) for r in rows]).reshape(n_runs, len(levels))
    serial.expect(float(np.abs(rel.sum(axis=1)).max()) <= 1e-9, "relative returns of a run do not sum to 0")
    table = analytics.jcurve_table({lvl: rel[:, i] for i, lvl in enumerate(levels)})
    _check_p_matrix(serial, table.p_matrix)
    written = [float(r[2]) for r in _read_csv(out / "jobs1" / "pvalues.csv")]
    k = len(levels)
    expected = [float(table.p_matrix[i, j]) for i in range(k) for j in range(i + 1, k)]
    serial.expect(written == expected, "pvalues.csv does not match jcurve_table over runs.csv")


# ---------------------------------------------------------------------------
# markov: reduced markov3, all 8 initial profiles on 2 workers
# ---------------------------------------------------------------------------


def run_markov(ctx: Context, out: Path, tracer: Tracer | None, label: str):
    periods = ctx.sizes["periods"]
    argv = ["markov", "--preset", "markov3", "--seed", str(ctx.seed), "--periods", str(periods),
            "--jobs", str(JOBS), "--out", str(out)]
    _phase(tracer, label, f"jobs{JOBS}")
    return [ctx.ops.cli(f"markov --jobs {JOBS}", argv)]


def time_markov(ctx: Context, seconds: list[float]) -> dict[str, float]:
    (t,) = seconds
    total = ctx.sizes["chains"] * ctx.sizes["periods"]
    return {"wall_s": t, "work_per_s": total / t, "periods_per_s": total / t}


def check_markov(ctx: Context, out: Path, ops: list[Op]) -> None:
    (op,) = ops
    if not op.ok:
        return
    chains, periods = ctx.sizes["chains"], ctx.sizes["periods"]
    n_states = chains  # markov3: 3 traders, 2^3 profiles, one chain per profile
    states = np.array([[int(v) for v in r] for r in _read_csv(out / "states.csv")], dtype=np.int64)
    op.expect(states.shape == (chains * (periods + 1), 3), f"states.csv has shape {states.shape}")
    codes = states[:, 2]
    op.expect(bool(((codes >= 1) & (codes <= n_states)).all()), f"state codes outside 1..{n_states}")
    op.expect(sorted(set(states[:, 0].tolist())) == list(range(1, n_states + 1)),
              "states.csv does not hold one chain per initial profile")
    visited = set()
    for initial in range(1, n_states + 1):
        visited.update(codes[states[:, 0] == initial][:-1].tolist())
    probs = np.zeros((n_states, n_states))
    for frm, to, p, _ in _read_csv(out / "tmatrix.csv"):
        probs[int(frm) - 1, int(to) - 1] = float(p)
    for code in sorted(visited):
        op.expect(abs(probs[code - 1].sum() - 1.0) <= 1e-9, f"transition row {code} does not sum to 1")


# ---------------------------------------------------------------------------
# analytics: stats over a generated tick CSV, jcurve_table, write_runs_csv
# ---------------------------------------------------------------------------


def prepare_analytics(ctx: Context, inputs: Path) -> None:
    s = ctx.sizes
    samples = np.load(inputs / "samples.npy")
    ctx.data["samples_by_level"] = {lvl: samples[:, lvl] for lvl in range(s["levels"])}
    n_runs = s["runs_csv_sessions"] * s["runs_csv_runs"]
    config = montecarlo.BatchConfig(n_sessions=s["runs_csv_sessions"], runs_per_session=s["runs_csv_runs"])
    values = {
        "config": config,
        "levels": tuple(range(s["levels"])),
        "rel_returns": samples[:n_runs],
        "asset_mean_returns": np.zeros(n_runs),
        "period_returns": None,
        "path_keys": (),
    }
    fields = dataclasses.fields(montecarlo.BatchResult)
    ctx.data["batch"] = montecarlo.BatchResult(**{f.name: values[f.name] for f in fields})
    ctx.data["ticks"] = inputs / "ticks.csv"
    ctx.data["cents"] = np.load(inputs / "ticks_cents.npy")


def run_analytics(ctx: Context, out: Path, tracer: Tracer | None, label: str):
    _phase(tracer, label, "stats")
    stats = ctx.ops.cli("stats --ticks", ["stats", "--ticks", str(ctx.data["ticks"]), "--out", str(out / "stats")])
    _phase(tracer, label, "jcurve_table")
    table = ctx.ops.call("jcurve_table", analytics.jcurve_table, ctx.data["samples_by_level"])
    _phase(tracer, label, "write_runs_csv")
    write = ctx.ops.call("write_runs_csv", montecarlo.write_runs_csv, ctx.data["batch"], out / "runs.csv")
    return [stats, table, write]


def time_analytics(ctx: Context, seconds: list[float]) -> dict[str, float]:
    s = ctx.sizes
    rows = s["ticks"] + s["samples"] * s["levels"] + s["runs_csv_sessions"] * s["runs_csv_runs"] * s["levels"]
    return {"wall_s": sum(seconds), "work_per_s": rows / sum(seconds)}


def _acf_reference(x: np.ndarray, max_lag: int) -> np.ndarray:
    # Autocorrelation through the FFT: independent of acf's per-lag dot products.
    xc = x - x.mean()
    spectrum = np.fft.rfft(xc, 2 * len(xc))
    cov = np.fft.irfft(spectrum * np.conj(spectrum))[: max_lag + 1]
    return cov / cov[0]


def check_analytics(ctx: Context, out: Path, ops: list[Op]) -> None:
    stats, table, write = ops
    if stats.ok:
        returns = np.diff(np.log(ctx.data["cents"] / 100.0))
        rows = np.array([[float(v) for v in r] for r in _read_csv(out / "stats" / "acf.csv")])
        stats.expect(rows.shape == (MAX_LAG + 1, 4), f"acf.csv has shape {rows.shape}")
        for column, series in ((1, returns), (2, np.abs(returns))):
            gap = float(np.abs(rows[:, column] - _acf_reference(series, MAX_LAG)).max())
            stats.expect(gap <= 1e-9, f"acf column {column} differs from the FFT reference by {gap:.3g}")
        (moments_row,) = _read_csv(out / "stats" / "moments.csv")
        stats.expect(int(moments_row[0]) == len(returns), "moments.csv counts the wrong number of returns")
    if table.ok:
        _check_p_matrix(table, table.result.p_matrix)
        table.expect(table.result.levels == tuple(range(ctx.sizes["levels"])), "jcurve_table lost a level")
    if write.ok:
        with open(out / "runs.csv", "rb") as f:
            lines = sum(1 for _ in f)
        s = ctx.sizes
        expected = s["runs_csv_sessions"] * s["runs_csv_runs"] * s["levels"] + 1
        write.expect(lines == expected, f"runs.csv has {lines} lines, expected {expected}")


def scipy_cross_check(ctx: Context) -> str:
    """wilcoxon_rank_sum against scipy's Mann-Whitney U on generated pairs."""
    try:
        from scipy.stats import mannwhitneyu
    except ImportError:
        return "scipy is not installed: wilcoxon_rank_sum cross-check skipped"
    rng = np.random.default_rng([ctx.seed, 11])
    pairs = [
        # pooled size > 16: normal approximation, with many ties
        (np.round(rng.normal(0.0, 1.0, 400), 1), np.round(rng.normal(0.2, 1.0, 300), 1), "asymptotic"),
        (rng.standard_t(3, 2000), rng.standard_t(3, 1500) + 0.05, "asymptotic"),
        # pooled size 16 without ties: exact enumeration
        (rng.normal(0.0, 1.0, 7), rng.normal(0.8, 1.0, 9), "exact"),
    ]

    def compare():
        return [
            (analytics.wilcoxon_rank_sum(x, y),
             float(mannwhitneyu(x, y, alternative="two-sided", method=method, use_continuity=True).pvalue))
            for x, y, method in pairs
        ]

    op = ctx.ops.call("wilcoxon_rank_sum vs scipy", compare)
    if op.ok:
        for ours, theirs in op.result:
            op.expect(abs(ours - theirs) <= 1e-9 * max(1.0, abs(theirs)),
                      f"wilcoxon_rank_sum {ours!r} vs scipy {theirs!r}")
    return f"scipy {sys.modules['scipy'].__version__}: wilcoxon_rank_sum cross-checked on {len(pairs)} pairs"


# name -> (run one iteration, its timings from per-op seconds, its output checks)
WORKLOADS = {
    "jcurve": (run_jcurve, time_jcurve, check_jcurve),
    "markov": (run_markov, time_markov, check_markov),
    "analytics": (run_analytics, time_analytics, check_analytics),
}


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------


def _digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _csv_stats(out: Path) -> dict[str, int]:
    rows = size = 0
    for p in out.rglob("*.csv"):
        with open(p, "rb") as f:
            rows += sum(1 for _ in f) - 1
        size += p.stat().st_size
    return {"csv.rows": rows, "csv.bytes": size}


def run_iteration(ctx: Context, index: int, traced: bool, trace_log: list) -> dict:
    run, timed, check = WORKLOADS[ctx.workload]
    out = ctx.work / "outputs"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    label = f"{'T' if traced else 'U'}{index}"
    tracer = None
    if traced:
        tracer = Tracer(ctx.work / "trace", label)
        tracer.trace_dir.mkdir(exist_ok=True)
        layers.install(tracer)
    ctx.ops.fresh_calibration = None
    try:
        ops = run(ctx, out, tracer, label)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    record = {
        "label": label,
        "traced": traced,
        "timings": timed(ctx, [op.seconds for op in ops]),
        "normalized": timed(ctx, [op.seconds * op.scale for op in ops]),
        "scales": [op.scale for op in ops],
    }
    if tracer is not None:
        tracer.merge_workers()
        record["layers"] = {**layers.layer_metrics(tracer, JOBS), **_csv_stats(out)}
        record["session_ms"] = layers.jobs1_session_ms(tracer)
        trace_log.append({"run": label, **tracer.records()})
    try:
        check(ctx, out, ops)
    except Exception:  # a check that cannot even run fails the iteration's first op
        ops[0].errors.append("output check raised: " + traceback.format_exc(limit=4))
    digests = _digests(out)
    if ctx.digests is None:
        ctx.digests = digests
    elif digests != ctx.digests:
        ops[-1].errors.append("outputs differ from the first iteration of this seed")
    return record


def _count_keys(metrics: dict) -> list[str]:
    return [k for k in metrics if k.endswith(".calls") or k in EXTRA_COUNTS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(infomarket.__file__).resolve().parents:
        print(f"infomarket was imported from {infomarket.__file__}, not from {src}", file=sys.stderr)
        return 2

    ctx = Context(args.workload, args.seed, sizes_for(args.workload, args.smoke), args.work)
    notes = []
    if args.workload == "analytics":
        prepare_analytics(ctx, args.work / "inputs")
        notes.append(scipy_cross_check(ctx))

    iterations, trace_log = [], []
    start = _perf()
    index = 0
    while True:
        # --trace 1 runs untraced, traced, traced, then alternates.
        traced = bool(args.trace) and (index in (1, 2) or (index > 2 and index % 2 == 0))
        iterations.append(run_iteration(ctx, index, traced, trace_log))
        index += 1
        enough = index >= (3 if args.trace else 1)
        if enough and _perf() - start >= args.seconds:
            break

    mismatched = []
    if args.trace:
        traced_layers = [it["layers"] for it in iterations if it["traced"]]
        check = Op("determinism self-check")
        for key in _count_keys(traced_layers[0]):
            if len({layer[key] for layer in traced_layers}) > 1:
                mismatched.append(key)
        check.expect(not mismatched, f"counts differ across traced iterations: {mismatched}")
        ctx.ops.done.append(check)
        with open(args.work / "trace.json", "w") as f:
            json.dump(trace_log, f)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = [op for op in ctx.ops.done if not op.ok]
    measure = {
        "sizes": ctx.sizes,
        "iterations": iterations,
        "attempted": len(ctx.ops.done),
        "failed": len(failed),
        "failures": [{"op": op.label, "errors": op.errors} for op in failed[:20]],
        "counts_mismatched": mismatched,
        "digests": ctx.digests,
        "notes": notes,
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
    }
    with open(args.work / "measure.json", "w") as f:
        json.dump(measure, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
