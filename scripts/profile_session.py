#!/usr/bin/env python3
"""Time one reference-market run and one markov3 chain under both kernels.

Runs the reference session's first run (`first_run(SessionConfig(), 0)`,
the run `simulate --seed 0` makes: run 0 of session 0 of a batch from
master seed 0) --repeats times under each kernel, the Python loop and the
compiled one (a one-run share, one `im_run_block` call), alternating
between them in this process after one warm-up run of each, so both see
the same machine state. Prints each kernel's median and quartiles, per run
and per activation, and the ratio of the medians. An activation is one
trader decision: each period has its seeding pass (one per informed
trader) plus its steps. Then it does the same for that run with no
clearing, whose book is kept across periods.

Then does the same for one 300-period `markov3` switching chain (initial
profile 1, switching stream from seed 0), run as a one-chain
`run_switching_ensemble` at jobs 1: the Python loop of `run_switching_sim`
against the compiled chain, one `im_run_chains` call. It prints each
kernel's median per chain and per period, and the ratio of the medians.

Then it times one batch share of the reference market, 6 sessions of 5
runs each (perfbench jcurve's batch, which `--jobs 1` runs as one share;
master seed 0): the Python block against the compiled block, one
`im_run_block` call that also seeds every generator. It prints each
block's median per share and per run, and the ratio of the medians. Then
it times seeding that share's 36 generators (6 walks, 30 runs):
`rng.stream` per key against one `im_seed_pcg64` call, per share and per
generator.

Then it times `write_runs_csv` on 100,000 rows, 10,000 runs x 10 levels of
seeded relative returns, to a file: the Python generator against the
compiled formatter, `im_format_per_run`. It prints each one's median per
file and per row, and the ratio of the medians.

Then it times the `markov` command's post-run on that ensemble's eight
runs (seed 0): `aggregate_runs` and the three writers, `states.csv`,
`tmatrix.csv` and `freqs.csv`, to files, under each kernel (the compiled
one formats `states.csv` with `im_format_states`), per ensemble and per
`states.csv` row, and the ratio of the medians.

Last, on the kernel this process resolves, it times the `markov`
command's ensemble at that size, the eight 300-period `markov3` chains of
`run_switching_ensemble` (seed 0), and then `run_batch` on perfbench
jcurve's 6 x 5-run batch (master seed 0), each at jobs 1 (in this thread)
and jobs 2 (two share threads), alternating, and prints one median line for
each. Before each of these calls it runs a fixed pure-Python block of about
20 ms, as a command's own Python work (or perfbench's calibration) comes
before its batch: back to back, the calls would keep both CPUs busy, and a
share would find the other CPU already awake. After each, it makes one more
call at jobs 1 and one at jobs 2, watching the shares that
`montecarlo.run_shares` runs, and prints how many chains or sessions each
share took from the shared counter (under the Python loop, which has no
shares, every chain or the one block runs in this thread) and, at jobs 2,
the CPU each share (or, under the Python loop, each chain) started on,
share by share (`CPUs unknown` where the C library has no `sched_getcpu`).

Prints exactly one of `c kernel, median of ...` (followed by the library
it loaded and the numpy version whose draws that library was checked
against) or `c kernel unavailable: <reason>`, and the `c no-clearing`, the
`c chain`, the block, the seeding, the `write_runs_csv` and the `c
post-run` lines and the six ratios only with the former.

    PYTHONPATH=src python scripts/profile_session.py --repeats 50
"""

import argparse
import ctypes
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from infomarket import _kernel, montecarlo, switching
from infomarket.csvout import _LINES_PER_WRITE
from infomarket.engine import SessionConfig
from infomarket.montecarlo import first_run
from infomarket.presets import switching_for_preset
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream
from infomarket.switching import run_switching_ensemble

CHAIN_PERIODS = 300
ENSEMBLE_CODES = range(1, 9)  # the markov command's default: one chain per initial profile
ENSEMBLE_JOBS = {"jobs 1": 1, "jobs 2": 2}
SHARE = (6, 5)  # sessions, runs per session: perfbench jcurve's batch, one share at --jobs 1
RUNS_CSV_SHAPE = (100, 100, 10)  # sessions, runs per session, levels: 100,000 rows
PYTHON_BLOCK = 80_000  # iterations of `python_block`, about 20 ms on a 2.1 GHz Xeon vCPU


def python_block() -> float:
    """A fixed piece of pure-Python work: dict look-ups and float arithmetic."""
    table, total = {}, 0.0
    for i in range(PYTHON_BLOCK):
        total += (table.setdefault(i % 97, i * 0.5) - total) * 0.25
    return total


def sched_getcpu():
    """The C library's `sched_getcpu`, or None where it has none."""
    try:
        return ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None


def watch_shares(compiled: bool, module, name: str, count: int, call) -> list[tuple[list, int]]:
    """Per thread, in the order of their first task, the CPUs on which its
    tasks started (None where the C library has no `sched_getcpu`) and the
    items they took, for `call()` run after `python_block`, as a timed call
    runs. A compiled share is a task of `montecarlo.run_shares`, whose
    result is the number of items its kernel call took; under the Python
    loop each task is `module.name`, which runs `count` items."""
    getcpu, shares = sched_getcpu(), {}

    def watched(task, took):
        def run(item):
            share = shares.setdefault(threading.get_ident(), ([], [0]))
            share[0].append(getcpu() if getcpu else None)
            result = task(item)
            share[1][0] += took(result)
            return result
        return run

    if compiled:
        owner, name, original = montecarlo, "run_shares", montecarlo.run_shares

        def replacement(task, items):
            return original(watched(task, int), items)
    else:
        owner, original = module, getattr(module, name)
        replacement = watched(original, lambda result: count)
    setattr(owner, name, replacement)
    try:
        python_block()
        call()
    finally:
        setattr(owner, name, original)
    return [(cpus, took) for cpus, (took,) in shares.values()]


def report_shares(label: str, unit: str, compiled: bool, module, name: str, count: int, run) -> None:
    """At jobs 1 and 2, the `unit` each share of `run(jobs)` took, and at
    jobs 2 the CPUs its shares started on; see `watch_shares`."""
    for jobs in ENSEMBLE_JOBS.values():
        shares = watch_shares(compiled, module, name, count, lambda: run(jobs))
        if jobs == 2:
            started = ("CPUs " + " | ".join(" ".join(map(str, cpus)) for cpus, _ in shares) if sched_getcpu()
                       else "CPUs unknown: no sched_getcpu in the C library")
            print(f"jobs 2 {label} shares started on {started}")
        print(f"jobs {jobs} {label} shares took {unit} " + " | ".join(str(took) for _, took in shares))


def alternate(variants, repeats, once) -> dict[str, list[float]]:
    """`once(variant)`'s seconds, in ms, `repeats` times per variant (a
    kernel or a worker count) after one warm-up each, alternating which
    variant goes first so neither always follows the other."""
    for variant in variants:
        once(variant)
    times_ms = {variant: [] for variant in variants}
    for r in range(repeats):
        for variant in variants if r % 2 == 0 else variants[::-1]:
            times_ms[variant].append(once(variant) * 1e3)
    return times_ms


def report(label, times_ms, unit, per, per_unit) -> dict[str, float]:
    """One line per variant: the median and quartiles per `unit`, and the
    median per `per_unit` (`per` of them in one); returns the medians."""
    medians = {}
    for variant, samples in times_ms.items():
        median = medians[variant] = statistics.median(samples)
        q1, q3 = statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else (median, median)
        print(f"{variant} {label}, median of {len(samples)}: {median:.3f} ms per {unit} "
              f"(quartiles {q1:.3f}-{q3:.3f}), {median * 1e3 / per:.3f} us per {per_unit}")
    return medians


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    cfg = SessionConfig()
    informed = sum(1 for a in cfg.agents if a.info_level > 0)
    activations = cfg.n_periods * (cfg.steps_per_period + informed)

    # A process whose kernel resolved to nothing runs the Python loop; the
    # compiled kernel is whatever this process resolves.
    _kernel.resolve()
    resolutions = {"python": (None, "the Python loop"), "c": _kernel._resolved}

    def session(kernel: str, config: SessionConfig = cfg) -> float:
        _kernel._resolved = resolutions[kernel]
        t0 = time.perf_counter()
        first_run(config, 0)
        return time.perf_counter() - t0

    chain_cfg = replace(switching_for_preset("markov3"), n_periods=CHAIN_PERIODS)

    def chain(kernel: str) -> float:
        _kernel._resolved = resolutions[kernel]
        t0 = time.perf_counter()
        run_switching_ensemble(chain_cfg, [1], 0, jobs=1)
        return time.perf_counter() - t0

    lib, reason = resolutions["c"]
    kernels = ["python", "c"]
    if lib is None:
        print(f"c kernel unavailable: {reason}")
        kernels.remove("c")

    print(f"reference run: {cfg.n_periods} periods x ({cfg.steps_per_period} steps + "
          f"{informed} seeding) = {activations} activations")
    medians = report("kernel", alternate(kernels, args.repeats, session), "run", activations, "activation")
    if lib is not None:
        print(f"c kernel library: {lib.path}, checked against numpy {lib.numpy_version}")
        print(f"python / c median ratio: {medians['python'] / medians['c']:.2f}")

    no_clearing = replace(cfg, clear_book_each_period=False)
    print("no-clearing reference run: the same run, its book kept across periods")
    medians = report("no-clearing", alternate(kernels, args.repeats, lambda kernel: session(kernel, no_clearing)),
                     "run", activations, "activation")
    if lib is not None:
        print(f"python / c no-clearing median ratio: {medians['python'] / medians['c']:.2f}")

    print(f"markov3 chain: {chain_cfg.n_periods} periods x ({chain_cfg.steps_per_period} steps + "
          f"{chain_cfg.n_traders} seeding), {chain_cfg.n_traders} traders")
    medians = report("chain", alternate(kernels, args.repeats, chain), "chain", chain_cfg.n_periods, "period")
    if lib is not None:
        print(f"python / c chain median ratio: {medians['python'] / medians['c']:.2f}")

    _kernel._resolved = resolutions["c"]
    sessions, runs = SHARE
    share_batch = montecarlo.BatchConfig(session=cfg, n_sessions=sessions, runs_per_session=runs, master_seed=0)

    def block(kernel: str) -> float:
        _kernel._resolved = resolutions[kernel]
        share = montecarlo._new_share(cfg, 0, sessions, runs)
        t0 = time.perf_counter()
        montecarlo._run_sessions(share, 1)
        return time.perf_counter() - t0

    keys = [(0, PATH_DOMAIN, s) for s in range(sessions)]
    keys += [(0, RUN_DOMAIN, s, r) for s in range(sessions) for r in range(runs)]

    def seeding(kernel: str) -> float:
        t0 = time.perf_counter()
        if kernel == "python":
            for key in keys:
                stream(*key)
        else:
            lib.im_seed_pcg64(words.ctypes.data, ends.ctypes.data, len(keys), states.ctypes.data)
        return time.perf_counter() - t0

    if lib is not None:
        print(f"reference share: {sessions} sessions x {runs} runs, python block against c block")
        medians = report("block", alternate(kernels, args.repeats, block), "share", sessions * runs, "run")
        _kernel._resolved = resolutions["c"]
        print(f"python / c block median ratio: {medians['python'] / medians['c']:.2f}")
        (words, ends), states = _kernel.key_table(keys), np.empty((len(keys), 6), np.uint64)
        print(f"seeding: the share's {len(keys)} generators, rng.stream against im_seed_pcg64")
        report("seeding", alternate(kernels, args.repeats, seeding), "share", len(keys), "generator")

    if lib is not None:
        sessions, runs, levels = RUNS_CSV_SHAPE
        batch = montecarlo.BatchResult(
            config=montecarlo.BatchConfig(n_sessions=sessions, runs_per_session=runs),
            levels=tuple(range(levels)),
            rel_returns=np.random.default_rng(0).standard_normal((sessions * runs, levels)) * 5.0,
            asset_mean_returns=np.zeros(sessions * runs), period_returns=None)

        with tempfile.TemporaryDirectory() as tmp:
            def runs_csv(kernel: str) -> float:
                _kernel._resolved = resolutions[kernel]
                t0 = time.perf_counter()
                montecarlo.write_runs_csv(batch, Path(tmp) / "runs.csv")
                return time.perf_counter() - t0

            print(f"runs.csv: {sessions * runs} runs x {levels} levels = {batch.rel_returns.size} rows")
            medians = report("write_runs_csv", alternate(kernels, args.repeats, runs_csv), "file",
                             batch.rel_returns.size, "row")
        _kernel._resolved = resolutions["c"]
        print(f"python / c write_runs_csv median ratio: {medians['python'] / medians['c']:.2f}")

    ensemble_runs = run_switching_ensemble(chain_cfg, ENSEMBLE_CODES, 0, jobs=1)
    rows = sum(len(run.codes) for run in ensemble_runs)
    with tempfile.TemporaryDirectory() as tmp:
        def post_run(kernel: str) -> float:
            _kernel._resolved = resolutions[kernel]
            t0 = time.perf_counter()
            est = switching.aggregate_runs(ensemble_runs, chain_cfg.n_states)
            switching.write_states_csv(ensemble_runs, Path(tmp) / "states.csv")
            switching.write_tmatrix_csv(est, Path(tmp) / "tmatrix.csv")
            switching.write_freqs_csv(est, Path(tmp) / "freqs.csv")
            return time.perf_counter() - t0

        print(f"markov3 post-run: aggregate_runs and the three writers on {len(ensemble_runs)} runs, "
              f"{rows} states.csv rows ({_LINES_PER_WRITE} per write)")
        medians = report("post-run", alternate(kernels, args.repeats, post_run), "ensemble", rows, "row")
    _kernel._resolved = resolutions["c"]
    if lib is not None:
        print(f"python / c post-run median ratio: {medians['python'] / medians['c']:.2f}")

    def ensemble(jobs: str) -> float:
        python_block()
        t0 = time.perf_counter()
        run_switching_ensemble(chain_cfg, ENSEMBLE_CODES, 0, jobs=ENSEMBLE_JOBS[jobs])
        return time.perf_counter() - t0

    kernel = "c" if lib is not None else "python"
    print(f"markov3 ensemble: {len(ENSEMBLE_CODES)} chains x {chain_cfg.n_periods} periods, {kernel} kernel")
    report("ensemble", alternate(list(ENSEMBLE_JOBS), args.repeats, ensemble), "ensemble",
           len(ENSEMBLE_CODES) * chain_cfg.n_periods, "period")
    report_shares("ensemble", "chains", lib is not None, switching, "_one_switching_run", 1,
                  lambda jobs: run_switching_ensemble(chain_cfg, ENSEMBLE_CODES, 0, jobs=jobs))

    sessions, runs = SHARE

    def batch(jobs: str) -> float:
        python_block()
        t0 = time.perf_counter()
        montecarlo.run_batch(replace(share_batch, jobs=ENSEMBLE_JOBS[jobs]))
        return time.perf_counter() - t0

    print(f"reference batch: {sessions} sessions x {runs} runs, {kernel} kernel")
    report("batch", alternate(list(ENSEMBLE_JOBS), args.repeats, batch), "batch", sessions * runs, "run")
    report_shares("batch", "sessions", lib is not None, montecarlo, "_run_session_block", sessions,
                  lambda jobs: montecarlo.run_batch(replace(share_batch, jobs=jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
