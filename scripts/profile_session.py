#!/usr/bin/env python3
"""Time one reference-market session and one markov3 chain under both kernels.

Runs the same reference session (`SessionConfig()`, dividend path and run
stream from seed 0) --repeats times under each kernel, the Python loop and
the compiled one, alternating between them in this process after one
warm-up run of each, so both see the same machine state. Prints each
kernel's median and quartiles, per session and per activation, and the
ratio of the medians. An activation is one trader decision: each period has
its seeding pass (one per informed trader) plus its steps.

Then does the same for one 300-period `markov3` switching chain (initial
profile 1, switching stream from seed 0): the Python loop of
`run_switching_sim` on the Python session loop, against the compiled chain,
one `im_run_chain` call. It prints each kernel's median per chain and per
period, and the ratio of the medians.

Then it times one batch session block of the reference market, 5 runs on
one dividend path (perfbench's jcurve shape; master seed 0, session 0):
the Python block, whose runs are compiled sessions, against the compiled
block, one `im_run_block` call. It prints each block's median per block
and per run, and the ratio of the medians.

Last, it times the `markov` command's ensemble at that size, the eight
300-period `markov3` chains of `run_switching_ensemble` (seed 0), at jobs 1
(in this process) and jobs 2 (this process and one forked worker, four
chains each), alternating, on the kernel this process resolves, and prints
one median line for each.

Prints exactly one of `c kernel, median of ...` (followed by the library
it loaded and the numpy version that library was built against) or
`c kernel unavailable: <reason>`, and the `c chain` and `c block` lines
and the three ratios only with the former.

    PYTHONPATH=src python scripts/profile_session.py --repeats 50
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace

from infomarket import _kernel, montecarlo
from infomarket.dividends import generate_dividend_path
from infomarket.engine import SessionConfig, run_session
from infomarket.presets import switching_for_preset
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, SWITCH_DOMAIN, stream
from infomarket.switching import run_switching_ensemble, run_switching_sim

CHAIN_PERIODS = 300
ENSEMBLE_CODES = range(1, 9)  # the markov command's default: one chain per initial profile
ENSEMBLE_JOBS = {"jobs 1": 1, "jobs 2": 2}
BLOCK_RUNS = 5


def spec_run_session(*args):
    """`run_session` under another name: with it in `montecarlo`, a block
    runs the Python block (see `montecarlo.BLOCK_SPEC`)."""
    return run_session(*args)


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
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(0, PATH_DOMAIN, 0))
    informed = sum(1 for a in cfg.agents if a.info_level > 0)
    activations = cfg.n_periods * (cfg.steps_per_period + informed)

    # A process whose kernel resolved to nothing runs the Python loop; the
    # compiled kernel is whatever this process resolves.
    _kernel.resolve()
    resolutions = {"python": (None, "the Python loop"), "c": _kernel._resolved}

    def session(kernel: str) -> float:
        _kernel._resolved = resolutions[kernel]
        rng = stream(0, RUN_DOMAIN, 0, 0)
        t0 = time.perf_counter()
        run_session(cfg, path, rng)
        return time.perf_counter() - t0

    chain_cfg = replace(switching_for_preset("markov3"), n_periods=CHAIN_PERIODS)

    def chain(kernel: str) -> float:
        _kernel._resolved = resolutions[kernel]
        rng = stream(0, SWITCH_DOMAIN, 1)
        t0 = time.perf_counter()
        run_switching_sim(chain_cfg, 1, rng)
        return time.perf_counter() - t0

    lib, reason = resolutions["c"]
    kernels = ["python", "c"]
    if lib is None:
        print(f"c kernel unavailable: {reason}")
        kernels.remove("c")

    print(f"reference session: {cfg.n_periods} periods x ({cfg.steps_per_period} steps + "
          f"{informed} seeding) = {activations} activations")
    medians = report("kernel", alternate(kernels, args.repeats, session), "session", activations, "activation")
    if lib is not None:
        print(f"c kernel library: {lib.path}, built against numpy {lib.numpy_version}")
        print(f"python / c median ratio: {medians['python'] / medians['c']:.2f}")

    print(f"markov3 chain: {chain_cfg.n_periods} periods x ({chain_cfg.steps_per_period} steps + "
          f"{chain_cfg.n_traders} seeding), {chain_cfg.n_traders} traders")
    medians = report("chain", alternate(kernels, args.repeats, chain), "chain", chain_cfg.n_periods, "period")
    if lib is not None:
        print(f"python / c chain median ratio: {medians['python'] / medians['c']:.2f}")

    _kernel._resolved = resolutions["c"]
    block_args = (0, 0, cfg, BLOCK_RUNS, False)

    def block(kernel: str) -> float:
        montecarlo.run_session = spec_run_session if kernel == "python" else run_session
        t0 = time.perf_counter()
        montecarlo._run_session_block(block_args)
        return time.perf_counter() - t0

    if lib is not None:
        print(f"reference block: {BLOCK_RUNS} runs on one dividend path, python block on c sessions")
        medians = report("block", alternate(kernels, args.repeats, block), "block", BLOCK_RUNS, "run")
        montecarlo.run_session = run_session
        print(f"python / c block median ratio: {medians['python'] / medians['c']:.2f}")

    def ensemble(jobs: str) -> float:
        t0 = time.perf_counter()
        run_switching_ensemble(chain_cfg, ENSEMBLE_CODES, 0, jobs=ENSEMBLE_JOBS[jobs])
        return time.perf_counter() - t0

    print(f"markov3 ensemble: {len(ENSEMBLE_CODES)} chains x {chain_cfg.n_periods} periods, "
          f"{'c' if lib is not None else 'python'} kernel")
    report("ensemble", alternate(list(ENSEMBLE_JOBS), args.repeats, ensemble), "ensemble",
           len(ENSEMBLE_CODES) * chain_cfg.n_periods, "period")
    return 0


if __name__ == "__main__":
    sys.exit(main())
