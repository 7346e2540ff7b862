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

Prints exactly one of `c kernel, median of ...` (followed by the library
it loaded and the numpy version that library was built against) or
`c kernel unavailable: <reason>`, and the `c chain` line and both ratios
only with the former.

    PYTHONPATH=src python scripts/profile_session.py --repeats 50
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace

from infomarket import _kernel
from infomarket.dividends import generate_dividend_path
from infomarket.engine import SessionConfig, run_session
from infomarket.presets import switching_for_preset
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, SWITCH_DOMAIN, stream
from infomarket.switching import run_switching_sim

CHAIN_PERIODS = 300


def alternate(kernels, repeats, once) -> dict[str, list[float]]:
    """`once(kernel)`'s seconds, in ms, `repeats` times per kernel after one
    warm-up each, alternating which kernel goes first so neither always
    follows the other."""
    for kernel in kernels:
        once(kernel)
    times_ms = {kernel: [] for kernel in kernels}
    for r in range(repeats):
        for kernel in kernels if r % 2 == 0 else kernels[::-1]:
            times_ms[kernel].append(once(kernel) * 1e3)
    return times_ms


def report(label, times_ms, unit, per, per_unit) -> dict[str, float]:
    """One line per kernel: the median and quartiles per `unit`, and the
    median per `per_unit` (`per` of them in one); returns the medians."""
    medians = {}
    for kernel, samples in times_ms.items():
        median = medians[kernel] = statistics.median(samples)
        q1, q3 = statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else (median, median)
        print(f"{kernel} {label}, median of {len(samples)}: {median:.3f} ms per {unit} "
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
