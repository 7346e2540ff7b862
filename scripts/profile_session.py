#!/usr/bin/env python3
"""Time one reference-market session: ms per session and us per activation.

Runs the same reference session (`SessionConfig()`, dividend path and run
stream from seed 0) --repeats times after one warm-up run and prints the
median and the quartiles. An activation is one trader decision: each period
has its seeding pass (one per informed trader) plus its steps.

    PYTHONPATH=src python scripts/profile_session.py --repeats 50
"""

import argparse
import statistics
import sys
import time

from infomarket.dividends import generate_dividend_path
from infomarket.engine import SessionConfig, run_session
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream


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

    def once() -> float:
        rng = stream(0, RUN_DOMAIN, 0, 0)
        t0 = time.perf_counter()
        run_session(cfg, path, rng)
        return time.perf_counter() - t0

    once()
    times_ms = [once() * 1e3 for _ in range(args.repeats)]
    median = statistics.median(times_ms)
    q1, q3 = statistics.quantiles(times_ms, n=4)[::2] if args.repeats > 1 else (median, median)
    print(f"reference session: {cfg.n_periods} periods x ({cfg.steps_per_period} steps + "
          f"{informed} seeding) = {activations} activations")
    print(f"median of {args.repeats}: {median:.2f} ms per session (quartiles {q1:.2f}-{q3:.2f}), "
          f"{median * 1e3 / activations:.2f} us per activation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
