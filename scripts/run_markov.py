#!/usr/bin/env python3
"""Run a strategy-switching experiment and print the headline chain numbers.

Defaults to the 3-trader preset scaled down to 20000 periods per initial
state so it finishes in a couple of minutes; pass --periods 100000 for the
full-length run.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from infomarket.presets import switching_for_preset
from infomarket.switching import aggregate_runs, run_switching_ensemble, stationarity_gap


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", choices=("markov3", "markov5"), default="markov3")
    ap.add_argument("--periods", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=None)
    args = ap.parse_args()

    cfg = replace(switching_for_preset(args.preset), n_periods=args.periods)
    runs = run_switching_ensemble(cfg, range(1, cfg.n_states + 1), args.seed, jobs=args.jobs)
    est = aggregate_runs(runs, cfg.n_states)
    order = np.argsort(-est.mean_pi)
    print(f"{args.preset}: {len(runs)} runs x {args.periods} periods")
    print("state frequencies (top 8):")
    for code in order[:8]:
        print(f"  state {code + 1:2d}: pi = {est.mean_pi[code]:.4f} +- {est.stderr_pi[code]:.4f}")
    if args.preset == "markov3":
        print(f"T(2,3) = {est.mean_probs[1, 2]:.3f}  T(3,2) = {est.mean_probs[2, 1]:.3f}")
    _, linf, l1 = stationarity_gap(est.mean_pi, est.mean_probs)
    print(f"stationarity gap: max |piT - pi| = {linf:.4f}, total = {l1:.4f}")
    ties = sum(r.tie_events for r in runs)
    all_eq = sum(r.all_equal_events for r in runs)
    print(f"tie intervals: {ties}, all-equal intervals: {all_eq}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
