"""Acceptance gates for the paper's two headline claims.

Each gate reads the output of an experiment, compares it with the claim as
the paper words it, and returns the numbers it compared alongside the
verdict, so a failure says by how much the claim was missed:

- J-curve: "the average informed agents underperform random traders; only
  the most informed agents are able to beat the market". Levels 1-4 must
  each earn less than the uninformed level 0, and level 0 less than the
  best-informed level, every comparison significant by the rank-sum test.
- Switching: "it is only for the most informed player that it is rewarding
  to stay fundamentalist". The best-informed trader must spend the smallest
  share of its intervals on the trend rule of all traders, and less than
  half of them.

The gates fix no experiment size; the caller runs the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import JCurveTable
from .switching import SwitchingRun

# The "average informed" levels the J-curve gate holds below level 0.
MID_LEVELS = (1, 2, 3, 4)
# Significance level of every rank-sum comparison.
ALPHA = 0.01


@dataclass(frozen=True)
class GateResult:
    claim: str
    passed: bool
    failures: tuple[str, ...]  # one line per comparison that missed
    measured: dict  # the numbers the gate compared


def jcurve_gate(table: JCurveTable) -> GateResult:
    """Levels 1-4 below level 0, and level 0 below the top level, each with p < ALPHA."""
    index = {lvl: i for i, lvl in enumerate(table.levels)}
    top = max(table.levels)
    base = index[0]
    pairs = [(index[lvl], base) for lvl in MID_LEVELS] + [(base, index[top])]
    failures = []
    for lo, hi in pairs:
        mean_lo, mean_hi, p = table.means[lo], table.means[hi], table.p_matrix[lo, hi]
        if not (mean_lo < mean_hi and p < ALPHA):
            failures.append(f"level {table.levels[lo]} ({mean_lo:+.2f} pp) not below level "
                            f"{table.levels[hi]} ({mean_hi:+.2f} pp) at p < {ALPHA}: p = {p:.3g}")
    measured = {
        "mean_pp": {lvl: float(table.means[i]) for lvl, i in index.items()},
        "p_vs_level0": {lvl: float(table.p_matrix[base, i]) for lvl, i in index.items() if lvl != 0},
    }
    return GateResult("jcurve", not failures, tuple(failures), measured)


def trend_shares(runs: list[SwitchingRun], n_traders: int) -> np.ndarray:
    """Share of all evaluation intervals each trader spends on the trend rule.

    A run's codes[:-1] are the profiles in force during its intervals (the
    last code is the profile after the final evaluation); trader i + 1 is
    bit i of code - 1, set for the trend rule.
    """
    profiles = np.concatenate([run.codes[:-1] for run in runs]) - 1
    return np.array([((profiles >> i) & 1).mean() for i in range(n_traders)])


def switching_gate(runs: list[SwitchingRun], n_traders: int) -> GateResult:
    """The best-informed trader (trader n_traders) is the least often a
    chartist, and a chartist in under half of its intervals."""
    shares = trend_shares(runs, n_traders)
    best = shares[-1]
    failures = []
    others = shares[:-1]
    if others.size and not (best < others.min()):
        failures.append(f"trader {n_traders} trend share {best:.3f} is not the lowest "
                        f"(lowest other {others.min():.3f})")
    if not best < 0.5:
        failures.append(f"trader {n_traders} trend share {best:.3f} is not below 0.5")
    measured = {"trend_share": {trader: float(s) for trader, s in enumerate(shares, start=1)}}
    return GateResult("switching", not failures, tuple(failures), measured)
