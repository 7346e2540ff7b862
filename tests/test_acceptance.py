"""Acceptance gates: the paper's two headline claims, checked on fixed-size runs.

The sizes and seeds below are fixed. A change that alters the random
streams must pass these gates as they stand; if one misses, the gate stays
and the miss is recorded, rather than the run being resized or re-seeded.
"""

from dataclasses import replace

import numpy as np
import pytest

from infomarket.analytics import JCurveTable, jcurve_table
from infomarket.claims import jcurve_gate, switching_gate, trend_shares
from infomarket.montecarlo import run_batch
from infomarket.presets import batch_for_preset, switching_for_preset
from infomarket.switching import SwitchingRun, run_switching_ensemble

JCURVE_SEED, JCURVE_SESSIONS, JCURVE_RUNS = 1, 30, 10
SWITCHING_SEED, SWITCHING_PERIODS = 1, 2000
JOBS = 2


def test_jcurve_claim():
    # "the average informed agents underperform random traders; only the
    # most informed agents are able to beat the market"
    cfg = replace(batch_for_preset("jcurve10", JCURVE_SEED, jobs=JOBS),
                  n_sessions=JCURVE_SESSIONS, runs_per_session=JCURVE_RUNS)
    gate = jcurve_gate(jcurve_table(run_batch(cfg).samples_by_level()))
    assert gate.passed, (gate.failures, gate.measured)


def test_switching_claim():
    # "it is only for the most informed player that it is rewarding to stay
    # fundamentalist"
    cfg = replace(switching_for_preset("markov5"), n_periods=SWITCHING_PERIODS)
    runs = run_switching_ensemble(cfg, range(1, cfg.n_states + 1), SWITCHING_SEED, jobs=JOBS)
    gate = switching_gate(runs, cfg.n_traders)
    assert gate.passed, (gate.failures, gate.measured)


def _table(means, p):
    levels = tuple(range(len(means)))
    p_matrix = np.full((len(means), len(means)), p)
    np.fill_diagonal(p_matrix, 1.0)
    return JCurveTable(levels, np.array(means, dtype=float), np.zeros(len(means)), p_matrix)


def test_jcurve_gate_names_each_missed_comparison():
    j_curve = [0.0, -7.0, -7.0, -6.0, -4.0, -1.0, 3.0, 6.0, 7.5, 9.0]
    assert jcurve_gate(_table(j_curve, 1e-6)).passed
    gate = jcurve_gate(_table(j_curve, 0.05))  # right signs, not significant
    assert not gate.passed and len(gate.failures) == 5
    flat_top = j_curve[:9] + [-0.5]
    gate = jcurve_gate(_table(flat_top, 1e-6))
    assert gate.failures == ("level 0 (+0.00 pp) not below level 9 (-0.50 pp) at p < 0.01: p = 1e-06",)


def _run(codes):
    return SwitchingRun(codes[0], np.array(codes), 0, 0)


def test_trend_shares_count_the_profiles_in_force():
    # three traders; code - 1 = 0b011 puts traders 1 and 2 on the trend rule.
    # The last code follows the final evaluation and is in force nowhere.
    runs = [_run([4, 4, 1, 8]), _run([1, 2])]
    assert trend_shares(runs, 3).tolist() == [0.5, 0.5, 0.0]
    assert switching_gate(runs, 3).passed


def test_switching_gate_fails_when_the_best_informed_trades_trend():
    gate = switching_gate([_run([5, 5, 7, 1])], 3)  # trader 3 on the trend rule throughout
    assert not gate.passed
    assert gate.failures == ("trader 3 trend share 1.000 is not the lowest (lowest other 0.000)",
                             "trader 3 trend share 1.000 is not below 0.5")
