import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket import dividends, engine, switching
from infomarket.agents import Strategy
from infomarket.rng import stream
from infomarket.switching import (
    SwitchingConfig,
    SwitchingRun,
    aggregate_runs,
    decode_state,
    estimate_transition_matrix,
    frequency_vector,
    run_switching_ensemble,
    run_switching_sim,
    stationarity_gap,
)

F = Strategy.FUNDAMENTALIST
C = Strategy.CHARTIST


def test_reference_codes_three_traders():
    assert decode_state(1, 3) == (F, F, F)
    assert decode_state(2, 3) == (C, F, F)
    assert decode_state(3, 3) == (F, C, F)
    assert decode_state(8, 3) == (C, C, C)


def test_reference_codes_five_traders():
    assert decode_state(32, 5) == (C, C, C, C, C)
    assert decode_state(1, 5) == (F, F, F, F, F)
    assert decode_state(4, 5) == (C, C, F, F, F)


@given(st.integers(1, 10), st.data())
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(n, data):
    # the encoding is the bit layout itself: trader i + 1 is bit i, chartist = 1
    code = data.draw(st.integers(1, 2**n))
    profile = decode_state(code, n)
    assert set(profile) <= {F, C}
    assert 1 + sum(1 << i for i, s in enumerate(profile) if s is C) == code


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_state(0, 3)
    with pytest.raises(ValueError):
        decode_state(9, 3)


def small_switching(n_traders=3, n_periods=40, **kw):
    return SwitchingConfig(n_traders=n_traders, n_periods=n_periods,
                           steps_per_period=20, **kw)


def test_single_trader_never_switches():
    cfg = small_switching(n_traders=1, n_periods=25)
    run = run_switching_sim(cfg, 1, stream(1, 2, 1))
    assert (run.codes == 1).all()
    assert run.all_equal_events == 25


def test_switch_rule_flips_only_below_mean_traders():
    # trace the rule directly: forced returns where only trader 1 underperforms
    returns = [-0.1, 0.05, 0.05]
    mean = float(np.mean(returns))
    bits = 0
    for i, r in enumerate(returns):
        if r < mean:
            bits ^= 1 << i
    assert bits + 1 == 2 and decode_state(bits + 1, 3) == (C, F, F)
    # and flipping again returns to state 1
    for i, r in enumerate(returns):
        if r < mean:
            bits ^= 1 << i
    assert bits + 1 == 1 and decode_state(bits + 1, 3) == (F, F, F)


def test_switching_sim_records_expected_length_and_codes():
    cfg = small_switching(n_periods=40)
    run = run_switching_sim(cfg, 5, stream(7, 2, 5))
    assert run.initial_code == 5
    assert len(run.codes) == 41
    assert run.codes[0] == 5
    assert run.codes.min() >= 1 and run.codes.max() <= 8


def test_switching_sim_interval():
    cfg = small_switching(n_periods=40, interval=5)
    run = run_switching_sim(cfg, 1, stream(7, 2, 1))
    assert len(run.codes) == 9


def test_interval_must_divide_the_segment_and_the_run():
    with pytest.raises(ValueError, match="30-period segment"):
        small_switching(n_periods=40, interval=4)  # divides 40, not 30
    with pytest.raises(ValueError, match="30-period segment"):
        small_switching(n_periods=50, interval=3)  # divides 30, not 50


def test_a_segment_computes_each_present_value_once_per_use(monkeypatch):
    # Each segment's path is computed on once per (level, period) for the
    # session's table, through engine's name, and once per period for the
    # top level's marks, through switching's name.
    table_calls, mark_calls = Counter(), Counter()

    def counting(calls):
        def counted(path, level, period, r_e):
            calls[path, level, period] += 1
            return dividends.conditional_present_value(path, level, period, r_e)
        return counted

    monkeypatch.setattr(engine, "conditional_present_value", counting(table_calls))
    monkeypatch.setattr(switching, "conditional_present_value", counting(mark_calls))
    cfg = small_switching(n_periods=60)
    run_switching_sim(cfg, 3, stream(7, 2, 3))
    # two segments of 30 periods; the top level is marked up to period 31
    paths = {path for path, _, _ in table_calls}
    assert len(paths) == 2 and {path for path, _, _ in mark_calls} == paths
    assert table_calls == Counter({(path, lvl, k): 1 for path in paths for lvl in (1, 2, 3) for k in range(1, 31)})
    assert mark_calls == Counter({(path, 3, k): 1 for path in paths for k in range(1, 32)})


def test_switching_determinism():
    cfg = small_switching()
    a = run_switching_sim(cfg, 3, stream(11, 2, 3))
    b = run_switching_sim(cfg, 3, stream(11, 2, 3))
    assert np.array_equal(a.codes, b.codes)


def test_no_all_flip_transitions():
    # someone is always at or above the mean, so the bitwise complement
    # (anti-diagonal) transition can never occur
    cfg = small_switching(n_periods=60)
    for code0 in (1, 4, 8):
        run = run_switching_sim(cfg, code0, stream(13, 2, code0))
        for a, b in zip(run.codes[:-1], run.codes[1:]):
            assert (a - 1) ^ (b - 1) != (1 << cfg.n_traders) - 1


def test_transition_matrix_simple_sequence():
    est = estimate_transition_matrix([2, 3, 2, 3, 2], 8)
    assert est.counts[1, 2] == 2
    assert est.counts[2, 1] == 2
    assert est.probs[1, 2] == 1.0
    assert est.probs[2, 1] == 1.0
    assert est.row_totals[0] == 0
    assert np.isnan(est.probs[0]).all()
    assert (est.row_totals > 0).tolist() == [False, True, True] + [False] * 5


def test_transition_rows_sum_to_one():
    cfg = small_switching(n_periods=80)
    run = run_switching_sim(cfg, 2, stream(17, 2, 2))
    est = estimate_transition_matrix(run.codes, 8)
    sums = est.probs[est.row_totals > 0].sum(axis=1)
    assert sums == pytest.approx(np.ones(len(sums)), abs=1e-12)


def test_frequency_vector_sums_to_one():
    pi = frequency_vector([1, 1, 2, 3, 2], 8)
    assert pi.sum() == pytest.approx(1.0)
    assert pi[0] == pytest.approx(0.4)


def test_stationarity_gap_uniform_doubly_stochastic():
    t = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    pi = np.full(3, 1 / 3)
    pi_t, linf, l1 = stationarity_gap(pi, t)
    assert pi_t == pytest.approx(pi)
    assert linf == pytest.approx(0.0)
    assert l1 == pytest.approx(0.0)


def test_stationarity_gap_point_mass_with_zero_diagonal():
    # a point mass cannot be stationary when self-transitions are impossible
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    pi = np.array([1.0, 0.0])
    _, linf, _ = stationarity_gap(pi, t)
    assert linf > 0


def test_aggregate_runs_and_ensemble():
    cfg = small_switching(n_periods=30)
    runs = run_switching_ensemble(cfg, (1, 2), master_seed=3, jobs=1)
    assert [r.initial_code for r in runs] == [1, 2]
    runs_par = run_switching_ensemble(cfg, (1, 2), master_seed=3, jobs=2)
    assert all(np.array_equal(a.codes, b.codes) for a, b in zip(runs, runs_par))
    est = aggregate_runs(runs, cfg.n_states)
    assert est.mean_pi.sum() == pytest.approx(1.0)


def test_stderr_needs_two_contributing_runs():
    # row 1 and row 2 are visited by both runs, row 3 by the first only,
    # row 4 by neither
    a = SwitchingRun(1, np.array([1, 2, 3, 1]), 0, 0)
    b = SwitchingRun(1, np.array([1, 2, 1, 2]), 0, 0)
    est = aggregate_runs([a, b], 4)
    assert est.mean_probs[1].tolist() == [0.5, 0.0, 0.5, 0.0]
    assert est.stderr_probs[1].tolist() == pytest.approx([0.5, 0.0, 0.5, 0.0])
    assert est.stderr_probs[0].tolist() == [0.0] * 4
    assert est.mean_probs[2].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert np.isnan(est.stderr_probs[2]).all()
    assert np.isnan(est.mean_probs[3]).all() and np.isnan(est.stderr_probs[3]).all()
    assert np.isfinite(est.stderr_pi).all()
    single = aggregate_runs([a], 4)
    assert np.isnan(single.stderr_probs).all()
    assert np.isnan(single.stderr_pi).all()


def test_diagonal_zero_unless_all_equal_logged():
    cfg = small_switching(n_periods=120)
    run = run_switching_sim(cfg, 4, stream(23, 2, 4))
    est = estimate_transition_matrix(run.codes, 8)
    diag = int(np.trace(est.counts))
    assert diag == run.all_equal_events


def aggregate_run_by_run(runs, n_states):
    """`aggregate_runs`' specification: each run's transition matrix and
    frequencies from `estimate_transition_matrix` and `frequency_vector`,
    stacked, then combined as `aggregate_runs` combines them."""
    mats = np.array([estimate_transition_matrix(run.codes, n_states).probs for run in runs])
    pis = np.array([frequency_vector(run.codes, n_states) for run in runs])
    m = len(runs)
    seen = ~np.isnan(mats)
    contributing = seen.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_probs = np.where(seen, mats, 0.0).sum(axis=0) / contributing
        dev = np.where(seen, mats - mean_probs, 0.0)
        spread = np.sqrt((dev * dev).sum(axis=0) / (contributing - 1))
        stderr_probs = np.where(contributing > 1, spread / np.sqrt(contributing), np.nan)
    stderr_pi = pis.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.full(n_states, np.nan)
    return mean_probs, stderr_probs, pis.mean(axis=0), stderr_pi


@st.composite
def recorded_ensembles(draw):
    """1-12 runs of 2-40 recorded states each, of unequal lengths, over 2-16
    states, aggregated in blocks of 1 to all of the runs."""
    n_states = 1 << draw(st.integers(1, 4))
    runs = [SwitchingRun(1, np.array(draw(st.lists(st.integers(1, n_states), min_size=2, max_size=40))), 0, 0)
            for _ in range(draw(st.integers(1, 12)))]
    return runs, n_states, draw(st.sampled_from((1, n_states * n_states * 3, switching._AGGREGATE_CELLS)))


@given(ensemble=recorded_ensembles())
@settings(max_examples=200, deadline=None)
def test_aggregate_runs_in_one_pass_has_the_run_by_run_bits(ensemble):
    # The sums that add each block of runs' matrices in turn keep the bits
    # of numpy's sums over all the stacked matrices, also from 8 runs on,
    # where a pairwise sum would differ; a run's last state counts no
    # transition into the next run's first, in a block or across blocks.
    runs, n_states, cells = ensemble
    with mock.patch.object(switching, "_AGGREGATE_CELLS", cells):
        est = aggregate_runs(runs, n_states)
    got = (est.mean_probs, est.stderr_probs, est.mean_pi, est.stderr_pi)
    for a, b in zip(got, aggregate_run_by_run(runs, n_states)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_aggregate_runs_holds_no_matrix_per_run():
    # 32 runs over 256 states (8 traders) peak less than one 256 x 256
    # matrix above 4 runs; what grows is the runs' codes and their state
    # frequencies (runs x states), which the frequencies' stderr needs.
    # Stacking a matrix per run peaked at 67.6 MiB for 32 runs against 9.8
    # MiB for 4.
    rng = np.random.default_rng(0)

    def peak(n_runs):
        runs = [SwitchingRun(1, rng.integers(1, 257, 13), 0, 0) for _ in range(n_runs)]
        tracemalloc.start()
        try:
            aggregate_runs(runs, 256)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the first call's one-time allocations
    assert peak(32) < peak(4) + 256 * 256 * 8


def test_aggregate_runs_checks_every_run():
    for codes, message in (([1], "at least two"), ([1, 5], "outside 1..n_states"), ([0, 1], "outside")):
        with pytest.raises(ValueError, match=message):
            aggregate_runs([SwitchingRun(1, np.array([1, 2, 1]), 0, 0), SwitchingRun(2, np.array(codes), 0, 0)], 4)
