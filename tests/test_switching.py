import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.agents import Strategy
from infomarket.rng import stream
from infomarket.switching import (
    SwitchingConfig,
    SwitchingRun,
    aggregate_runs,
    decode_state,
    encode_state,
    estimate_transition_matrix,
    frequency_vector,
    run_switching_ensemble,
    run_switching_sim,
    stationarity_gap,
)

F = Strategy.FUNDAMENTALIST
C = Strategy.CHARTIST


def test_reference_codes_three_traders():
    assert encode_state([F, F, F]) == 1
    assert encode_state([C, F, F]) == 2
    assert encode_state([F, C, F]) == 3
    assert encode_state([C, C, C]) == 8


def test_reference_codes_five_traders():
    assert encode_state([C, C, C, C, C]) == 32
    assert encode_state([F, F, F, F, F]) == 1
    assert decode_state(4, 5) == (C, C, F, F, F)


@given(st.integers(1, 10), st.data())
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(n, data):
    code = data.draw(st.integers(1, 2**n))
    assert encode_state(decode_state(code, n)) == code


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_state(0, 3)
    with pytest.raises(ValueError):
        decode_state(9, 3)


def test_encode_rejects_random_strategy():
    with pytest.raises(ValueError):
        encode_state([Strategy.RANDOM, F])


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
    returns = np.array([-0.1, 0.05, 0.05])
    mean = returns.mean()
    strategies = [F, F, F]
    flips = returns < mean
    new = [
        (C if s is F else F) if flip else s
        for s, flip in zip(strategies, flips)
    ]
    assert encode_state(new) == 2
    # and flipping again returns to state 1
    strategies = new
    new = [
        (C if s is F else F) if flip else s
        for s, flip in zip(strategies, flips)
    ]
    assert encode_state(new) == 1


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
    assert est.visited.tolist() == [False, True, True] + [False] * 5


def test_transition_rows_sum_to_one():
    cfg = small_switching(n_periods=80)
    run = run_switching_sim(cfg, 2, stream(17, 2, 2))
    est = estimate_transition_matrix(run.codes, 8)
    sums = est.probs[est.visited].sum(axis=1)
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
    assert est.pooled.counts.sum() == sum(len(r.codes) - 1 for r in runs)


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
