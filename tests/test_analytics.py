import io
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.analytics import (
    DegenerateSeriesError,
    TickDataError,
    acf,
    jarque_bera,
    jcurve_table,
    load_ticks,
    log_returns,
    moments,
    random_trader_sweep,
    wilcoxon_rank_sum,
)


# --- independent oracles -----------------------------------------------------


def rank_sum_p_bruteforce(x, y):
    """Two-sided exact p by explicit enumeration of all rank splits."""
    pooled = list(x) + list(y)
    n = len(pooled)
    # midranks
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = sum(ranks[: len(x)])
    eps = 1e-9
    below = above = total = 0
    for combo in itertools.combinations(range(n), len(x)):
        w = sum(ranks[i] for i in combo)
        total += 1
        if w <= w_obs + eps:
            below += 1
        if w >= w_obs - eps:
            above += 1
    return min(1.0, 2.0 * min(below, above) / total)


def acf_bruteforce(series, lag):
    x = list(map(float, series))
    m = sum(x) / len(x)
    num = sum((x[t] - m) * (x[t - lag] - m) for t in range(lag, len(x)))
    den = sum((v - m) ** 2 for v in x)
    return num / den


def moments_bruteforce(series):
    x = list(map(float, series))
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    return mean, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2


# --- wilcoxon ----------------------------------------------------------------


def test_identical_samples_p_is_one():
    assert wilcoxon_rank_sum([1, 2, 3], [1, 2, 3]) >= 0.9


def test_two_by_two_exact_value():
    assert wilcoxon_rank_sum([1, 2], [3, 4]) == pytest.approx(1 / 3)


def test_separated_samples_tiny_p():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 0.1, 50)
    y = rng.normal(10.0, 0.1, 50)
    assert wilcoxon_rank_sum(x, y) < 1e-6
    # sampling permutation oracle agrees that nothing is as extreme
    pooled = np.concatenate([x, y])
    w_obs = np.argsort(np.argsort(pooled))[:50].sum()
    hits = 0
    for _ in range(2000):
        rng.shuffle(pooled)
        w = np.argsort(np.argsort(pooled))[:50].sum()
        if abs(w - 50 * 101 / 2) >= abs(w_obs - 50 * 101 / 2):
            hits += 1
    assert hits == 0


def test_degenerate_all_equal():
    assert wilcoxon_rank_sum([5, 5, 5], [5, 5]) == 1.0


def test_symmetry_exact_equality():
    rng = random.Random(1)
    for _ in range(50):
        x = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
        y = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
        assert wilcoxon_rank_sum(x, y) == wilcoxon_rank_sum(y, x)


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=8),
    st.lists(st.integers(0, 1000), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_exact_matches_bruteforce_enumeration(xi, yi):
    # spread values out so ties are rare but still possible
    x = [v * 1.0 for v in xi]
    y = [v * 1.0 for v in yi]
    assert wilcoxon_rank_sum(x, y) == pytest.approx(rank_sum_p_bruteforce(x, y), abs=1e-10)


def test_exact_tie_free_property_batch():
    rng = random.Random(2024)
    for _ in range(300):
        nx, ny = rng.randint(1, 8), rng.randint(1, 8)
        pool = rng.sample(range(10000), nx + ny)
        x = [float(v) for v in pool[:nx]]
        y = [float(v) for v in pool[nx:]]
        assert wilcoxon_rank_sum(x, y) == pytest.approx(
            rank_sum_p_bruteforce(x, y), abs=1e-10
        )


def test_large_sample_approximation_reasonable():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 300)
    y = rng.normal(0, 1, 300)
    p = wilcoxon_rank_sum(x, y)
    assert 0.01 < p <= 1.0


# --- acf ---------------------------------------------------------------------


@pytest.mark.parametrize("nx, ny", [(1, 5), (3, 4), (5, 5), (6, 10), (8, 8)])
def test_exact_branch_matches_scipy(nx, ny):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(nx * 100 + ny)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, nx)
        y = rng.normal(0.7, 1.0, ny)
        expected = stats.mannwhitneyu(x, y, alternative="two-sided", method="exact").pvalue
        assert wilcoxon_rank_sum(x, y) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("nx, ny", [(9, 8), (12, 20), (40, 35), (100, 100)])
def test_asymptotic_branch_with_ties_matches_scipy(nx, ny):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(nx * 1000 + ny)
    for _ in range(20):
        x = rng.integers(0, 6, nx).astype(float)
        y = rng.integers(1, 7, ny).astype(float)
        expected = stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic",
                                      use_continuity=True).pvalue
        assert wilcoxon_rank_sum(x, y) == pytest.approx(expected, rel=1e-9)


def test_acf_lag_zero_is_one():
    out = acf(np.sin(np.arange(50)), max_lag=5)
    assert out.values[0] == 1.0
    assert out.band == pytest.approx(1.96 / math.sqrt(50))


def test_acf_alternating_series():
    series = np.tile([1.0, -1.0], 25)  # N = 50
    out = acf(series, max_lag=2)
    assert out.values[1] == pytest.approx(-(50 - 1) / 50, abs=1e-12)
    assert out.values[1] == pytest.approx(acf_bruteforce(series, 1), abs=1e-12)


def test_acf_constant_series_degenerate():
    with pytest.raises(DegenerateSeriesError):
        acf(np.full(30, 2.5), max_lag=3)


def test_acf_iid_series_stays_in_band():
    rng = np.random.default_rng(12)
    series = rng.permutation(rng.normal(0, 1, 400))
    out = acf(series, max_lag=20)
    inside = (np.abs(out.values[1:]) < out.band).sum()
    assert inside >= 0.93 * 20


def test_acf_bad_lag_rejected():
    with pytest.raises(ValueError):
        acf([1.0, 2.0, 3.0], max_lag=3)


# --- moments and jarque-bera -------------------------------------------------


def test_moments_two_point_sample():
    mom = moments([1.0, -1.0] * 10)
    assert mom.skewness == pytest.approx(0.0, abs=1e-12)
    assert mom.kurtosis == pytest.approx(1.0)


def test_moments_normal_sample_kurtosis_three():
    rng = np.random.default_rng(7)
    mom = moments(rng.normal(0, 1, 200_000))
    assert mom.kurtosis == pytest.approx(3.0, abs=0.2)


def test_moments_constant_series_degenerate():
    with pytest.raises(DegenerateSeriesError):
        moments(np.full(10, 1.0))


def test_jb_zero_for_skew_zero_kurt_three():
    # engineered sample with population skewness 0 and kurtosis exactly 3
    series = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    mom = moments(series)
    assert mom.skewness == pytest.approx(0.0, abs=1e-12)
    assert mom.kurtosis == pytest.approx(3.0, abs=1e-12)
    jb, p = jarque_bera(series)
    assert jb == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_jb_two_point_sample_value():
    series = [1.0, -1.0] * 50  # N=100, S=0, K=1
    jb, p = jarque_bera(series)
    assert jb == pytest.approx(100 * 4 / 24)
    assert p == pytest.approx(math.exp(-jb / 2))
    assert p == pytest.approx(2.4e-4, rel=0.05)


def test_jb_large_normal_sample_not_rejected():
    rng = np.random.default_rng(42)
    _, p = jarque_bera(rng.normal(0, 1, 50_000))
    assert p > 0.01


def test_moments_jb_acf_fixture_matches_bruteforce():
    fixture = [0.3, -1.2, 0.8, 0.05, -0.7, 1.9, -0.33, 0.41, -0.21, 0.6]
    mean, std, skew, kurt = moments_bruteforce(fixture)
    mom = moments(fixture)
    assert mom.mean == pytest.approx(mean, abs=1e-12)
    assert mom.std == pytest.approx(std, abs=1e-12)
    assert mom.skewness == pytest.approx(skew, abs=1e-12)
    assert mom.kurtosis == pytest.approx(kurt, abs=1e-12)
    jb, p = jarque_bera(fixture)
    jb_expected = 10 * (skew**2 / 6 + (kurt - 3) ** 2 / 24)
    assert jb == pytest.approx(jb_expected, abs=1e-12)
    assert p == pytest.approx(math.exp(-jb_expected / 2), abs=1e-12)
    out = acf(fixture, max_lag=4)
    for lag in range(1, 5):
        assert out.values[lag] == pytest.approx(acf_bruteforce(fixture, lag), abs=1e-12)


# --- log returns and tick ingestion ------------------------------------------


def test_log_returns_basic():
    out = log_returns([1.0, math.e, math.e**2])
    assert out == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        log_returns([1.0, -2.0])


def test_load_ticks_happy_path():
    buf = io.StringIO("time,price\n1,40.0\n2,40.5\n4,39.9\n")
    series = load_ticks(buf)
    assert series.times.tolist() == [1.0, 2.0, 4.0]
    assert len(series.log_returns()) == 2
    assert series.prices.tolist() == [40.0, 40.5, 39.9]


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("time,price\n1,40\n1,41\n", 3),  # non-increasing time
        ("time,price\n1,40\n2,-3\n", 3),  # negative price
        ("time,price\n1,40\nx,41\n", 3),  # non-numeric
        ("time,price\n1\n", 2),  # missing field
    ],
)
def test_load_ticks_rejects_bad_rows_with_line_numbers(body, lineno):
    with pytest.raises(TickDataError, match=f"line {lineno}"):
        load_ticks(io.StringIO(body))


def test_load_ticks_bad_header():
    with pytest.raises(TickDataError, match="line 1"):
        load_ticks(io.StringIO("t,p\n1,40\n"))


def test_load_ticks_empty():
    with pytest.raises(TickDataError):
        load_ticks(io.StringIO(""))


# --- curve table -------------------------------------------------------------


def test_jcurve_table_identical_samples_flat():
    rng = np.random.default_rng(5)
    base = rng.normal(0, 1, 40)
    table = jcurve_table({0: base, 1: base.copy(), 2: base.copy()})
    assert table.means == pytest.approx([base.mean()] * 3)
    off_diag = table.p_matrix[~np.eye(3, dtype=bool)]
    assert (off_diag >= 0.9).all()


def test_jcurve_table_symmetry_and_orientation():
    rng = np.random.default_rng(6)
    samples = {0: rng.normal(0, 1, 60), 5: rng.normal(-2, 1, 60), 9: rng.normal(3, 1, 60)}
    table = jcurve_table(samples)
    assert table.levels == (0, 5, 9)
    assert np.allclose(table.p_matrix, table.p_matrix.T)
    assert table.p_matrix[0, 1] < 0.05
    assert table.means[2] > table.means[0] > table.means[1]


def test_random_trader_sweep_rows():
    rows = random_trader_sweep({3: np.array([-3.0, -2.0]), 10: np.array([0.1, -0.1])})
    assert rows[0][0] == 3
    assert rows[0][1] == pytest.approx(-2.5)
    assert rows[1][1] == pytest.approx(0.0)
