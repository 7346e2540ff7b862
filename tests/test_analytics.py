import csv
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infomarket
from infomarket import _kernel, analytics, montecarlo
from infomarket.analytics import (
    DegenerateSeriesError,
    TickDataError,
    _midranks,
    _read_tick_rows,
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


def midranks_loop(pooled):
    """Midranks by walking the sorted tie groups one value at a time: the
    reference that `_midranks` must match bit for bit."""
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_sum_p_normal_loop(x, y):
    """Normal-approximation p with `midranks_loop` ranks and Counter tie groups."""
    pooled = np.concatenate([x, y])
    ranks = midranks_loop(pooled)
    n, nx, ny = len(pooled), len(x), len(y)
    w = ranks[:nx].sum()
    tie_term = sum(c**3 - c for c in Counter(pooled.tolist()).values()) / (n * (n - 1))
    var = nx * ny / 12.0 * (n + 1 - tie_term)
    z = (abs(w - nx * (n + 1) / 2.0) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(max(z, 0.0) / math.sqrt(2.0)))


def tied_samples(seed, count):
    """Random samples of 1..3000 values with many ties: normal or Student-t
    draws rounded to 0..3 decimals, and raw Student-t draws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 3001))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            yield rng.normal(0.0, 1.0, size).round(int(rng.integers(0, 4)))
        elif kind == 1:
            yield rng.standard_t(3, size).round(int(rng.integers(0, 4)))
        else:
            yield rng.standard_t(3, size)


def acf_bruteforce(series, lag):
    x = list(map(float, series))
    m = math.fsum(x) / len(x)
    num = math.fsum((x[t] - m) * (x[t - lag] - m) for t in range(lag, len(x)))
    den = math.fsum((v - m) ** 2 for v in x)
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


@pytest.mark.parametrize("size", [3, 30])  # exact branch and normal approximation
def test_nan_sample_is_refused(size):
    # np.unique would rank NaN above every value and return a p-value.
    x = np.arange(size, dtype=float)
    y = np.append(np.arange(size - 1, dtype=float), np.nan)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_rank_sum(a, b)


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


def test_midranks_match_the_loop_bit_for_bit():
    for pooled in tied_samples(7, 200):
        ranks, counts = _midranks(pooled)
        assert np.array_equal(ranks, midranks_loop(pooled))
        assert counts.tolist() == [c for _, c in sorted(Counter(pooled.tolist()).items())]


def test_midranks_match_scipy_rankdata():
    stats = pytest.importorskip("scipy.stats")
    for pooled in tied_samples(8, 50):
        assert np.array_equal(_midranks(pooled)[0], stats.rankdata(pooled))


def test_large_tied_sample_p_matches_the_loop_exactly():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, 10_000).round(2)
    y = rng.normal(0.02, 1.0, 10_000).round(2)
    expected = rank_sum_p_normal_loop(x, y)
    assert 0.0 < expected < 1.0
    assert wilcoxon_rank_sum(x, y) == expected


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
    # Too short a series is named as such, not as an empty lag range.
    for series in ([], [1.0]):
        with pytest.raises(ValueError, match=f"need at least two observations, got {len(series)}"):
            acf(series, max_lag=1)


# 50 000 points: long enough that OpenBLAS splits a dot product across threads.
_ACF_SCRIPT = """
import sys
import numpy as np
from infomarket.analytics import acf
x = np.random.default_rng(11).standard_t(3, 50_000)
sys.stdout.write(acf(x, 20).values.tobytes().hex() + acf(np.abs(x), 20).values.tobytes().hex())
"""


def test_acf_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(infomarket.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", _ACF_SCRIPT], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert len(outputs[0]) == 2 * 21 * 16
    assert outputs[0] == outputs[1]


def test_acf_matches_an_exact_sum_on_a_long_series():
    series = np.random.default_rng(11).standard_t(3, 50_000)
    out = acf(series, max_lag=5)
    for lag in range(1, 6):
        assert abs(out.values[lag] - acf_bruteforce(series, lag)) <= 1e-12


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
    jb, p = jarque_bera(moments(series), len(series))
    assert jb == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_jb_two_point_sample_value():
    series = [1.0, -1.0] * 50  # N=100, S=0, K=1
    jb, p = jarque_bera(moments(series), len(series))
    assert jb == pytest.approx(100 * 4 / 24)
    assert p == pytest.approx(math.exp(-jb / 2))
    assert p == pytest.approx(2.4e-4, rel=0.05)


def test_jb_large_normal_sample_not_rejected():
    rng = np.random.default_rng(42)
    series = rng.normal(0, 1, 50_000)
    _, p = jarque_bera(moments(series), len(series))
    assert p > 0.01


def test_moments_jb_acf_fixture_matches_bruteforce():
    fixture = [0.3, -1.2, 0.8, 0.05, -0.7, 1.9, -0.33, 0.41, -0.21, 0.6]
    mean, std, skew, kurt = moments_bruteforce(fixture)
    mom = moments(fixture)
    assert mom.mean == pytest.approx(mean, abs=1e-12)
    assert mom.std == pytest.approx(std, abs=1e-12)
    assert mom.skewness == pytest.approx(skew, abs=1e-12)
    assert mom.kurtosis == pytest.approx(kurt, abs=1e-12)
    jb, p = jarque_bera(moments(fixture), len(fixture))
    jb_expected = 10 * (skew**2 / 6 + (kurt - 3) ** 2 / 24)
    assert jb == pytest.approx(jb_expected, abs=1e-12)
    assert p == pytest.approx(math.exp(-jb_expected / 2), abs=1e-12)
    out = acf(fixture, max_lag=4)
    for lag in range(1, 5):
        assert out.values[lag] == pytest.approx(acf_bruteforce(fixture, lag), abs=1e-12)


def test_moments_of_a_long_heavy_tailed_series_match_fsum():
    # Student-t(3) has no finite fourth moment, so a few large returns carry
    # the kurtosis. Against sums rounded once (math.fsum): the kurtosis to
    # 1e-10 relative; the skewness, a sum of terms of both signs, to 1e-10
    # of the scale E|xc|^3 / sigma^3 its terms have.
    x = np.random.default_rng(5).standard_t(3, 100_000)
    n = len(x)
    m = math.fsum(x) / n
    xc = [v - m for v in x]
    var = math.fsum(d * d for d in xc) / n
    sigma3 = var**1.5
    skew = math.fsum(d * d * d for d in xc) / n / sigma3
    kurt = math.fsum((d * d) ** 2 for d in xc) / n / var**2
    abs3 = math.fsum(abs(d) ** 3 for d in xc) / n / sigma3
    mom = moments(x)
    assert mom.kurtosis == pytest.approx(kurt, rel=1e-10, abs=0)
    assert abs(mom.skewness - skew) <= 1e-10 * abs3


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
    assert len(log_returns(series.prices)) == 2
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


def test_load_ticks_reads_float64_and_numbers_bad_rows(tmp_path):
    rng = np.random.default_rng(4)
    times = np.cumsum(rng.uniform(0.001, 1.0, 2000))
    prices = rng.uniform(1.0, 100.0, 2000)
    rows = [f"{t!r},{p!r}" for t, p in zip(times.tolist(), prices.tolist())]
    stamps = [row.split(",")[0] for row in rows]
    good = tmp_path / "good.csv"
    good.write_text("time,price\n" + "\n".join(rows) + "\n")
    series = load_ticks(good)
    assert series.times.dtype == np.float64 and series.prices.dtype == np.float64
    assert np.array_equal(series.times, times) and np.array_equal(series.prices, prices)
    bad = tmp_path / "bad.csv"
    negative = rows[:1500] + [f"{stamps[1500]},-1.0"] + rows[1501:]
    bad.write_text("time,price\n" + "\n".join(negative) + "\n")
    with pytest.raises(TickDataError, match="line 1502: price must be positive, got -1.0"):
        load_ticks(bad)
    t = stamps[1699]
    repeated = rows[:1700] + [f"{t},50.0"] + rows[1701:]
    bad.write_text("time,price\n" + "\n".join(repeated) + "\n")
    message = f"line 1702: time {t} not increasing (previous {t})"
    with pytest.raises(TickDataError, match=re.escape(message)):
        load_ticks(bad)


def test_load_ticks_bad_header():
    with pytest.raises(TickDataError, match="line 1"):
        load_ticks(io.StringIO("t,p\n1,40\n"))


def test_load_ticks_empty():
    with pytest.raises(TickDataError):
        load_ticks(io.StringIO(""))


@pytest.mark.parametrize("body", ["time,price\n", "time,price\n\n\n"], ids=["header only", "header and blank lines"])
def test_load_ticks_without_ticks_raises_and_warns_nothing(body):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TickDataError, match="need at least two ticks"):
            load_ticks(io.StringIO(body))
    assert [str(w.message) for w in caught] == []


def _outcome(read, source):
    """What a tick reader makes of `source`: its arrays, or its error's type and text."""
    try:
        series = read(source)
    except (ValueError, csv.Error) as e:
        return type(e), str(e)
    assert series.times.dtype == np.float64 and series.prices.dtype == np.float64
    return series.times, series.prices


def _same_outcome(bulk, rows) -> bool:
    if isinstance(rows[0], type):
        return bulk == rows
    return (not isinstance(bulk[0], type)
            and np.array_equal(bulk[0], rows[0]) and np.array_equal(bulk[1], rows[1]))


def _read_rows_from_path(path):
    with open(path, newline="", encoding="utf-8") as f:
        return _read_tick_rows(f)


@contextmanager
def split_parse():
    """Any body of 7 bytes or more parsed in two or three parts, each on a
    share of its own: the least input worth a share thread lowered to one
    row, and three CPUs to run the shares on."""
    with mock.patch.object(montecarlo, "SHARE_FLOOR", 1), mock.patch.object(montecarlo, "default_jobs", lambda: 3):
        yield


# The processes `load_ticks` may run in, each held to the row reader: one
# that loads the kernel, whose plain rows take the compiled parse, the same
# with every body split between shares, and one whose kernel resolved to
# nothing, where every file takes the row reader.
BULK_PARSES = {
    "compiled": nullcontext,
    "split": split_parse,
    "no kernel": lambda: mock.patch.object(_kernel, "_resolved", (None, "the row reader, as with no kernel")),
}


# Each file after its header, with the times it yields or a piece of its error.
TICK_EDGE_CASES = {
    "blank lines": ("1,40\n\n2,41\n\n", [1, 2]),
    "whitespace-only line": ("1,40\n   \n2,41\n", "line 3: expected 2 fields, got 1"),
    "tab-only line": ("1,40\n\t\n2,41\n", "line 3: expected 2 fields, got 1"),
    "comment line": ("# note\n1,40\n2,41\n", "line 2: expected 2 fields, got 1"),
    "trailing comment": ("1,40 # note\n2,41\n", "line 2: non-numeric field"),
    "CRLF": ("1,40\r\n2,41\r\n3,42\r\n", [1, 2, 3]),
    "bare CR": ("1,40\r2,41\r", [1, 2]),
    "quoted fields": ('"1","40"\n2,"41"\n', [1, 2]),
    "quote then text": ('"1"0,40\n20,41\n', [10, 20]),
    "extra columns": ("1,40,a,b\n2,41,c\n", [1, 2]),
    "empty extra column": ("1,40,\n2,41,\n", [1, 2]),
    "quoted newline in extra column": ('1,40,"a\nb"\n2,41\n', [1, 2]),
    "unclosed quote in extra column": ('1,40,"note\n2,41\n3,42,end"\n4,43\n', [1, 4]),
    "underscore digits": ("1_0,40\n20,41\n", [10, 20]),
    "Arabic-Indic digits": ("\u0661,40\n\u0662,41\n", [1, 2]),
    "padded fields": (" 1 , 40 \n\t2,41\n", [1, 2]),
    "exponents and signs": ("+1e0,4.0E1\n2.,.41e2\n", [1, 2]),
    "nan price": ("1,40\n2,nan\n", "line 3: non-finite value"),
    "inf time": ("1,40\ninf,41\n", "line 3: non-finite value"),
    "1e999 price": ("1,40\n2,1e999\n", "line 3: non-finite value"),
    "negative price": ("1,40\n2,-1\n", "line 3: price must be positive, got -1.0"),
    "zero price": ("1,0\n2,41\n", "line 2: price must be positive, got 0.0"),
    "repeated time": ("1,40\n1,41\n", "line 3: time 1.0 not increasing (previous 1.0)"),
    "missing field": ("1,40\n2\n", "line 3: expected 2 fields, got 1"),
    "empty field": ("1,40\n2,\n", "line 3: non-numeric field in ['2', '']"),
    "NUL byte": ("1,40\x00\n2,41\n", "line 2: non-numeric field"),
    "hexadecimal": ("0x1,40\n2,41\n", "line 2: non-numeric field"),
    "one tick": ("1,40\n", "need at least two ticks"),
    "price over the csv field limit": ("1,40\n2,4" + "0" * 200_000 + "\n", "line 3: non-finite value"),
    "ignored field over the csv field limit": ("1,40," + "x" * 200_000 + "\n2,41\n", [1, 2]),
    "CRLF ending in blank lines": ("1,40\r\n2,41\r\n\r\n\r\n", [1, 2]),
    "trailing CR at end of file": ("1,40\r\n2,41\r", [1, 2]),
    "unquoted third column": ("1,40,buy\n2,41,sell\n", [1, 2]),
    "non-ASCII byte in an ignored column": ("1,40,\u00e9\n2,41,x\n", [1, 2]),
    "time of 2**53 + 1": (f"1,40\n{2**53 + 1},41\n", [1, 2**53]),
    "price with 23 fraction digits": ("1,40.12345678901234567890123\n2,41\n", [1, 2]),
}


@pytest.mark.parametrize("case", sorted(TICK_EDGE_CASES))
def test_bulk_and_row_readers_agree_on_edge_cases(tmp_path, case):
    body, expected = TICK_EDGE_CASES[case]
    path = tmp_path / "ticks.csv"
    path.write_bytes(("time,price\r\n" if "\r" in body else "time,price\n").encode() + body.encode())
    rows = _outcome(_read_rows_from_path, path)
    for parse, patch in BULK_PARSES.items():
        with patch():
            bulk = _outcome(load_ticks, path)
        assert _same_outcome(bulk, rows), (parse, bulk, rows)
    if isinstance(expected, list):
        assert rows[0].tolist() == expected
    else:
        assert rows[0] is TickDataError and expected in rows[1]


@pytest.mark.parametrize("text", ["", "t,p\n1,40\n2,41\n", " Time , PRICE \n1,40\n2,41\n",
                                  "time,price,volume\n1,40,5\n2,41,6\n", '"time","price"\n1,40\n2,41\n',
                                  "time,price\r1,40\n2,41\n", "time,price\r1,40\r2,41\r", "\n1,40\n2,41\n",
                                  "time,price", "time,\x00price\n1,40\n2,41\n"],
                         ids=["empty", "bad header", "padded header", "header with volume", "quoted header",
                              "bare CR after the header", "bare CRs only", "blank header", "header only",
                              "NUL in the header"])
def test_bulk_and_row_readers_agree_on_headers(tmp_path, text):
    # From handles, seekable or not, and from a path: where the first line
    # has no quote and no CR, its header is split by hand, as `csv` would
    # read it.
    path = tmp_path / "ticks.csv"
    path.write_bytes(text.encode())
    rows = _outcome(_read_tick_rows, io.StringIO(text, newline=""))
    for patch in BULK_PARSES.values():
        with patch():
            for source in (io.StringIO(text, newline=""), Unseekable(text, newline=""), path):
                assert _same_outcome(_outcome(load_ticks, source), rows), source


_ODD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "-1", "1_0", "x", "", " 7 ", '"7"', '"'])
_LINE_KINDS = st.sampled_from(["row"] * 6 + ["blank", "space", "quoted", "extra", "odd time", "odd price",
                                               "repeat", "open quote"])


@st.composite
def tick_files(draw):
    t = 0
    lines = ["time,price"]
    for kind in draw(st.lists(_LINE_KINDS, max_size=12)):
        if kind != "repeat":
            t += draw(st.integers(1, 3))
        price = repr(draw(st.floats(0.01, 1000.0)))
        lines.append({
            "row": f"{t},{price}",
            "repeat": f"{t},{price}",
            "blank": "",
            "space": draw(st.sampled_from([" ", "  ", "\t"])),
            "quoted": f'"{t}","{price}"',
            "extra": f"{t},{price},{draw(st.text(alphabet='ab, ', max_size=4))}",
            "odd time": f"{draw(_ODD_CELLS)},{price}",
            "odd price": f"{t},{draw(_ODD_CELLS)}",
            "open quote": f'{t},{price},"open',
        }[kind])
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


@settings(max_examples=300, deadline=None)
@given(tick_files())
def test_bulk_and_row_readers_agree_on_generated_files(text):
    rows = _outcome(_read_tick_rows, io.StringIO(text, newline=""))
    for parse, patch in BULK_PARSES.items():
        with patch():
            bulk = _outcome(load_ticks, io.StringIO(text, newline=""))
        assert _same_outcome(bulk, rows), (parse, bulk, rows)


# The characters of plain rows and a few that break their form.
_FUZZ_ALPHABET = '0123456789.,\r\n\t "xe+-'


@st.composite
def fuzzed_tick_bytes(draw):
    """A header or none, then lines that are mostly plain rows with times
    that mostly rise, the others any text of `_FUZZ_ALPHABET`, each ended by
    LF, CRLF, a bare CR or nothing; the whole is often cut anywhere."""
    t, lines = 0, []
    for plain in draw(st.lists(st.sampled_from([True, True, True, False]), max_size=10)):
        t += draw(st.sampled_from([1, 1, 2, 0, -1]))
        line = (f"{t},{draw(st.integers(0, 999))}.{draw(st.integers(0, 99))}" if plain
                else draw(st.text(_FUZZ_ALPHABET, max_size=12)))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r", ""])))
    text = draw(st.sampled_from(["time,price\n", "time,price\r\n", ""])) + "".join(lines)
    return text[:draw(st.one_of(st.just(len(text)), st.integers(0, len(text))))].encode("ascii")


@settings(max_examples=500, deadline=None)
@given(fuzzed_tick_bytes())
def test_load_ticks_and_the_row_reader_agree_on_fuzzed_bytes(data):
    # The compiled parse is the only bulk route, so whatever it reads must
    # read as the row reader reads it, and whatever the row reader reads
    # otherwise or refuses, the parse or its checks must refuse.
    rows = _outcome(_read_tick_rows, io.StringIO(data.decode("ascii"), newline=""))
    for parse, patch in BULK_PARSES.items():
        with patch():
            assert _same_outcome(_outcome(load_ticks, io.BytesIO(data)), rows), (parse, data, rows)


def test_plain_file_never_reaches_the_row_reader(tmp_path, monkeypatch):
    if _kernel.resolve() is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")

    def refuse(f):
        raise AssertionError("the row reader was called")

    monkeypatch.setattr(analytics, "_read_tick_rows", refuse)
    times = np.cumsum(np.random.default_rng(8).integers(1, 50, 3000)).astype(float)
    prices = np.round(np.random.default_rng(9).uniform(10, 90, 3000), 2)
    rows = "".join(f"{t!r},{p!r}\n" for t, p in zip(times.tolist(), prices.tolist()))
    # R's write.csv quotes the header names; such a file keeps the compiled parse.
    for header in ("time,price\n", '"time","price"\n'):
        path = tmp_path / "ticks.csv"
        path.write_text(header + rows)
        for source in (path, io.StringIO(header + rows)):
            series = load_ticks(source)
            assert np.array_equal(series.times, times) and np.array_equal(series.prices, prices)


def test_a_plain_file_is_one_compiled_parse_and_no_loadtxt(tmp_path, monkeypatch):
    lib = _kernel.resolve()
    if lib is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")
    calls = Counter()

    class Counting:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(lib, name)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(_kernel, "_resolved", (Counting(), None))
    monkeypatch.setattr(np, "loadtxt", refuse)
    path = tmp_path / "ticks.csv"
    path.write_text("time,price\n" + "".join(f"{t},{40 + t % 7}.{t % 100:02d}\n" for t in range(1, 1001)))
    series = load_ticks(path)
    assert calls == {"im_parse_ticks": 1}
    assert series.times.tolist() == list(range(1, 1001))
    assert series.prices.tolist() == [float(f"{40 + t % 7}.{t % 100:02d}") for t in range(1, 1001)]


# Bodies with every line form the parse takes, and some it refuses or whose
# rows fail a check, each as (body, one call's outcome).
SPLIT_BODIES = [
    (b"1,40\n2,41.5\r\n\n3,42,x y\n\r\n4,43\r\n5,44", [1, 2, 3, 4, 5]),
    (b"1,40\n2,41\n3,42\n", [1, 2, 3]),
    (b"\n\n1,40\r\n2,41\r\n", [1, 2]),
    (b"1,40\n2,41\n3,-42\n4,43\n", None),
    (b"1,40\n2,41\n2,42\n4,43\n", None),
    (b"1,40\n2,41\n3,42\r4,43\n", None),
    (b"1,40\n2,41\n3,42\n4,43,\"\n", None),
    (b"1,40\n\n\n\n", None),
]


@pytest.mark.parametrize("body, expected", SPLIT_BODIES)
def test_a_body_cut_after_any_line_ends_parses_as_one_call(body, expected):
    # A part starts where a line starts, the one thing the parse keeps from
    # line to line; so cut after any one or two line ends, the parts accept
    # or refuse as the whole does and give its rows in its order.
    lib = _kernel.resolve()
    if lib is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")
    data = np.frombuffer(body, np.uint8)
    whole = analytics._parse_tick_parts(lib, data, [0, len(data)])
    if expected is None:
        assert whole is None
    else:
        assert whole.times.tolist() == expected
    ends = [i + 1 for i, byte in enumerate(body) if byte == ord("\n") and i + 1 < len(body)]
    for cuts in [*itertools.combinations(ends, 1), *itertools.combinations(ends, 2)]:
        split = analytics._parse_tick_parts(lib, data, [0, *cuts, len(data)])
        if whole is None:
            assert split is None, cuts
        else:
            assert np.array_equal(split.times, whole.times) and np.array_equal(split.prices, whole.prices), cuts


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_a_split_parse_makes_one_call_per_share_and_never_reaches_the_row_reader(tmp_path, monkeypatch, end):
    # Were a part cut anywhere but just after a line end, it would refuse
    # and the row reader would give the same series; so the row reader is
    # refused here.
    lib = _kernel.resolve()
    if lib is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")
    calls = Counter()

    class Counting:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(lib, name)

    def refuse(f):
        raise AssertionError("the row reader was called")

    monkeypatch.setattr(_kernel, "_resolved", (Counting(), None))
    monkeypatch.setattr(analytics, "_read_tick_rows", refuse)
    path = tmp_path / "ticks.csv"
    path.write_text(f"time,price{end}" + "".join(f"{t},{40 + t % 7}.{t % 100:02d}{end}" for t in range(1, 1001)),
                    newline="")
    with split_parse():
        series = load_ticks(path)
    assert calls == {"im_parse_ticks": 3}
    assert series.times.tolist() == list(range(1, 1001))
    assert series.prices.tolist() == [float(f"{40 + t % 7}.{t % 100:02d}") for t in range(1, 1001)]


def test_a_utf8_byte_order_mark_reads_as_the_same_series(tmp_path):
    text = "time,price\n1,40.5\n2,41\n4,39.95\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = load_ticks(plain)

    def row_reader(path):
        with open(path, encoding="utf-8-sig", newline="") as f:
            return _read_tick_rows(f)

    for parse, patch in BULK_PARSES.items():
        with patch():
            for read in (load_ticks, row_reader):
                series = read(marked)
                assert np.array_equal(series.times, expected.times), (parse, read)
                assert np.array_equal(series.prices, expected.prices), (parse, read)


def test_load_ticks_falls_back_from_where_the_handle_started():
    buf = io.StringIO("preamble\ntime,price\n1,40\n2,x\n")
    buf.readline()
    with pytest.raises(TickDataError, match=re.escape("line 3: non-numeric field in ['2', 'x']")):
        load_ticks(buf)


class Unseekable(io.StringIO):
    def seekable(self):
        return False


def test_load_ticks_reads_a_handle_that_cannot_seek():
    series = load_ticks(Unseekable("time,price\n1,40\n2,41\n"))
    assert series.times.tolist() == [1.0, 2.0] and series.prices.tolist() == [40.0, 41.0]


class ReadOnce(io.StringIO):
    """A handle that counts its `read()` calls and refuses to be moved or
    read by line."""

    def __init__(self, text):
        super().__init__(text, newline="")
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)

    def _refuse(self, *args):
        raise AssertionError("the handle was moved or read by line")

    seek = tell = readline = __iter__ = __next__ = _refuse


@pytest.mark.parametrize("text,error", [("time,price\n1,40\n2,41\n", None),
                                        ('"time","price"\n1,40\n2,41\n', None),
                                        ("time,price\n1,40\n2,x\n", "line 3: non-numeric field in ['2', 'x']")],
                         ids=["plain", "quoted header", "bad row"])
def test_load_ticks_reads_a_handle_once(text, error):
    rows = _outcome(_read_tick_rows, io.StringIO(text, newline=""))
    assert rows == (TickDataError, error) if error else rows[0].tolist() == [1.0, 2.0]
    for parse, patch in BULK_PARSES.items():
        with patch():
            handle = ReadOnce(text)
            assert _same_outcome(_outcome(load_ticks, handle), rows), parse
        assert handle.reads == 1, parse


@pytest.mark.parametrize("data, expected", [
    (b"time,price\n1,40\n2,41.5\n", [1, 2]),
    (b"\xef\xbb\xbftime,price\r\n1,40\r\n2,41.5\r\n", [1, 2]),
    ("time,price\n1,40,\u00e9\n2,41.5\n".encode(), [1, 2]),
    (b"time,price\n1,40\n2,x\n", "line 3: non-numeric field in ['2', 'x']"),
    (b"time,price\n1,40\n2,41\xff\n", "can't decode byte 0xff"),
], ids=["plain", "byte-order mark", "non-ASCII", "bad row", "not UTF-8"])
def test_a_binary_handle_reads_as_its_path(tmp_path, data, expected):
    path = tmp_path / "ticks.csv"
    path.write_bytes(data)
    for parse, patch in BULK_PARSES.items():
        with patch():
            from_path = _outcome(load_ticks, path)
            with open(path, "rb") as f:
                assert _same_outcome(_outcome(load_ticks, f), from_path), parse
            handle = io.BytesIO(b"preamble\n" + data)
            handle.readline()
            assert _same_outcome(_outcome(load_ticks, handle), from_path), parse
        if isinstance(expected, list):
            assert from_path[0].tolist() == expected and from_path[1].tolist() == [40.0, 41.5], parse
        else:
            assert expected in from_path[1], parse


def test_a_byte_order_mark_read_as_text_from_the_callers_handle_is_skipped():
    text = "\ufefftime,price\n1,40\n2,41\n"
    for parse, patch in BULK_PARSES.items():
        with patch():
            for handle in (io.StringIO(text, newline=""), Unseekable(text, newline="")):
                series = load_ticks(handle)
                assert series.times.tolist() == [1.0, 2.0], (parse, handle)
                assert series.prices.tolist() == [40.0, 41.0], (parse, handle)
    with pytest.raises(TickDataError, match="^line 1: expected header 'time,price', got t,p$"):
        load_ticks(io.StringIO("\ufefft,p\n1,40\n2,41\n"))


def test_every_reader_accepts_a_field_over_the_csv_limit_in_an_ignored_column(tmp_path):
    # The compiled parse has no field limit; the row reader lifts csv's for
    # its read and restores it, so both routes read the same two ticks.
    text = "time,price\n1,40," + "x" * 200_000 + "\n2,41\n"
    path = tmp_path / "ticks.csv"
    path.write_text(text)
    limit = csv.field_size_limit()
    for series in (load_ticks(path), _read_rows_from_path(path), load_ticks(Unseekable(text, newline=""))):
        assert series.times.tolist() == [1.0, 2.0] and series.prices.tolist() == [40.0, 41.0]
    assert csv.field_size_limit() == limit


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


def pairwise_p_loop(samples_by_level):
    """The p-matrix as one `wilcoxon_rank_sum` call per pair: the reference
    that `jcurve_table` must match bit for bit."""
    levels = sorted(samples_by_level)
    p = np.ones((len(levels), len(levels)))
    for (i, a), (j, b) in itertools.combinations(enumerate(levels), 2):
        p[i, j] = p[j, i] = wilcoxon_rank_sum(samples_by_level[a], samples_by_level[b])
    return p


level_samples = st.one_of(
    # rounded to 0-2 decimals, so values tie within and across levels
    st.tuples(st.lists(st.floats(-3, 3), min_size=1, max_size=60), st.integers(0, 2))
    .map(lambda t: np.round(t[0], t[1])),
    st.tuples(st.sampled_from([0.0, -0.0, 1.5]), st.integers(1, 60)).map(lambda t: np.full(t[1], t[0])),
    st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0]), min_size=1, max_size=60).map(np.array),
)


@given(st.lists(level_samples, min_size=2, max_size=8))
@settings(max_examples=300, deadline=None)
def test_jcurve_table_p_matrix_is_the_pairwise_test_bit_for_bit(samples):
    # Pooled pair sizes run from 2 to 120, on both sides of _EXACT_LIMIT.
    by_level = {3 * i: s for i, s in enumerate(samples)}
    p = jcurve_table(by_level).p_matrix
    assert p.tobytes() == pairwise_p_loop(by_level).tobytes()


def test_jcurve_table_matches_the_pairwise_test_around_the_bulk_limit():
    # Pairs of 208_063 values (the largest n with n**3 < 2**53) take the bulk
    # rank sums; larger pairs call wilcoxon_rank_sum. Few distinct values make
    # the tie sum as large as it gets near the limit.
    rng = np.random.default_rng(11)
    half = analytics._BULK_LIMIT // 2
    by_level = {lvl: rng.integers(0, 40, size=half + lvl).astype(float) for lvl in range(3)}
    p = jcurve_table(by_level).p_matrix
    assert p.tobytes() == pairwise_p_loop(by_level).tobytes()
    assert (p < 1.0).any()


def test_jcurve_table_refuses_a_nan_sample():
    with pytest.raises(ValueError, match="level 4"):
        jcurve_table({0: np.arange(20.0), 4: np.array([1.0, np.nan] * 10)})


def test_random_trader_sweep_rows():
    rows = random_trader_sweep({3: np.array([-3.0, -2.0]), 10: np.array([0.1, -0.1])})
    assert rows[0][0] == 3
    assert rows[0][1] == pytest.approx(-2.5)
    assert rows[1][1] == pytest.approx(0.0)
