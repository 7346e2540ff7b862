"""Statistical battery for simulated and external price series.

Covers the relative-return curve across information levels with its pairwise
rank-sum significance matrix, the market-efficiency check on per-period asset
returns, and the stylized-facts toolkit (autocorrelations, moments,
normality test) for tick-level return series.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from math import comb, erfc, exp, sqrt
from typing import NamedTuple

import numpy as np

from .csvout import fmt, text_file, write_csv
from .engine import SessionResult, session_net_returns


class DegenerateSeriesError(ValueError):
    """Raised when a series has no variation where variation is required."""


class TickDataError(ValueError):
    """Raised when an external tick CSV fails validation."""


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum test
# ---------------------------------------------------------------------------

# Exact enumeration is affordable up to this pooled size (checked against
# brute-force enumeration and scipy by the exact-branch tests in
# tests/test_analytics.py); beyond it the normal approximation takes over.
_EXACT_LIMIT = 16


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midranks of `pooled` and the size of each tie group, in value order.

    A group of c equal values ending at sorted position e (1-based) ranks
    e - (c - 1) / 2; midranks are half-integers, so float64 holds them exactly.
    """
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def _exact_two_sided(doubled_ranks: list[int], k: int, w_doubled: int) -> float:
    """Two-sided p by dynamic programming over size-k subsets of the ranks.

    Counts subsets by their doubled midrank sum (doubling keeps everything
    integral with ties), then doubles the smaller tail.
    """
    total = sum(doubled_ranks)
    counts = [[0] * (total + 1) for _ in range(k + 1)]
    counts[0][0] = 1
    for r in doubled_ranks:
        for size in range(min(k, len(doubled_ranks)), 0, -1):
            row, prev = counts[size], counts[size - 1]
            for s in range(total, r - 1, -1):
                c = prev[s - r]
                if c:
                    row[s] += c
    dist = counts[k]
    below = sum(dist[: w_doubled + 1])
    above = sum(dist[w_doubled:])
    n_subsets = comb(len(doubled_ranks), k)
    return min(1.0, 2.0 * min(below, above) / n_subsets)


def wilcoxon_rank_sum(x, y) -> float:
    """Two-sided rank-sum p-value for equal location of two samples.

    Exact (by enumeration over rank splits, midranks for ties) when the
    pooled size is at most 16; otherwise a normal approximation with tie and
    continuity corrections. Swapping the samples gives the identical value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both samples need at least one observation")
    pooled = np.concatenate([x, y])
    ranks, tie_counts = _midranks(pooled)
    if len(tie_counts) == 1:
        return 1.0
    n = len(pooled)
    if n <= _EXACT_LIMIT:
        # Enumerate the smaller sample so x,y order cannot matter.
        if len(x) <= len(y):
            k, w = len(x), ranks[: len(x)].sum()
        else:
            k, w = len(y), ranks[len(x) :].sum()
        doubled = [int(round(2 * r)) for r in ranks]
        return _exact_two_sided(doubled, k, int(round(2 * w)))
    nx, ny = len(x), len(y)
    w = ranks[:nx].sum()
    mean = nx * (n + 1) / 2.0
    tie_term = (tie_counts.astype(float) ** 3 - tie_counts).sum() / (n * (n - 1))
    var = nx * ny / 12.0 * (n + 1 - tie_term)
    if var <= 0:
        return 1.0
    z = (abs(w - mean) - 0.5) / sqrt(var)
    return min(1.0, erfc(max(z, 0.0) / sqrt(2.0)))


# ---------------------------------------------------------------------------
# Autocorrelation, moments, normality
# ---------------------------------------------------------------------------


class AcfResult(NamedTuple):
    values: np.ndarray  # index = lag, values[0] == 1
    band: float  # two-sided 95% noise band for an uncorrelated series


def acf(series, max_lag: int) -> AcfResult:
    """Autocorrelation for lags 0..max_lag with the +-1.96/sqrt(N) noise band.

    Uses the standard biased normalization (covariances divided by the full
    sample variance), which keeps the sequence positive semi-definite.

    The sums of products go through `np.einsum`, not `np.dot`: OpenBLAS
    splits a long `ddot` across threads, which makes the last bits of the
    result depend on the thread count and, between other numpy work, can make
    one call many times slower. einsum sums on the calling thread alone.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if not 0 < max_lag < n:
        raise ValueError(f"max_lag must be in 1..{n - 1}, got {max_lag}")
    xc = x - x.mean()
    denom = float(np.einsum("i,i->", xc, xc))
    if denom == 0.0:
        raise DegenerateSeriesError("series has zero variance")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for lag in range(1, max_lag + 1):
        values[lag] = float(np.einsum("i,i->", xc[lag:], xc[:-lag])) / denom
    return AcfResult(values, 1.96 / sqrt(n))


class Moments(NamedTuple):
    mean: float
    std: float
    skewness: float
    kurtosis: float  # normal distribution scores 3


def moments(series) -> Moments:
    """First four moments with population normalization; kurtosis is not excess."""
    x = np.asarray(series, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two observations")
    m = float(x.mean())
    xc = x - m
    var = float(np.mean(xc**2))
    if var == 0.0:
        raise DegenerateSeriesError("zero variance: skewness and kurtosis undefined")
    std = sqrt(var)
    return Moments(
        mean=m,
        std=std,
        skewness=float(np.mean(xc**3)) / std**3,
        kurtosis=float(np.mean(xc**4)) / var**2,
    )


def jarque_bera(mom: Moments, n: int) -> tuple[float, float]:
    """Jarque-Bera statistic and its chi-square(2df) p-value exp(-JB/2).

    Takes the `moments` of a series of `n` observations, so a caller that
    reports both computes them once.
    """
    jb = n * (mom.skewness**2 / 6.0 + (mom.kurtosis - 3.0) ** 2 / 24.0)
    return jb, exp(-jb / 2.0)


def log_returns(prices) -> np.ndarray:
    p = np.asarray(prices, dtype=float)
    if (p <= 0).any():
        raise ValueError("prices must be positive to take log-returns")
    return np.diff(np.log(p))


# ---------------------------------------------------------------------------
# Efficiency check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EfficiencyReport:
    """Per-period net simple returns on the asset versus the discount rate."""

    returns: np.ndarray  # length n_periods - 1
    mean: float
    r_e: float
    r_f: float


def efficiency_report(result: SessionResult) -> EfficiencyReport:
    rates = result.config.rates
    returns = session_net_returns(result)
    return EfficiencyReport(
        returns=returns,
        mean=float(returns.mean()),
        r_e=rates.r_e,
        r_f=rates.r_f,
    )


# ---------------------------------------------------------------------------
# Relative-return curve and significance matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JCurveTable:
    levels: tuple[int, ...]
    means: np.ndarray  # percentage points per level
    stderrs: np.ndarray
    p_matrix: np.ndarray  # pairwise rank-sum p-values, 1.0 on the diagonal


def jcurve_table(samples_by_level: dict[int, np.ndarray]) -> JCurveTable:
    """Mean relative return per information level plus all pairwise p-values."""
    levels = tuple(sorted(samples_by_level))
    k = len(levels)
    means = np.empty(k)
    stderrs = np.empty(k)
    p = np.ones((k, k))
    for i, lvl in enumerate(levels):
        s = np.asarray(samples_by_level[lvl], dtype=float)
        means[i] = s.mean()
        stderrs[i] = s.std(ddof=1) / sqrt(len(s)) if len(s) > 1 else math.nan
    for i in range(k):
        for j in range(i + 1, k):
            p[i, j] = p[j, i] = wilcoxon_rank_sum(
                samples_by_level[levels[i]], samples_by_level[levels[j]]
            )
    return JCurveTable(levels, means, stderrs, p)


def random_trader_sweep(samples_by_count: dict[int, np.ndarray]) -> list[tuple[int, float, float]]:
    """Rows (n_traders, mean_pp, stderr_pp) for the uninformed trader."""
    rows = []
    for n in sorted(samples_by_count):
        s = np.asarray(samples_by_count[n], dtype=float)
        rows.append((n, float(s.mean()), float(s.std(ddof=1) / sqrt(len(s)))))
    return rows


# ---------------------------------------------------------------------------
# External tick series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TickSeries:
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.prices):
            raise ValueError("times and prices must have equal length")
        if len(self.times) >= 2 and not (np.diff(self.times) > 0).all():
            raise ValueError("times must be strictly increasing")
        if (self.prices <= 0).any():
            raise ValueError("prices must be positive")

    def log_returns(self) -> np.ndarray:
        return log_returns(self.prices)


def load_ticks(file) -> TickSeries:
    """Read a `time,price` CSV; any malformed row is rejected with its line number.

    A well-formed file is parsed in bulk by `np.loadtxt` straight from the
    handle and checked with numpy reductions. Anything the bulk parse refuses
    or the checks fail sends the whole input through `_read_tick_rows`, which
    alone defines what is accepted and words every error. A handle that
    cannot seek is read by `_read_tick_rows` only, since it cannot be reread.
    """
    with text_file(file) as f:
        if not f.seekable():
            return _read_tick_rows(f)
        start = f.tell()
        _check_tick_header(csv.reader(f))
        series = _parse_tick_body(f)
        if series is not None:
            return series
        f.seek(start)
        return _read_tick_rows(f)


def _check_tick_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise TickDataError("empty file: expected header 'time,price'") from None
    if [h.strip().lower() for h in header[:2]] != ["time", "price"]:
        raise TickDataError(f"line 1: expected header 'time,price', got {','.join(header)}")


def _parse_tick_body(f) -> TickSeries | None:
    """The rows after the header parsed in bulk, or None if any row needs
    `_read_tick_rows` to accept it or to word its error.

    `quotechar` makes numpy split quoted fields as `csv` does, so an unclosed
    quote in an ignored column swallows the same lines in both readers.
    """
    try:
        with warnings.catch_warnings():
            # An empty body is an error `_read_tick_rows` words.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(f, delimiter=",", comments=None, quotechar='"', usecols=(0, 1), ndmin=2)
    except ValueError:
        return None
    if len(table) < 2 or not np.isfinite(table).all():
        return None
    times, prices = np.ascontiguousarray(table.T)
    if not ((prices > 0).all() and (np.diff(times) > 0).all()):
        return None
    return TickSeries(times, prices)


def _read_tick_rows(f) -> TickSeries:
    """Read a `time,price` CSV row by row: the definition of an accepted tick
    file and of every error message."""
    reader = csv.reader(f)
    _check_tick_header(reader)
    # Typed buffers hold 8 bytes a value where a list of floats holds
    # about 32, and numpy reads them without a copy. `prev` spares
    # boxing times[-1] again on every row.
    times = array("d")
    prices = array("d")
    prev = -math.inf
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 2:
            raise TickDataError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            t, p = float(row[0]), float(row[1])
        except ValueError:
            raise TickDataError(f"line {lineno}: non-numeric field in {row[:2]}") from None
        if not (math.isfinite(t) and math.isfinite(p)):
            raise TickDataError(f"line {lineno}: non-finite value")
        if p <= 0:
            raise TickDataError(f"line {lineno}: price must be positive, got {p}")
        if t <= prev:
            raise TickDataError(f"line {lineno}: time {t} not increasing (previous {prev})")
        times.append(t)
        prices.append(p)
        prev = t
    if len(times) < 2:
        raise TickDataError("need at least two ticks")
    return TickSeries(np.asarray(times), np.asarray(prices))


# ---------------------------------------------------------------------------
# CSV writers (plain, plot-ready)
# ---------------------------------------------------------------------------


def write_jcurve_csv(table: JCurveTable, file) -> None:
    write_csv(file, ["level", "mean_relative_return_pp", "stderr_pp"],
              ((lvl, fmt(m), fmt(se)) for lvl, m, se in zip(table.levels, table.means, table.stderrs)))


def write_pvalues_csv(table: JCurveTable, file) -> None:
    levels = table.levels
    write_csv(
        file,
        ["level_a", "level_b", "p_value"],
        ((levels[i], levels[j], fmt(table.p_matrix[i, j]))
         for i in range(len(levels)) for j in range(i + 1, len(levels))),
    )


def write_acf_csv(returns_acf: AcfResult, abs_acf: AcfResult, file) -> None:
    band = fmt(returns_acf.band)
    write_csv(
        file,
        ["lag", "acf_ret", "acf_absret", "band"],
        ((lag, fmt(returns_acf.values[lag]), fmt(abs_acf.values[lag]), band)
         for lag in range(len(returns_acf.values))),
    )


def write_moments_csv(mom: Moments, jb: tuple[float, float], n: int, file) -> None:
    write_csv(
        file,
        ["n", "mean", "std", "skewness", "kurtosis", "jarque_bera", "jb_pvalue"],
        [[n, fmt(mom.mean), fmt(mom.std), fmt(mom.skewness), fmt(mom.kurtosis), fmt(jb[0]), fmt(jb[1])]],
    )


def write_efficiency_summary_csv(report: EfficiencyReport, file) -> None:
    write_csv(file, ["period", "net_simple_return"],
              ((k, fmt(r)) for k, r in enumerate(report.returns.tolist(), start=1)))


def write_sweep_csv(rows: list[tuple[int, float, float]], file) -> None:
    write_csv(file, ["n_traders", "random_trader_mean_pp", "stderr_pp"],
              ((n, fmt(m), fmt(se)) for n, m, se in rows))
