"""Statistical battery for simulated and external price series.

Covers the relative-return curve across information levels with its pairwise
rank-sum significance matrix, the stylized-facts toolkit (autocorrelations,
moments, normality test) for tick-level return series, and the CSV writers for
both and for the per-period asset returns of the market-efficiency check.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb, erfc, exp, sqrt
from typing import NamedTuple

import numpy as np

from . import _kernel, montecarlo
from .csvout import fmt, write_csv


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
    A NaN in either sample raises `ValueError`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both samples need at least one observation")
    pooled = np.concatenate([x, y])
    if np.isnan(pooled).any():
        raise ValueError("a sample holds NaN, which has no rank")
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
    nx = len(x)
    return _normal_p(ranks[:nx].sum(), nx, len(y), (tie_counts.astype(float) ** 3 - tie_counts).sum())


def _normal_p(w, nx: int, ny: int, tie_sum) -> float:
    """Two-sided p for rank sum `w` of the first of two samples of sizes nx
    and ny: the normal approximation with continuity correction, its variance
    reduced by `tie_sum`, the sum of t**3 - t over the pooled tie groups."""
    n = nx + ny
    mean = nx * (n + 1) / 2.0
    tie_term = tie_sum / (n * (n - 1))
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
    if n < 2:
        raise ValueError(f"need at least two observations, got {n}")
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
    """First four moments with population normalization; kurtosis is not excess.

    The powers of the deviations are products (xc*xc, then xc*x2 and x2*x2),
    never `**`, whose float64 `pow` numpy dispatches to CPU-specific vector
    code. IEEE multiplication rounds alike everywhere, so the result has the
    same bits at any numpy dispatch level.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two observations")
    m = float(x.mean())
    xc = x - m
    x2 = xc * xc
    var = float(np.mean(x2))
    if var == 0.0:
        raise DegenerateSeriesError("zero variance: skewness and kurtosis undefined")
    std = sqrt(var)
    # In place: xc becomes the cubes and x2 the fourth powers, so no third
    # array of len(x) is allocated.
    skewness = float(np.mean(np.multiply(xc, x2, out=xc))) / std**3
    kurtosis = float(np.mean(np.multiply(x2, x2, out=x2))) / var**2
    return Moments(mean=m, std=std, skewness=skewness, kurtosis=kurtosis)


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
# Relative-return curve and significance matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JCurveTable:
    levels: tuple[int, ...]
    means: np.ndarray  # percentage points per level
    stderrs: np.ndarray
    p_matrix: np.ndarray  # pairwise rank-sum p-values, 1.0 on the diagonal


def jcurve_table(samples_by_level: dict[int, np.ndarray]) -> JCurveTable:
    """Mean relative return per information level plus all pairwise p-values.

    Each p-value is the `wilcoxon_rank_sum` of its two levels, bit for bit;
    `_pairwise_p` computes them all from one sort. A NaN sample raises
    `ValueError`.
    """
    levels = tuple(sorted(samples_by_level))
    samples = [np.asarray(samples_by_level[lvl], dtype=float) for lvl in levels]
    for lvl, s in zip(levels, samples):
        if np.isnan(s).any():
            raise ValueError(f"level {lvl}: a sample holds NaN, which has no rank")
    k = len(levels)
    means = np.empty(k)
    stderrs = np.empty(k)
    for i, s in enumerate(samples):
        means[i] = s.mean()
        stderrs[i] = s.std(ddof=1) / sqrt(len(s)) if len(s) > 1 else math.nan
    return JCurveTable(levels, means, stderrs, _pairwise_p(samples))


# Every rank sum (doubled) and tie sum that `_pairwise_p` takes from counts
# is an integer, and `wilcoxon_rank_sum` sums the same integers (and
# half-integer midranks) in float64. For a pair whose pooled size n has
# n**3 < 2**53 all those sums are exact in any order, so both give the same
# bits; `_pairwise_p` hands larger pairs to `wilcoxon_rank_sum`.
_BULK_LIMIT = 208_063
assert _BULK_LIMIT**3 < 2**53 <= (_BULK_LIMIT + 1) ** 3


def _pairwise_p(samples: list[np.ndarray]) -> np.ndarray:
    """The matrix of `wilcoxon_rank_sum(samples[i], samples[j])`, 1.0 on the
    diagonal, from one sort of the pooled samples.

    For the pair (i, j), sample i's rank sum is n_i (n_i + 1) / 2 + below +
    equal / 2 (Mann-Whitney's U), where `below` counts the (i, j) value pairs
    with the j value smaller and `equal` those with both values equal. Its
    tie sum adds (a + b)**3 - (a + b) over the pooled tie groups, a group
    holding a values of i and b of j; a value that no other value equals
    adds 0. `below` takes one pass over the sorted pool per sample; `equal`
    and the tie sums take integer products over the tie groups alone. Pairs
    small enough for the exact test, or too large for `_BULK_LIMIT`, call
    `wilcoxon_rank_sum`.
    """
    k = len(samples)
    p = np.ones((k, k))
    if k < 2:
        return p
    sizes = [len(s) for s in samples]
    if min(sizes) < 1:
        raise ValueError("both samples need at least one observation")
    pooled = np.concatenate(samples)
    order = np.argsort(pooled)
    values = pooled[order]
    label = np.repeat(np.arange(k), sizes)[order]
    # Tie groups are the runs of equal values in the sorted pool; `new`
    # marks where each group starts.
    new = np.empty(len(values), dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    shared = ~new
    tied_at = np.flatnonzero(shared | np.append(shared[1:], False))  # values another value equals
    tie_starts = new[tied_at]
    m = int(tie_starts.sum())
    tie_group = np.cumsum(tie_starts) - 1
    # counts[l, g]: the values of sample l in the g-th tie group
    counts = np.bincount(label[tied_at] * m + tie_group, minlength=k * m).reshape(k, m)
    equal = counts @ counts.T
    squares = counts * counts
    cubes = (counts * squares - counts).sum(axis=1)
    cross = squares @ counts.T
    ties = cubes[:, None] + cubes[None, :] + 3 * (cross + cross.T)
    # below[i, j] sums, over sample i's values, sample j's values in lower
    # tie groups. Counted up to each value itself, a cumulative count of
    # j's values is that already for every value of another sample, unless
    # the value has ties; then it is read just before its group starts.
    # (An int32 cumsum of a bool array takes a third of int64's time.)
    if m:
        start = np.flatnonzero(new)[np.cumsum(new) - 1]
    below = np.zeros((k, k), dtype=np.int64)
    for j in range(1, k):
        counted = np.cumsum(label == j, dtype=np.int32)
        if m:
            counted = np.append(0, counted)[start]
        below[:j, j] = np.bincount(label, weights=counted, minlength=k)[:j]
    below, equal, ties = below.tolist(), equal.tolist(), ties.tolist()
    for i in range(k):
        for j in range(i + 1, k):
            nx, ny = sizes[i], sizes[j]
            if _EXACT_LIMIT < nx + ny <= _BULK_LIMIT:
                # A pair of one value has tie sum n**3 - n, so `_normal_p`
                # finds no variance and gives 1.0, as `wilcoxon_rank_sum` does.
                w = (nx * (nx + 1) + 2 * below[i][j] + equal[i][j]) / 2
                p[i, j] = p[j, i] = _normal_p(w, nx, ny, ties[i][j])
            else:
                p[i, j] = p[j, i] = wilcoxon_rank_sum(samples[i], samples[j])
    return p


def random_trader_sweep(samples_by_count: dict[int, np.ndarray]) -> list[tuple[int, float, float]]:
    """Rows (n_traders, mean_pp, stderr_pp) for the uninformed trader."""
    rows = []
    for n in sorted(samples_by_count):
        s = np.asarray(samples_by_count[n], dtype=float)
        rows.append((n, float(s.mean()), float(s.std(ddof=1) / sqrt(len(s))) if len(s) > 1 else math.nan))
    return rows


# ---------------------------------------------------------------------------
# External tick series
# ---------------------------------------------------------------------------


class TickSeries(NamedTuple):
    """A tick file's columns: equal lengths, increasing times and positive
    prices, as both readers guarantee."""

    times: np.ndarray
    prices: np.ndarray


def load_ticks(file) -> TickSeries:
    """Read a `time,price` CSV; any malformed row is rejected with its line number.

    The input is read once: a path's bytes, or a handle's bytes or text to
    its end from where it stands, either without a leading UTF-8 byte-order
    mark. It then takes one of two routes. Where it is ASCII and the
    compiled kernel loads, its header is checked (a first line with no
    quote and no CR before its LF is the one row `csv` reads there, so it is
    split in place; any other header is read by `csv`), and the rows after
    it are parsed undecoded by the kernel's `im_parse_ticks` and checked
    with numpy reductions; a large body is cut after line ends into parts
    parsed on share threads, one call each, with the rows and the refusals
    of one call (`_parse_tick_body`). Everything else (input that is not
    ASCII, no kernel, rows the parse refuses or that fail a check) is read
    by `_read_tick_rows`, which alone defines what is accepted and words
    every error.
    """
    if isinstance(file, (str, os.PathLike)):
        with open(file, "rb") as f:
            data = f.read()
    else:
        data = file.read()
    data = data.removeprefix("\ufeff" if isinstance(data, str) else codecs.BOM_UTF8)
    lib = _kernel.resolve() if data.isascii() else None
    if lib is not None:
        body = data.encode("ascii") if isinstance(data, str) else data
        end = body.find(b"\n")
        line = body[:max(end, 0)].decode("ascii").removesuffix("\r")
        if end >= 0 and '"' not in line and "\r" not in line:
            header, start = line.split(","), end + 1
        else:
            text = io.StringIO(body.decode("ascii"), newline="")
            with _unlimited_csv_fields():
                header = next(_csv_rows(text), None)
            start = text.tell()
        _check_tick_header(header)
        series = _parse_tick_body(lib, body, start)
        if series is not None:
            return series
    return _read_tick_rows(io.StringIO(data if isinstance(data, str) else data.decode("utf-8"), newline=""))


@contextmanager
def _unlimited_csv_fields():
    """`csv`'s 131072-character field limit lifted for the duration, so the
    row reader accepts every field the compiled parse accepts (a long field in
    an ignored column included); the caller's limit is restored on exit."""
    old = csv.field_size_limit(2**31 - 1)  # the largest C long on every platform
    try:
        yield
    finally:
        csv.field_size_limit(old)


def _csv_rows(f):
    """`csv.reader(f)`'s rows; a `csv.Error` is raised as a `TickDataError`
    that names the line."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as e:
        raise TickDataError(f"line {reader.line_num}: {e}") from None


def _check_tick_header(header) -> None:
    """Refuse a file whose first row, the fields in `header` (None for an
    empty file), does not begin `time,price`."""
    if header is None:
        raise TickDataError("empty file: expected header 'time,price'")
    if [h.strip().lower() for h in header[:2]] != ["time", "price"]:
        raise TickDataError(f"line 1: expected header 'time,price', got {','.join(header)}")


def _parse_tick_body(lib, body: bytes, start: int) -> TickSeries | None:
    """The rows of `body` from `start` on, the rows after the header, ASCII
    bytes, as one `im_parse_ticks` call would read them; None where it
    refuses their form or they fail a check, so that `_read_tick_rows` reads
    them or words the error. The parse reads finite values only.

    A row takes at least 4 bytes with its line end, 3 at the end of the
    body, so `(len + 1) // 4` bounds the rows without counting them, and
    `montecarlo.input_shares` of `default_jobs()` shares parse that many
    rows. The body is cut just after the first line end at or past each
    share's even boundary, and each part is parsed on its own
    (`_parse_tick_parts`). A part then starts where a line starts, which is
    all the parse keeps from one line to the next, so the parts refuse
    exactly where one call would and give its rows in its order.
    """
    data = np.frombuffer(body, np.uint8, offset=start)
    shares = montecarlo.input_shares(None, (len(data) + 1) // 4)
    cuts = [0]
    for j in range(1, shares):
        end = body.find(b"\n", start + max(cuts[-1], j * len(data) // shares))
        if end < 0:
            break
        cuts.append(end + 1 - start)
    if cuts[-1] < len(data):
        cuts.append(len(data))
    return _parse_tick_parts(lib, data, cuts)


def _parse_tick_parts(lib, data: np.ndarray, cuts: list[int]) -> TickSeries | None:
    """The rows of `data`, bytes, parsed as the parts between consecutive
    `cuts` (from 0 to its length, each part ending just after a line end but
    the last), one `im_parse_ticks` call each on a share of its own
    (`montecarlo.run_shares`); None where any part refuses or the rows fail
    a check.

    Part j parses into its own slice of one pair of columns, as many rows
    as its bytes can hold, and the later parts' rows are then moved down to
    follow the earlier ones. The columns' pages that no part writes are
    never touched and take no memory, so the result holds views of them,
    not trimmed copies.
    """
    parts = list(zip(cuts, cuts[1:]))
    caps = [(end - begin + 1) // 4 for begin, end in parts]
    slots = np.cumsum([0, *caps]).tolist()
    columns = np.empty((2, slots[-1]))

    def parse(j: int) -> int:
        (begin, end), at = parts[j], slots[j]
        return lib.im_parse_ticks(data[begin:].ctypes.data, end - begin, columns[0, at:].ctypes.data,
                                  columns[1, at:].ctypes.data, caps[j])

    n = 0
    for at, rows in zip(slots, montecarlo.run_shares(parse, list(range(len(parts))))):
        if rows < 0:
            return None
        if at > n:
            columns[:, n:n + rows] = columns[:, at:at + rows]
        n += rows
    if n < 2:
        return None
    times, prices = columns[:, :n]
    if not ((prices > 0).all() and (np.diff(times) > 0).all()):
        return None
    return TickSeries(times, prices)


@_unlimited_csv_fields()
def _read_tick_rows(f) -> TickSeries:
    """Read a `time,price` CSV row by row: the definition of an accepted tick
    file and of every error message."""
    reader = _csv_rows(f)
    _check_tick_header(next(reader, None))
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
              (f"{lvl},{fmt(m)},{fmt(se)}" for lvl, m, se in zip(table.levels, table.means, table.stderrs)))


def write_pvalues_csv(table: JCurveTable, file) -> None:
    levels = table.levels
    write_csv(
        file,
        ["level_a", "level_b", "p_value"],
        (f"{levels[i]},{levels[j]},{fmt(table.p_matrix[i, j])}"
         for i in range(len(levels)) for j in range(i + 1, len(levels))),
    )


def write_acf_csv(returns_acf: AcfResult, abs_acf: AcfResult, file) -> None:
    band = fmt(returns_acf.band)
    write_csv(
        file,
        ["lag", "acf_ret", "acf_absret", "band"],
        (f"{lag},{fmt(returns_acf.values[lag])},{fmt(abs_acf.values[lag])},{band}"
         for lag in range(len(returns_acf.values))),
    )


def write_moments_csv(mom: Moments, jb: tuple[float, float], n: int, file) -> None:
    write_csv(
        file,
        ["n", "mean", "std", "skewness", "kurtosis", "jarque_bera", "jb_pvalue"],
        [f"{n},{fmt(mom.mean)},{fmt(mom.std)},{fmt(mom.skewness)},{fmt(mom.kurtosis)},{fmt(jb[0])},{fmt(jb[1])}"],
    )


def write_efficiency_summary_csv(net_returns: np.ndarray, file) -> None:
    """Per-period net simple returns on the asset, to set against the discount rate."""
    write_csv(file, ["period", "net_simple_return"],
              (f"{k},{fmt(r)}" for k, r in enumerate(net_returns.tolist(), start=1)))


def write_sweep_csv(rows: list[tuple[int, float, float]], file) -> None:
    write_csv(file, ["n_traders", "random_trader_mean_pp", "stderr_pp"],
              (f"{n},{fmt(m)},{fmt(se)}" for n, m, se in rows))
