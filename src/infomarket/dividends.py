"""Dividend process and dividend-discount valuation.

The risky asset pays one dividend per trading period. The whole sequence is
drawn before trading starts, as a reflected Gaussian random walk, and is the
sole source of fundamental information: a trader with forecasting horizon j
reads the next j dividends and discounts them into a conditional present
value of the asset, treating the last known one as a perpetuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import write_csv


@dataclass(frozen=True)
class DividendParams:
    """Parameters of the dividend random walk; the defaults are the reference market's.

    d0: first dividend (currency per share per period)
    sigma: scale of the Gaussian steps

    How many dividends a path holds is the session's to decide
    (`SessionConfig.path_length`), not the walk's.
    """

    d0: float = 0.2
    sigma: float = 0.01

    def __post_init__(self) -> None:
        # `not (x >= 0)` refuses NaN too: every comparison with NaN is false.
        # A compiled block draws the walk in C and makes no `DividendPath`,
        # so a negative start is refused here, before any run of either kernel.
        if not self.d0 >= 0:
            raise ValueError(f"d0 must be >= 0, got {self.d0}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class RateParams:
    """Per-period interest rates: r_f paid on cash, r_e used for discounting."""

    r_f: float = 0.001
    r_e: float = 0.005

    def __post_init__(self) -> None:
        if not self.r_e > 0:
            raise ValueError(f"r_e must be > 0, got {self.r_e}")
        if not self.r_f >= 0:
            raise ValueError(f"r_f must be >= 0, got {self.r_f}")


class DividendPath:
    """Non-negative dividends indexed by 1-based period.

    `values` is a list of Python floats: a lookup in it is much cheaper than
    indexing a NumPy array, and `conditional_present_value` makes many.

    `present_value_tables` caches the sessions' (period x trader) tables of
    conditional present values on this path, filled by
    `engine.present_value_table`. Every run of a batch session trades on the
    same path, so each table is computed once per session, not once per run.
    A compiled batch block draws its paths and fills their tables in C, and
    makes no `DividendPath`; `montecarlo.first_run` wraps its one run's walk
    in one.
    """

    __slots__ = ("values", "present_value_tables")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a dividend path needs at least one period")
        if (arr < 0).any():
            raise ValueError("dividends must be non-negative")
        self.values: list[float] = arr.tolist()
        self.present_value_tables: dict[tuple[tuple[int, ...], int, float], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.values)

    def dividend(self, period: int) -> float:
        """Dividend paid at the end of `period` (1-based)."""
        if not 1 <= period <= len(self.values):
            raise IndexError(f"period {period} outside path of length {len(self.values)}")
        return self.values[period - 1]


def generate_dividend_path(params: DividendParams, n: int, rng: np.random.Generator) -> DividendPath:
    """Draw `n` dividends of the walk: D(1) = d0, D(i) = |D(i-1) + sigma * z_i|.

    The absolute value is applied at every step, so the walk reflects off
    zero instead of going negative. The path consumes n - 1 normal draws
    from `rng`, and a longer path extends a shorter one drawn from the same
    stream.
    """
    if n < 1:
        raise ValueError(f"a dividend path needs at least one period, got {n}")
    values = np.empty(n)
    values[0] = params.d0
    d = params.d0
    sigma = params.sigma
    for i, z in enumerate(rng.standard_normal(n - 1).tolist(), start=1):
        d = abs(d + sigma * z)
        values[i] = d
    return DividendPath(values)


def conditional_present_value(path: DividendPath, level: int, period: int, r_e: float) -> float:
    """Present value of the asset for a trader reading `level` dividends from `period` on.

    The last readable dividend, D(period + level - 1), is discounted as a
    perpetuity with rate r_e; the earlier readable ones are discounted
    individually. For level 1 the perpetuity term is D(period)*(1+r_e)/r_e
    and the individual sum is empty.
    """
    if level < 1:
        raise ValueError(f"information level must be >= 1, got {level}")
    last = period + level - 1
    if period < 1 or last > len(path):
        raise IndexError(
            f"level {level} at period {period} needs dividend {last}, "
            f"path has {len(path)}"
        )
    growth = 1.0 + r_e
    pv = path.dividend(last) / (r_e * growth ** (level - 2))
    for i in range(period, last):
        pv += path.dividend(i) / growth ** (i - period)
    return pv


def write_dividends_csv(path: DividendPath, file) -> None:
    """Write a path as `period,dividend` rows (file: path or open handle)."""
    write_csv(file, ["period", "dividend"],
              (f"{i},{d!r}" for i, d in enumerate(path.values, start=1)))
