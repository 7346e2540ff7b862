"""Every `write_*_csv` writes the bytes a `csv.writer` writes for the same rows.

The references below build each writer's rows as tuples, with every float
field as `repr(float(x))`, and hand them to `csv.writer`, which the writers
used before they wrote their own text lines. The inputs carry the values
whose text is easiest to get wrong: nan, +-inf, -0.0, 1e-05, 1e16 and ints
too large for 64 bits.
"""

import csv
import io
import math
from collections import Counter

import numpy as np
import pytest

from infomarket import _kernel
from infomarket.analytics import (
    AcfResult,
    JCurveTable,
    Moments,
    write_acf_csv,
    write_efficiency_summary_csv,
    write_jcurve_csv,
    write_moments_csv,
    write_pvalues_csv,
    write_sweep_csv,
)
from infomarket.csvout import _LINES_PER_WRITE, write_csv
from infomarket.dividends import DividendPath, write_dividends_csv
from infomarket.engine import SessionConfig, SessionResult, default_market, export_session_csv
from infomarket.montecarlo import BatchConfig, BatchResult, write_efficiency_csv, write_runs_csv
from infomarket.switching import (
    EnsembleEstimate,
    SwitchingRun,
    stationarity_gap,
    write_freqs_csv,
    write_states_csv,
    write_tmatrix_csv,
)

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 0.1, -123456789.125]
BIG = 2**70


def special(*shape) -> np.ndarray:
    """`shape` filled with SPECIAL over and over."""
    return np.resize(np.array(SPECIAL), shape)


def reference(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def written(write, *args) -> str:
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def r(x) -> str:
    return repr(float(x))


TABLE = JCurveTable(levels=(0, 7, BIG), means=special(3), stderrs=special(3)[::-1].copy(),
                    p_matrix=special(3, 3))
BATCH = BatchResult(config=BatchConfig(n_sessions=2, runs_per_session=3), levels=(0, 4, BIG),
                    rel_returns=special(6, 3), asset_mean_returns=special(6), period_returns=special(6, 4))
ESTIMATE = EnsembleEstimate(mean_probs=special(3, 3), stderr_probs=special(3, 3)[::-1].copy(),
                            mean_pi=np.array([0.25, -0.0, 1e-05]), stderr_pi=special(3))


def per_run_rows(batch, per_run, labels):
    for row, values in enumerate(per_run):
        s, run = divmod(row, batch.config.runs_per_session)
        for label, v in zip(labels, values):
            yield s, run, label, r(v)


CASES = {
    "jcurve": (
        lambda: written(write_jcurve_csv, TABLE),
        ["level", "mean_relative_return_pp", "stderr_pp"],
        lambda: [(lvl, r(m), r(se)) for lvl, m, se in zip(TABLE.levels, TABLE.means, TABLE.stderrs)],
    ),
    "pvalues": (
        lambda: written(write_pvalues_csv, TABLE),
        ["level_a", "level_b", "p_value"],
        lambda: [(TABLE.levels[i], TABLE.levels[j], r(TABLE.p_matrix[i, j]))
                 for i in range(3) for j in range(i + 1, 3)],
    ),
    "acf": (
        lambda: written(write_acf_csv, AcfResult(special(8), -0.0), AcfResult(special(8)[::-1], 1e16)),
        ["lag", "acf_ret", "acf_absret", "band"],
        lambda: [(lag, r(a), r(b), r(-0.0)) for lag, (a, b) in enumerate(zip(special(8), special(8)[::-1]))],
    ),
    "moments": (
        lambda: written(write_moments_csv, Moments(*SPECIAL[:4]), (SPECIAL[4], SPECIAL[5]), BIG),
        ["n", "mean", "std", "skewness", "kurtosis", "jarque_bera", "jb_pvalue"],
        lambda: [[BIG, *map(r, SPECIAL[:6])]],
    ),
    "efficiency_summary": (
        lambda: written(write_efficiency_summary_csv, special(8)),
        ["period", "net_simple_return"],
        lambda: [(k, r(v)) for k, v in enumerate(SPECIAL, start=1)],
    ),
    "sweep": (
        lambda: written(write_sweep_csv, [(3, math.nan, math.inf), (BIG, -0.0, 1e16)]),
        ["n_traders", "random_trader_mean_pp", "stderr_pp"],
        lambda: [(3, "nan", "inf"), (BIG, "-0.0", "1e+16")],
    ),
    "runs": (
        lambda: written(write_runs_csv, BATCH),
        ["session", "run", "agent_level", "relative_return_pp"],
        lambda: per_run_rows(BATCH, BATCH.rel_returns, BATCH.levels),
    ),
    "efficiency": (
        lambda: written(write_efficiency_csv, BATCH),
        ["session", "run", "period", "net_simple_return"],
        lambda: per_run_rows(BATCH, BATCH.period_returns, range(1, 5)),
    ),
    "states": (
        lambda: written(write_states_csv, [SwitchingRun(3, np.array([3, 1, 2**62 + 5]), 0, 0),
                                           SwitchingRun(BIG, np.array([2]), 0, 0)]),
        ["initial", "interval", "code"],
        lambda: [(3, 0, 3), (3, 1, 1), (3, 2, 2**62 + 5), (BIG, 0, 2)],
    ),
    "tmatrix": (
        lambda: written(write_tmatrix_csv, ESTIMATE),
        ["from", "to", "prob", "stderr"],
        lambda: [(a + 1, b + 1, r(0.0 if math.isnan(ESTIMATE.mean_probs[a, b]) else ESTIMATE.mean_probs[a, b]),
                  r(ESTIMATE.stderr_probs[a, b])) for a in range(3) for b in range(3)],
    ),
    "freqs": (
        lambda: written(write_freqs_csv, ESTIMATE),
        ["code", "pi", "pi_T", "stderr"],
        lambda: [(code, r(p), r(pt), r(se)) for code, (p, pt, se) in enumerate(
            zip(ESTIMATE.mean_pi, stationarity_gap(ESTIMATE.mean_pi, ESTIMATE.mean_probs)[0], ESTIMATE.stderr_pi),
            start=1)],
    ),
    "dividends": (
        lambda: written(write_dividends_csv, DividendPath([0.0, 1e-05, 1e16, math.inf, math.nan, 0.1])),
        ["period", "dividend"],
        lambda: [(1, "0.0"), (2, "1e-05"), (3, "1e+16"), (4, "inf"), (5, "nan"), (6, "0.1")],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_writer_bytes_match_csv_writer(name):
    write, header, rows = CASES[name]
    assert write() == reference(header, rows())


def test_session_bundle_bytes_match_csv_writer(tmp_path):
    config = SessionConfig(agents=default_market(2), n_periods=2, steps_per_period=3)
    result = SessionResult(
        config=config,
        path=DividendPath([1e-05, 0.0, 1e16]),
        prices=special(6),
        trade_steps=np.array([1, 4]),
        trade_prices=np.array([-0.0, 1e16]),
        trade_buyers=np.array([0, 1]),
        trade_sellers=np.array([1, 0]),
        cash_hist=special(3, 2),
        shares_hist=np.array([[0, 2**40], [7, -1], [2**62, 3]]),
        period_end_prices=np.array([1e-05, 40.0]),
    )
    export_session_csv(result, tmp_path)
    wealth = result.wealth_history()
    expected = {
        "prices.csv": reference(["step", "price"], [(t, r(p)) for t, p in enumerate(SPECIAL[:6], start=1)]),
        "trades.csv": reference(["step", "price", "buyer", "seller"], [(1, "-0.0", 0, 1), (4, "1e+16", 1, 0)]),
        "wealth.csv": reference(["agent", "period", "cash", "shares", "wealth"],
                                [(a, t, r(result.cash_hist[t, a]), int(result.shares_hist[t, a]), r(wealth[t, a]))
                                 for t in range(3) for a in range(2)]),
        "dividends.csv": reference(["period", "dividend"], [(1, "1e-05"), (2, "0.0"), (3, "1e+16")]),
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


@pytest.mark.parametrize("count", [0, 1, _LINES_PER_WRITE, 2 * _LINES_PER_WRITE + 3])
def test_write_csv_to_a_path_ends_every_row_in_crlf(tmp_path, count):
    # Counts on both sides of a write's worth of lines cross its joins.
    rows = [(i, r(i / 7)) for i in range(count)]
    write_csv(tmp_path / "t.csv", ["i", "x"], (f"{i},{x}" for i, x in rows))
    assert (tmp_path / "t.csv").read_bytes() == reference(["i", "x"], rows).encode("utf-8")


@pytest.mark.parametrize("formatter", ["compiled", "python"])
def test_per_run_writers_give_the_same_bytes_under_both_formatters(tmp_path, monkeypatch, formatter):
    # `im_format_per_run` where the kernel loads, the Python generator where
    # it resolved to nothing. 7 x 391 runs are two whole chunks and a part
    # of one for both writers, and both arrays are strided slices.
    calls = Counter()
    if formatter == "python":
        monkeypatch.setattr(_kernel, "_resolved", (None, "the Python generator"))
    else:
        lib = _kernel.resolve()
        if lib is None:
            pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")

        class Counting:
            def __getattr__(self, name):
                calls[name] += 1
                return getattr(lib, name)

        monkeypatch.setattr(_kernel, "_resolved", (Counting(), None))
    rng = np.random.default_rng(21)
    wide = rng.standard_normal((2 * 2737, 8)) * 10.0 ** rng.integers(-7, 18, (2 * 2737, 8))
    wide[::101] = SPECIAL
    batch = BatchResult(config=BatchConfig(n_sessions=7, runs_per_session=391), levels=(0, 4, BIG),
                        rel_returns=wide[::2, 1:7:2], asset_mean_returns=wide[::2, 0],
                        period_returns=wide[1::2, :4])
    assert not batch.rel_returns.flags.c_contiguous and not batch.period_returns.flags.c_contiguous
    for write, header, per_run, labels in (
            (write_runs_csv, ["session", "run", "agent_level", "relative_return_pp"], batch.rel_returns,
             batch.levels),
            (write_efficiency_csv, ["session", "run", "period", "net_simple_return"], batch.period_returns,
             range(1, 5))):
        expected = reference(header, per_run_rows(batch, per_run, labels))
        assert written(write, batch) == expected
        write(batch, tmp_path / "per_run.csv")
        assert (tmp_path / "per_run.csv").read_bytes() == expected.encode("utf-8")
    if formatter == "compiled":
        # Two writes of each file: 3 chunks of 1365 rows for runs.csv, 3 of 1024 for the periods.
        assert calls["im_format_per_run"] == 12


def test_runs_csv_refuses_a_level_count_that_is_not_the_column_count():
    # Under either formatter: the compiled one reads one label per column.
    batch = BatchResult(config=BATCH.config, levels=(0, 4), rel_returns=BATCH.rel_returns,
                        asset_mean_returns=BATCH.asset_mean_returns, period_returns=None)
    with pytest.raises(ValueError, match=r"^2 labels for per-run values of shape \(6, 3\)$"):
        write_runs_csv(batch, io.StringIO())
