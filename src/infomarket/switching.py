"""Strategy-switching dynamics over long multi-period market runs.

Informed traders flip between the value rule and the trend rule whenever
their portfolio return over the evaluation interval falls strictly below the
cross-trader mean. The realized strategy profiles form a finite-state chain
whose transition matrix and state frequencies are estimated from the run.

A chain runs in one of two forms with the same bits and the same final
generator state. The Python loop in `run_switching_sim` is the
specification: a `MarketSession` per segment, run period by period, with
the evaluation in Python. The compiled chain is one call of `_kernel.c`'s
`im_run_chain`, on one session state laid out once per chain and reset for
each segment. A chain takes it where the compiled kernel loads and no name
in `CHAIN_SPEC` is patched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernel, engine
from .agents import Strategy
from .csvout import fmt, write_csv
from .dividends import conditional_present_value, generate_dividend_path
from .engine import MarketSession, SessionConfig, compiled_kernel, held, lay_out_state, market_with_levels
from .montecarlo import parallel_map
from .rng import SWITCH_DOMAIN, stream

# Periods per segment: the long experiment runs as a chain of reference markets.
SEGMENT_PERIODS = SessionConfig().n_periods


def decode_state(code: int, n_traders: int) -> tuple[Strategy, ...]:
    if not 1 <= code <= (1 << n_traders):
        raise ValueError(f"code {code} outside 1..{1 << n_traders}")
    bits = code - 1
    return tuple(
        Strategy.CHARTIST if (bits >> i) & 1 else Strategy.FUNDAMENTALIST
        for i in range(n_traders)
    )


@dataclass(frozen=True)
class SwitchingConfig:
    """Market size and updating parameters for one switching experiment.

    The `n_periods` run as a chain of segments of `SEGMENT_PERIODS` periods
    (the last one shorter when they do not divide evenly). Each segment is a
    fresh reference market (`SessionConfig` defaults apart from the traders
    and `steps_per_period`): it draws a new dividend walk and restarts the
    price and the endowments, while the strategies carry over. Strategies
    update at the end of every `interval` periods, so the interval must
    divide both the segment and `n_periods`.
    """

    n_traders: int = 3
    n_periods: int = 100_000
    interval: int = 1
    steps_per_period: int = SessionConfig.steps_per_period

    def __post_init__(self) -> None:
        # The estimates hold dense 2^n x 2^n matrices per run.
        if not 1 <= self.n_traders <= 8:
            raise ValueError(f"n_traders must be in 1..8, got {self.n_traders}")
        if self.n_periods < 1 or self.steps_per_period < 1:
            raise ValueError("n_periods and steps_per_period must be >= 1")
        if self.interval < 1 or self.n_periods % self.interval or SEGMENT_PERIODS % self.interval:
            raise ValueError(
                f"interval must divide both the {SEGMENT_PERIODS}-period segment "
                f"and the run's {self.n_periods} periods"
            )

    @property
    def n_states(self) -> int:
        return 1 << self.n_traders

    def session_config(self, initial_code: int, n_periods: int) -> SessionConfig:
        """The market for one segment of `n_periods` periods starting from profile `initial_code`."""
        strategies = decode_state(initial_code, self.n_traders)
        chartist_levels = tuple(
            lvl for lvl, s in zip(range(1, self.n_traders + 1), strategies)
            if s is Strategy.CHARTIST
        )
        return replace(
            SessionConfig(),
            agents=market_with_levels(range(1, self.n_traders + 1), chartist_levels),
            n_periods=n_periods,
            steps_per_period=self.steps_per_period,
        )


@dataclass(frozen=True)
class SwitchingRun:
    """Recorded state codes (one per interval, starting state first) plus tie logs."""

    initial_code: int
    codes: np.ndarray
    tie_events: int  # intervals in which some trader's return equalled the mean
    all_equal_events: int  # intervals with all returns equal (no switch at all)


# The names the Python loop of `run_switching_sim` calls besides a session's
# rules and book. The compiled chain runs all of them in C, so a chain with
# any of them patched (a tracer or a test) runs the Python loop.
CHAIN_SPEC = (*engine.SESSION_SPEC,
              *held(globals(), "generate_dividend_path", "conditional_present_value", "MarketSession"),
              *held(vars(engine), "conditional_present_value"),
              *held(vars(MarketSession), "run_period", "set_strategy"),
              *held(vars(SwitchingConfig), "session_config"))


def run_switching_sim(config: SwitchingConfig, initial_code: int, rng: np.random.Generator) -> SwitchingRun:
    """Run the market with periodic strategy updating; record one code per interval.

    Each trader compares its wealth return over the elapsed interval to the
    plain mean across traders and flips strategy iff strictly below it.
    Wealth marks shares at the most informed trader's conditional value.
    Every trader's endowment is restored after each evaluation, so the
    comparison always measures trading skill from a level start. The run is
    a chain of `SEGMENT_PERIODS`-period segments: each one draws a new
    dividend walk from `rng` and restarts the price and the endowments;
    only the strategies carry over from one segment to the next.

    The loop below is the specification. Where the compiled kernel loads
    and nothing in `CHAIN_SPEC` is patched, `_kernel.c`'s `im_run_chain`
    runs the whole chain in one call instead, with the same bits, where
    `rng` is a PCG64, the only generator the kernel draws.
    """
    lib = compiled_kernel(CHAIN_SPEC)
    if lib is not None and _kernel.draws_pcg64(rng):
        return _compiled_chain(lib, config, initial_code, rng)
    n = config.n_traders
    codes = [initial_code]  # codes[-1] is the current profile, laid out as in decode_state
    tie_events = 0
    all_equal = 0
    done = 0
    while done < config.n_periods:
        length = min(SEGMENT_PERIODS, config.n_periods - done)
        scfg = config.session_config(codes[-1], length)
        path = generate_dividend_path(scfg.dividends, scfg.path_length, rng)
        session = MarketSession(scfg, path, rng)
        cash0, shares0, r_e = scfg.initial_cash, scfg.initial_shares, scfg.rates.r_e
        # Every interval starts from the same endowment for every trader, so
        # one wealth, with shares marked at the end of the period before it.
        w = cash0 + shares0 * conditional_present_value(path, n, 1, r_e)
        for k in range(1, length + 1):
            session.run_period()
            done += 1
            if done % config.interval:
                continue
            m = conditional_present_value(path, n, k + 1, r_e)
            returns = [(c + s * m - w) / w for c, s in zip(session.cash.tolist(), session.shares.tolist())]
            # np.mean's bits: numpy's pairwise order from 8 traders on (neither a
            # left-to-right sum nor the builtin, compensated since Python 3.12,
            # keeps them), divided by the count
            mean = float(np.add.reduce(returns)) / n
            below = [i for i, r in enumerate(returns) if r < mean]
            if not below:
                all_equal += 1
            elif mean in returns:
                tie_events += 1
            bits = codes[-1] - 1
            for i in below:
                bits ^= 1 << i
                session.set_strategy(i, Strategy.CHARTIST if bits >> i & 1 else Strategy.FUNDAMENTALIST)
            codes.append(bits + 1)
            session.cash[:] = [cash0] * n
            session.shares[:] = [shares0] * n
            w = cash0 + shares0 * m
    return SwitchingRun(initial_code, np.array(codes, dtype=np.int64), tie_events, all_equal)


def _compiled_chain(lib, config: SwitchingConfig, initial_code: int, rng: np.random.Generator) -> SwitchingRun:
    """`run_switching_sim` in one `im_run_chain` call, on one session state
    laid out for the first (the longest) segment and reset for each."""
    first = min(SEGMENT_PERIODS, config.n_periods)
    scfg = config.session_config(initial_code, first)
    state = lay_out_state(scfg)
    walk, marks, returns = (np.empty(k) for k in (scfg.path_length, first + 1, config.n_traders))
    codes = np.empty(config.n_periods // config.interval + 1, np.int64)
    codes[0] = initial_code
    chain = _kernel.Chain(n_periods=config.n_periods, interval=config.interval, walk=walk.ctypes.data,
                          marks=marks.ctypes.data, returns=returns.ctypes.data, codes=codes.ctypes.data)
    words = np.array(_kernel.pcg64_words(rng), np.uint64)
    failed = lib.im_run_chain(state["_arena"].ctypes.data, chain, words.ctypes.data)
    _kernel.set_pcg64_words(rng, words.tolist())
    if failed:
        raise RuntimeError("order book capacity exceeded")
    return SwitchingRun(initial_code, codes, chain.tie_events, chain.all_equal_events)


# ---------------------------------------------------------------------------
# Chain estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionEstimate:
    """Row-normalized transition counts; rows never visited (row total 0) are NaN, not imputed."""

    counts: np.ndarray  # (n_states, n_states) integer counts
    probs: np.ndarray  # rows sum to 1 where visited, NaN otherwise
    row_totals: np.ndarray


def estimate_transition_matrix(codes, n_states: int) -> TransitionEstimate:
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) < 2:
        raise ValueError("need at least two recorded states")
    if codes.min() < 1 or codes.max() > n_states:
        raise ValueError("state codes outside 1..n_states")
    counts = np.zeros((n_states, n_states), dtype=np.int64)
    np.add.at(counts, (codes[:-1] - 1, codes[1:] - 1), 1)
    row_totals = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        probs = counts / row_totals[:, None]
    return TransitionEstimate(counts, probs, row_totals)


def frequency_vector(codes, n_states: int) -> np.ndarray:
    """Occurrence share of every state over the recorded sequence."""
    codes = np.asarray(codes, dtype=np.int64)
    pi = np.bincount(codes - 1, minlength=n_states).astype(float)
    return pi / len(codes)


@dataclass(frozen=True)
class EnsembleEstimate:
    """Cross-run mean transition matrix and frequencies with standard errors."""

    mean_probs: np.ndarray
    stderr_probs: np.ndarray
    mean_pi: np.ndarray
    stderr_pi: np.ndarray


def aggregate_runs(runs: list[SwitchingRun], n_states: int) -> EnsembleEstimate:
    """Combine runs started from different initial states."""
    if not runs:
        raise ValueError("no runs to aggregate")
    mats = []
    pis = []
    for run in runs:
        mats.append(estimate_transition_matrix(run.codes, n_states).probs)
        pis.append(frequency_vector(run.codes, n_states))
    mats = np.array(mats)
    pis = np.array(pis)
    m = len(runs)
    # A cell's estimate averages the runs that visited its row (NaN where
    # none did), so its stderr is their spread over the square root of their
    # count; the spread needs two of them, so fewer leave the stderr NaN.
    seen = ~np.isnan(mats)
    contributing = seen.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_probs = np.where(seen, mats, 0.0).sum(axis=0) / contributing
        dev = np.where(seen, mats - mean_probs, 0.0)
        spread = np.sqrt((dev * dev).sum(axis=0) / (contributing - 1))
        stderr_probs = np.where(contributing > 1, spread / np.sqrt(contributing), np.nan)
    return EnsembleEstimate(
        mean_probs=mean_probs,
        stderr_probs=stderr_probs,
        mean_pi=pis.mean(axis=0),
        stderr_pi=pis.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.full(n_states, np.nan),
    )


def stationarity_gap(pi: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Return (pi @ T, max-entry deviation, total deviation) treating NaN rows as absorbing-zero.

    Rows that were never visited carry pi mass ~0, so zeroing them changes
    nothing where the estimate is meaningful.
    """
    t = np.nan_to_num(probs, nan=0.0)
    pi_t = pi @ t
    gap = pi_t - pi
    return pi_t, float(np.abs(gap).max()), float(np.abs(gap).sum())


# ---------------------------------------------------------------------------
# Ensemble driver
# ---------------------------------------------------------------------------


def _one_switching_run(args) -> SwitchingRun:
    config, code, master = args
    return run_switching_sim(config, code, stream(master, SWITCH_DOMAIN, code))


def run_switching_ensemble(
    config: SwitchingConfig,
    initial_codes,
    master_seed: int,
    jobs: int | None = None,
) -> list[SwitchingRun]:
    """Independent runs from several initial states, reproducible for any job count."""
    tasks = [(config, code, master_seed) for code in initial_codes]
    # As `montecarlo.run_batch`: chains that run the Python loop hold the GIL, so they run on one thread.
    jobs = jobs if compiled_kernel(CHAIN_SPEC) is not None else 1
    return parallel_map(_one_switching_run, tasks, jobs, key=lambda r: r.initial_code)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_states_csv(runs: list[SwitchingRun], file) -> None:
    write_csv(file, ["initial", "interval", "code"],
              (f"{run.initial_code},{idx},{code}" for run in runs for idx, code in enumerate(run.codes.tolist())))


def write_tmatrix_csv(est: EnsembleEstimate, file) -> None:
    # Rows never visited are NaN in the estimate and written as prob 0; a
    # stderr that fewer than two runs support is written as nan.
    probs = np.where(np.isnan(est.mean_probs), 0.0, est.mean_probs)
    stderrs = est.stderr_probs
    n = probs.shape[0]
    write_csv(file, ["from", "to", "prob", "stderr"],
              (f"{a + 1},{b + 1},{fmt(probs[a, b])},{fmt(stderrs[a, b])}" for a in range(n) for b in range(n)))


def write_freqs_csv(est: EnsembleEstimate, file) -> None:
    # A one-run ensemble has no spread, so its stderr is written as nan.
    pi_t, _, _ = stationarity_gap(est.mean_pi, est.mean_probs)
    write_csv(file, ["code", "pi", "pi_T", "stderr"],
              (f"{code},{fmt(p)},{fmt(pt)},{fmt(se)}"
               for code, (p, pt, se) in enumerate(zip(est.mean_pi, pi_t, est.stderr_pi), start=1)))
