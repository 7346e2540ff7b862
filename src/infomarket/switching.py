"""Strategy-switching dynamics over long multi-period market runs.

Informed traders flip between the value rule and the trend rule whenever
their portfolio return over the evaluation interval falls strictly below the
cross-trader mean. The realized strategy profiles form a finite-state chain
whose transition matrix and state frequencies are estimated from the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .agents import Strategy
from .csvout import fmt, write_csv
from .dividends import conditional_present_value, generate_dividend_path
from .engine import MarketSession, SessionConfig, market_with_levels
from .montecarlo import parallel_map
from .rng import SWITCH_DOMAIN, stream

# Periods per segment: the long experiment runs as a chain of reference markets.
SEGMENT_PERIODS = SessionConfig().n_periods


def encode_state(strategies) -> int:
    """Profile -> code in 1..2^n; trader 1 is the least significant bit, chartist = 1."""
    code = 1
    for i, s in enumerate(strategies):
        if s is Strategy.CHARTIST:
            code += 1 << i
        elif s is not Strategy.FUNDAMENTALIST:
            raise ValueError(f"trader {i + 1} has non-switchable strategy {s}")
    return code


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
    steps_per_period: int = 100

    def __post_init__(self) -> None:
        if not 1 <= self.n_traders <= 16:
            raise ValueError(f"n_traders must be in 1..16, got {self.n_traders}")
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
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
    """
    n = config.n_traders
    codes = np.empty(config.n_periods // config.interval + 1, dtype=np.int64)
    codes[0] = initial_code
    strategies = list(decode_state(initial_code, n))
    tie_events = 0
    all_equal = 0
    out = 1
    done = 0
    while done < config.n_periods:
        length = min(SEGMENT_PERIODS, config.n_periods - done)
        scfg = config.session_config(encode_state(strategies), length)
        path = generate_dividend_path(scfg.dividends, scfg.path_length, rng)
        session = MarketSession(scfg, path, rng)

        def mark(k: int) -> float:
            # share value at the end of period k of this segment
            return conditional_present_value(path, n, k + 1, scfg.rates.r_e)

        wealth_prev = np.asarray(session.cash) + np.asarray(session.shares, float) * mark(0)
        for k in range(1, length + 1):
            session.run_period()
            done += 1
            if done % config.interval:
                continue
            m = mark(k)
            wealth_now = np.asarray(session.cash) + np.asarray(session.shares, float) * m
            returns = (wealth_now - wealth_prev) / wealth_prev
            mean = returns.mean()
            below = returns < mean
            if not below.any():
                all_equal += 1
            elif (returns == mean).any():
                tie_events += 1
            for i in range(n):
                if below[i]:
                    strategies[i] = (
                        Strategy.CHARTIST
                        if strategies[i] is Strategy.FUNDAMENTALIST
                        else Strategy.FUNDAMENTALIST
                    )
                    session.set_strategy(i, strategies[i])
            codes[out] = encode_state(strategies)
            out += 1
            for i in range(n):
                session.cash[i] = float(scfg.initial_cash)
                session.shares[i] = int(scfg.initial_shares)
            wealth_prev = np.asarray(session.cash) + np.asarray(session.shares, float) * m
    return SwitchingRun(initial_code, codes, tie_events, all_equal)


# ---------------------------------------------------------------------------
# Chain estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionEstimate:
    """Row-normalized transition counts; rows never visited are flagged, not imputed."""

    counts: np.ndarray  # (n_states, n_states) integer counts
    probs: np.ndarray  # rows sum to 1 where visited, NaN otherwise
    row_totals: np.ndarray

    @property
    def visited(self) -> np.ndarray:
        return self.row_totals > 0


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
    pooled: TransitionEstimate
    runs: tuple[SwitchingRun, ...]


def aggregate_runs(runs: list[SwitchingRun], n_states: int) -> EnsembleEstimate:
    """Combine runs started from different initial states."""
    if not runs:
        raise ValueError("no runs to aggregate")
    mats = []
    pis = []
    total_counts = np.zeros((n_states, n_states), dtype=np.int64)
    for run in runs:
        est = estimate_transition_matrix(run.codes, n_states)
        mats.append(est.probs)
        pis.append(frequency_vector(run.codes, n_states))
        total_counts += est.counts
    mats = np.array(mats)
    pis = np.array(pis)
    m = len(runs)
    # A cell's estimate averages the runs that visited its row (NaN where
    # none did); its spread needs two of them, so fewer leave the stderr NaN.
    seen = ~np.isnan(mats)
    contributing = seen.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_probs = np.where(seen, mats, 0.0).sum(axis=0) / contributing
        dev = np.where(seen, mats - mean_probs, 0.0)
        spread = np.sqrt((dev * dev).sum(axis=0) / (contributing - 1))
    stderr_probs = np.where(contributing > 1, spread / np.sqrt(m), np.nan)
    row_totals = total_counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        pooled_probs = total_counts / row_totals[:, None]
    pooled = TransitionEstimate(total_counts, pooled_probs, row_totals)
    return EnsembleEstimate(
        mean_probs=mean_probs,
        stderr_probs=stderr_probs,
        mean_pi=pis.mean(axis=0),
        stderr_pi=pis.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.full(n_states, np.nan),
        pooled=pooled,
        runs=tuple(runs),
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
    return parallel_map(_one_switching_run, tasks, jobs, key=lambda r: r.initial_code)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_states_csv(runs: list[SwitchingRun], file) -> None:
    write_csv(file, ["initial", "interval", "code"],
              ((run.initial_code, idx, code) for run in runs for idx, code in enumerate(run.codes.tolist())))


def write_tmatrix_csv(est: EnsembleEstimate, file) -> None:
    # Rows never visited are NaN in the estimate and written as prob 0; a
    # stderr that fewer than two runs support is written as nan.
    probs = np.where(np.isnan(est.mean_probs), 0.0, est.mean_probs)
    stderrs = est.stderr_probs
    n = probs.shape[0]
    write_csv(file, ["from", "to", "prob", "stderr"],
              ((a + 1, b + 1, fmt(probs[a, b]), fmt(stderrs[a, b])) for a in range(n) for b in range(n)))


def write_freqs_csv(est: EnsembleEstimate, file) -> None:
    pi_t, _, _ = stationarity_gap(est.mean_pi, est.mean_probs)
    write_csv(file, ["code", "pi", "pi_T"],
              ((code, fmt(p), fmt(pt)) for code, (p, pt) in enumerate(zip(est.mean_pi, pi_t), start=1)))
