"""Strategy-switching dynamics over long multi-period market runs.

Informed traders flip between the value rule and the trend rule whenever
their portfolio return over the evaluation interval falls strictly below the
cross-trader mean. The realized strategy profiles form a finite-state chain
whose transition matrix and state frequencies are estimated from the run.

`run_switching_sim` runs one chain in the Python loop, the specification:
a `MarketSession` per segment, run period by period, with the evaluation in
Python. An ensemble, `run_switching_ensemble`, runs one chain per initial
code, chain c on `stream(master, SWITCH_DOMAIN, c)`, in one of two forms
with the same bits. Its Python loop runs `_one_switching_run` per chain in
the calling thread. Where the compiled kernel loads and no name in
`ENSEMBLE_SPEC` is patched, the caller seeds every chain's generator in one
call, and `jobs` shares run the chains, each in one call of `_kernel.c`'s
`im_run_chains` on a session state of its own (`run_kernel_shares`),
resetting the state for each segment. The shares take their chains from
one shared counter, each the next chain no share has taken, until none is
left, so a share that starts late takes fewer.

After the chains, `aggregate_runs` counts every run's transitions and
states in one pass, and `write_states_csv` formats its rows in the kernel
where one loads; `estimate_transition_matrix`, `frequency_vector` and
`_state_blocks` stay their specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernel, engine
from .agents import Strategy
from .csvout import _LINES_PER_WRITE, write_csv, write_csv_blocks
from .dividends import conditional_present_value, generate_dividend_path
from .engine import MarketSession, SessionConfig, compiled_kernel, held, market_with_levels
from .montecarlo import run_kernel_shares, share_count
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

    This is the specification, on any generator; `run_switching_ensemble`
    runs it compiled (see the module docstring).
    """
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


def _compiled_chains(lib, config: SwitchingConfig, codes, states: np.ndarray, jobs: int) -> list[SwitchingRun]:
    """The chain from each of `codes`, chain i on the generator whose six
    state words are row i of `states` (C-contiguous uint64), which takes the
    words it leaves.

    `jobs` shares run the chains (`run_kernel_shares`), each in one
    `im_run_chains` call with scratch buffers of its own: a share takes the
    next chain that no share has taken from one shared counter until none
    is left, and writes that chain's rows of the ensemble-wide codes,
    states and tie counts. The kernel reads each code's bits unchecked, so
    the caller checks every code with `decode_state` first.
    """
    if states.shape != (len(codes), 6) or states.dtype != np.uint64 or not states.flags.c_contiguous:
        raise ValueError(f"need a C-contiguous ({len(codes)}, 6) uint64 array of generator states")
    table = np.empty((len(codes), config.n_periods // config.interval + 1), np.int64)
    table[:, 0] = codes
    ties, next_chain = np.empty((2, len(codes)), np.int64), np.zeros(1, np.int64)
    # One state, laid out for the first (the longest) segment, serves every
    # chain of a share: the kernel sets each chain's strategies from its code.
    first = min(SEGMENT_PERIODS, config.n_periods)
    scfg = config.session_config(1, first)
    chains, keep = [], [next_chain, states, table, ties]
    for _ in range(jobs):
        scratch = [np.empty(k) for k in (scfg.path_length, first + 1, config.n_traders)]
        chains.append(_kernel.Chain(n_periods=config.n_periods, interval=config.interval,
                                    walk=scratch[0].ctypes.data, marks=scratch[1].ctypes.data,
                                    returns=scratch[2].ctypes.data, n_chains=len(codes),
                                    next_chain=next_chain.ctypes.data, states=states.ctypes.data,
                                    codes=table.ctypes.data, tie_events=ties[0].ctypes.data,
                                    all_equal_events=ties[1].ctypes.data))
        keep += scratch
    run_kernel_shares(lib.im_run_chains, scfg, chains, keep)
    return [SwitchingRun(code, row, tie, equal) for code, row, tie, equal in zip(codes, table, *ties.tolist())]


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
    # One count per (from, to) pair, as the cell's flat index.
    pairs = (codes[:-1] - 1) * n_states + (codes[1:] - 1)
    counts = np.bincount(pairs, minlength=n_states * n_states).reshape(n_states, n_states)
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


_AGGREGATE_CELLS = 1 << 16  # the matrix cells of a block of runs in `aggregate_runs`


def aggregate_runs(runs: list[SwitchingRun], n_states: int) -> EnsembleEstimate:
    """Combine runs started from different initial states.

    Each run's rows are its `estimate_transition_matrix(...).probs` and its
    `frequency_vector`, which stay the specification, with the same bits.
    The runs go in blocks of about `_AGGREGATE_CELLS` matrix cells (at least
    one run), so the memory held does not grow with the number of runs. One
    `bincount` counts a block, and a sum over the runs adds each block's
    matrices to the running sum in run order: numpy sums over axis 0 in
    order, so the bits are those of one sum over every run.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    m, s = len(runs), n_states
    lengths = np.array([len(run.codes) for run in runs])
    if lengths.min() < 2:
        raise ValueError("need at least two recorded states")
    codes = np.concatenate([np.asarray(run.codes, dtype=np.int64) for run in runs])
    if codes.min() < 1 or codes.max() > s:
        raise ValueError("state codes outside 1..n_states")
    run_of = np.repeat(np.arange(m), lengths)
    # A state's flat index in the (runs, n_states) counts, and a transition's,
    # from it, in the (runs, n_states, n_states) counts; a run's last state
    # has no transition into the next run's first. The transitions stay in
    # run order, so a block of runs' transitions is one slice of them.
    cells = run_of * s + (codes - 1)
    within = run_of[1:] == run_of[:-1]
    pairs = (cells[:-1] * s + (codes[1:] - 1))[within]
    pis = np.bincount(cells, minlength=m * s).reshape(m, s) / lengths[:, None]
    step = max(1, _AGGREGATE_CELLS // (s * s))

    def blocks():
        """Each block's (runs, n_states, n_states) matrices, and where they are not NaN."""
        for lo in range(0, m, step):
            n = min(step, m - lo)
            a, b = np.searchsorted(pairs, (lo * s * s, (lo + n) * s * s))
            counts = np.bincount(pairs[a:b] - lo * s * s, minlength=n * s * s).reshape(n, s, s)
            with np.errstate(invalid="ignore"):
                mats = counts / counts.sum(axis=2)[:, :, None]
            yield mats, ~np.isnan(mats)

    # A cell's estimate averages the runs that visited its row (NaN where
    # none did), so its stderr is their spread over the square root of their
    # count; the spread needs two of them, so fewer leave the stderr NaN.
    # Every term is a probability or a square, so the sums can start at 0.0.
    total, squares, contributing = np.zeros((1, s, s)), np.zeros((1, s, s)), 0
    for mats, seen in blocks():
        total = np.concatenate((total, np.where(seen, mats, 0.0))).sum(axis=0, keepdims=True)
        contributing = contributing + seen.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_probs = total[0] / contributing
        for mats, seen in blocks():
            dev = np.where(seen, mats - mean_probs, 0.0)
            squares = np.concatenate((squares, dev * dev)).sum(axis=0, keepdims=True)
        spread = np.sqrt(squares[0] / (contributing - 1))
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


# The names the ensemble's Python loop calls: the rules and book methods,
# and what `run_switching_sim` and `_one_switching_run` call besides them.
# The compiled ensemble seeds every chain's generator and runs every chain
# in C, so an ensemble with any of them patched (a tracer or a test) runs
# the Python loop.
ENSEMBLE_SPEC = (*engine.SESSION_SPEC,
                 *held(globals(), "generate_dividend_path", "conditional_present_value", "MarketSession", "stream"),
                 *held(vars(engine), "conditional_present_value"),
                 *held(vars(MarketSession), "run_period", "set_strategy"),
                 *held(vars(SwitchingConfig), "session_config"))


def _one_switching_run(args) -> SwitchingRun:
    config, code, master = args
    return run_switching_sim(config, code, stream(master, SWITCH_DOMAIN, code))


def run_switching_ensemble(
    config: SwitchingConfig,
    initial_codes,
    master_seed: int,
    jobs: int | None = None,
) -> list[SwitchingRun]:
    """Independent runs from several initial states, sorted by initial code,
    reproducible for any job count.

    Chain c draws from `stream(master_seed, SWITCH_DOMAIN, c)`. Where the
    compiled kernel loads and nothing in `ENSEMBLE_SPEC` is patched, the
    chains run in `jobs` shares (None: `default_jobs()`) of one
    `im_run_chains` call each, on generators seeded in one `im_seed_pcg64`
    call; the Python loop, `_one_switching_run` per chain, is its
    specification. Either way every code is checked before any chain runs.
    """
    codes = list(initial_codes)
    for code in codes:
        decode_state(code, config.n_traders)
    lib = compiled_kernel(ENSEMBLE_SPEC)
    if lib is None or not codes:
        # As `montecarlo.run_batch`: the Python loop holds the GIL, so its chains run in this thread.
        runs = [_one_switching_run((config, code, master_seed)) for code in codes]
    else:
        states = _kernel.seeded_states(lib, [(master_seed, SWITCH_DOMAIN, code) for code in codes])
        runs = _compiled_chains(lib, config, codes, states, share_count(jobs, len(codes)))
    return sorted(runs, key=lambda r: r.initial_code)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_states_csv(runs: list[SwitchingRun], file) -> None:
    """One row per recorded state of every run: initial,interval,code.

    Where the kernel loads, `im_format_states` writes each run's rows, up to
    `_LINES_PER_WRITE` of them at a time, into one buffer reused for the
    next; `_state_blocks`, its specification, writes the same bytes
    wherever no kernel loads.
    """
    lib = _kernel.resolve()
    blocks = _state_blocks(runs) if lib is None else _compiled_state_blocks(lib, runs)
    write_csv_blocks(file, ["initial", "interval", "code"], blocks)


def _compiled_state_blocks(lib, runs: list[SwitchingRun]):
    # Each run's head, its initial code and a comma, is %d's text, for any int.
    heads = [b"%d," % run.initial_code for run in runs]
    rows = min(_LINES_PER_WRITE, max((len(run.codes) for run in runs), default=0))
    out = np.empty(rows * (max(map(len, heads), default=0) + _kernel.STATE_ROW_BYTES), np.uint8)
    for run, head in zip(runs, heads):
        codes = np.ascontiguousarray(run.codes, dtype=np.int64)
        for start in range(0, len(codes), _LINES_PER_WRITE):
            size = lib.im_format_states(codes[start:].ctypes.data, min(_LINES_PER_WRITE, len(codes) - start), head,
                                        len(head), start, out.ctypes.data)
            yield str(out[:size], "ascii")


def _state_blocks(runs: list[SwitchingRun]):
    """The rows initial,interval,code of every run, `_LINES_PER_WRITE` rows
    (or a run's last rows) per block, each block one %-format."""
    for run in runs:
        for start in range(0, len(run.codes), _LINES_PER_WRITE):
            codes = run.codes[start:start + _LINES_PER_WRITE].tolist()
            fields = [run.initial_code] * (3 * len(codes))
            fields[1::3] = range(start, start + len(codes))
            fields[2::3] = codes
            yield "%d,%d,%d\r\n" * len(codes) % tuple(fields)


def write_tmatrix_csv(est: EnsembleEstimate, file) -> None:
    # Rows never visited are NaN in the estimate and written as prob 0; a
    # stderr that fewer than two runs support is written as nan. `tolist`
    # gives Python floats, whose repr is `fmt`'s text.
    probs = np.where(np.isnan(est.mean_probs), 0.0, est.mean_probs).tolist()
    stderrs = est.stderr_probs.tolist()
    write_csv(file, ["from", "to", "prob", "stderr"],
              (f"{a},{b},{p!r},{se!r}"
               for a, (row, se_row) in enumerate(zip(probs, stderrs), start=1)
               for b, (p, se) in enumerate(zip(row, se_row), start=1)))


def write_freqs_csv(est: EnsembleEstimate, file) -> None:
    # A one-run ensemble has no spread, so its stderr is written as nan.
    pi_t, _, _ = stationarity_gap(est.mean_pi, est.mean_probs)
    write_csv(file, ["code", "pi", "pi_T", "stderr"],
              (f"{code},{p!r},{pt!r},{se!r}"
               for code, (p, pt, se) in enumerate(zip(est.mean_pi.tolist(), pi_t.tolist(), est.stderr_pi.tolist()),
                                                   start=1)))
