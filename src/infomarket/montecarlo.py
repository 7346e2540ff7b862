"""Batch orchestration: sessions x runs with deterministic seeding.

A session is a group of runs sharing one dividend path. Every stream is
derived from (master_seed, domain, session[, run]) keys, so the batch
decomposes into independent tasks whose results do not depend on worker
count or scheduling order.

A task is one session block, `_run_session_block`, in one of two forms
with the same bits and the same final generator states. The Python block is
the specification: it draws the path, runs `run_session` per run (each
session picks its own kernel) and every run shares the present-value table
cached on the path. The compiled block is one call of `_kernel.c`'s
`im_run_block`, on one session state laid out once per block: it draws the
path, fills the table once and runs every run. A block takes it where the
compiled kernel loads and no name in `BLOCK_SPEC` is patched.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import selectors
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernel, engine
from .csvout import write_csv
from .dividends import generate_dividend_path
from .engine import SESSION_SPEC, SessionConfig, compiled_kernel, held, lay_out_state, run_session
from .rng import PATH_DOMAIN, RUN_DOMAIN, stream


@dataclass(frozen=True)
class BatchConfig:
    session: SessionConfig = field(default_factory=SessionConfig)
    n_sessions: int = 100
    runs_per_session: int = 100
    master_seed: int = 0
    jobs: int | None = None  # None: one worker per CPU this process may run on
    collect_period_returns: bool = False

    def __post_init__(self) -> None:
        if self.n_sessions < 1 or self.runs_per_session < 1:
            raise ValueError("n_sessions and runs_per_session must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        s = self.session
        if s.initial_cash + s.initial_shares * s.initial_price == 0:
            raise ValueError("a batch needs positive opening wealth: relative returns divide by it")
        if self.collect_period_returns and self.session.n_periods < 2:
            raise ValueError("collecting net returns needs n_periods >= 2: a net return spans two closing prices")

    @property
    def n_runs(self) -> int:
        return self.n_sessions * self.runs_per_session


@dataclass(frozen=True)
class BatchResult:
    """Raw per-run rows plus the derived per-level aggregates."""

    config: BatchConfig
    levels: tuple[int, ...]
    rel_returns: np.ndarray  # (n_sessions * runs, n_agents) percentage points
    asset_mean_returns: np.ndarray  # (n_sessions * runs,) mean per-period net simple return
    period_returns: np.ndarray | None  # (n_runs, n_periods - 1) when collected

    def samples_by_level(self) -> dict[int, np.ndarray]:
        """Each level's relative returns: the columns of all its traders, one
        after another."""
        columns: dict[int, list[np.ndarray]] = {}
        for i, lvl in enumerate(self.levels):
            columns.setdefault(lvl, []).append(self.rel_returns[:, i])
        return {lvl: np.concatenate(cols) for lvl, cols in columns.items()}

    def mean_net_return(self) -> float:
        return float(self.asset_mean_returns.mean())


def default_jobs() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(task, items, jobs: int | None, key) -> list:
    """`task` applied to every item, returned sorted by `key`.

    Runs in this process when one worker suffices, else in `jobs` forked
    workers (jobs None: `default_jobs()`, never more than there are items),
    worker j taking items j, j + jobs, ... . The workers inherit `task` and
    the items, so only results are pickled, and the parent runs no task. The
    session kernel is resolved before the fork, so the workers inherit the
    loaded library and none of them builds it. A task's exception is raised
    again here with its own type; a worker that ends without a result raises
    `RuntimeError`.
    """
    jobs = jobs if jobs is not None else default_jobs()
    jobs = max(1, min(jobs, len(items)))
    if jobs == 1:
        results = [task(item) for item in items]
    else:
        _kernel.resolve()
        results = _fork_join(task, items, jobs)
    results.sort(key=key)
    return results


def _fork_join(task, items, jobs: int) -> list:
    """Every worker's results, in worker order; see `parallel_map`.

    Every worker still running when this returns or raises (a failure, or
    KeyboardInterrupt in the parent) is killed, and every worker is reaped.
    """
    running: dict[int, int] = {}  # pid -> read end of the pipe its reply comes through
    _flush_std_streams()  # so no worker holds a copy of our buffered output
    try:
        for j in range(jobs):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(task, items[j::jobs], write, [read, *running.values()])
                running[pid] = read
            except OSError:
                os.close(read)
                raise
            finally:
                os.close(write)
        return _collect(running)
    finally:
        for pid, read in running.items():
            os.close(read)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped just before an interrupt
                os.waitpid(pid, 0)


def _work(task, share, write: int, inherited: list[int]) -> None:
    """A forked worker: run `task` on its share, send `(ok, results | exception)`
    through `write`, and exit without returning into the parent's code."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            reply = (True, [task(item) for item in share])
            _flush_std_streams()
        except BaseException as exc:  # KeyboardInterrupt too: the parent learns why the worker stopped
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(f"worker cannot send its reply: {exc!r}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _collect(running: dict[int, int]) -> list:
    """Every worker's results, in worker order. Reads whichever pipe has data,
    so a worker blocked on a full pipe never waits on another, and raises at
    the first failure to arrive."""
    order = list(running)
    received = {pid: bytearray() for pid in order}
    results = {}
    with selectors.DefaultSelector() as selector:
        for pid, read in running.items():
            selector.register(read, selectors.EVENT_READ, pid)
        while selector.get_map():
            for ready, _ in selector.select():
                pid = ready.data
                chunk = os.read(ready.fd, 1 << 16)
                if chunk:
                    received[pid] += chunk
                else:
                    selector.unregister(ready.fd)
                    results[pid] = _reply(pid, received[pid], running)
    return [result for pid in order for result in results[pid]]


def _reply(pid: int, data: bytearray, running: dict[int, int]) -> list:
    """Reap worker `pid`, whose pipe has closed, and unpickle what it sent."""
    _, status = os.waitpid(pid, 0)
    os.close(running.pop(pid))
    if status != 0 or not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"worker {pid} ended without a result ({how})")
    ok, payload = pickle.loads(data)
    if not ok:
        raise payload
    return payload


def _flush_std_streams() -> None:
    for std in (sys.stdout, sys.stderr):
        if std is not None:
            std.flush()


# The names the Python block calls besides a session's rules and book. The
# compiled block runs all of them in C, so a block with any of them patched
# (a tracer or a test) runs the Python block.
BLOCK_SPEC = (*SESSION_SPEC, *held(globals(), "generate_dividend_path", "run_session"),
              *held(vars(engine), "conditional_present_value"))


def _run_session_block(args) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None]:
    """One batch session: its runs on one dividend path, as (session,
    relative returns, mean net returns, per-period net returns or None).

    The path and every run draw from their own streams. Where the compiled
    kernel loads and nothing in `BLOCK_SPEC` is patched, `_kernel.c`'s
    `im_run_block` runs the whole block in one call; the Python block is
    its specification. Both leave each run's final wealth and closing prices,
    from which the returns are computed once for the block.
    """
    master, s, cfg, runs, collect = args
    path_rng = stream(master, PATH_DOMAIN, s)
    rngs = [stream(master, RUN_DOMAIN, s, r) for r in range(runs)]
    wealth = np.empty((runs, len(cfg.agents)))
    closes = np.empty((runs, cfg.n_periods))
    lib = compiled_kernel(BLOCK_SPEC)
    if lib is None:
        path = generate_dividend_path(cfg.dividends, cfg.path_length, path_rng)
        for r, rng in enumerate(rngs):
            result = run_session(cfg, path, rng)
            wealth[r] = result.final_wealth()
            closes[r] = result.period_end_prices
        walk = np.array(path.values)
    else:
        walk = np.empty(cfg.path_length)
        state = lay_out_state(cfg)
        powers = np.empty(cfg.max_level)
        bitgens = np.array([_kernel.bitgen_address(rng) for rng in rngs], np.int64)
        block = _kernel.Block(
            runs=runs, periods=cfg.n_periods, path_length=cfg.path_length, top=cfg.max_level,
            d0=cfg.dividends.d0, sigma=cfg.dividends.sigma, r_e=cfg.rates.r_e,
            initial_cash=cfg.initial_cash, initial_shares=cfg.initial_shares, initial_price=cfg.initial_price,
            walk=walk.ctypes.data, powers=powers.ctypes.data, bitgens=bitgens.ctypes.data,
            wealth=wealth.ctypes.data, closes=closes.ctypes.data)
        if lib.im_run_block(state["_arena"].ctypes.data, block, _kernel.bitgen_address(path_rng)):
            raise RuntimeError("order book capacity exceeded")
    # relative_returns and session_net_returns, row by row
    w0 = cfg.initial_cash + cfg.initial_shares * cfg.initial_price
    r = (wealth - w0) / w0
    rel = (r - r.mean(axis=1, keepdims=True)) * 100.0
    per = (closes[:, 1:] + walk[1:cfg.n_periods] - closes[:, :-1]) / closes[:, :-1]
    net = per.mean(axis=1) if cfg.n_periods > 1 else np.full(runs, np.nan)  # one period has no net return
    return s, rel, net, per if collect else None


def run_batch(config: BatchConfig) -> BatchResult:
    """Run the full batch; identical output for any worker count."""
    tasks = [
        (config.master_seed, s, config.session, config.runs_per_session, config.collect_period_returns)
        for s in range(config.n_sessions)
    ]
    blocks = parallel_map(_run_session_block, tasks, config.jobs, key=lambda b: b[0])
    rel = np.concatenate([b[1] for b in blocks])
    net = np.concatenate([b[2] for b in blocks])
    per = np.concatenate([b[3] for b in blocks]) if config.collect_period_returns else None
    levels = tuple(a.info_level for a in config.session.agents)
    return BatchResult(
        config=config,
        levels=levels,
        rel_returns=rel,
        asset_mean_returns=net,
        period_returns=per,
    )


def _per_run_lines(batch: BatchResult, per_run: np.ndarray, labels):
    """Lines session,run,label,value for a (n_runs, k) array and its k column labels."""
    runs = batch.config.runs_per_session
    tails = [f",{label}," for label in labels]
    for row, values in enumerate(np.asarray(per_run, dtype=float)):
        s, r = divmod(row, runs)
        head = f"{s},{r}"
        # `tolist` gives Python floats, whose repr is `fmt`'s text; a numpy
        # scalar's repr is not (numpy 2 writes np.float64(...)).
        for tail, value in zip(tails, values.tolist()):
            yield f"{head}{tail}{value!r}"


def write_runs_csv(batch: BatchResult, file) -> None:
    """One row per (session, run, trader): session,run,agent_level,relative_return_pp."""
    write_csv(file, ["session", "run", "agent_level", "relative_return_pp"],
              _per_run_lines(batch, batch.rel_returns, batch.levels))


def write_efficiency_csv(batch: BatchResult, file) -> None:
    """Per-period net simple returns: session,run,period,net_simple_return."""
    if batch.period_returns is None:
        raise ValueError("batch was run without collect_period_returns")
    periods = range(1, batch.period_returns.shape[1] + 1)
    write_csv(file, ["session", "run", "period", "net_simple_return"],
              _per_run_lines(batch, batch.period_returns, periods))
