"""Batch orchestration: sessions x runs with deterministic seeding.

A session is a group of runs sharing one dividend path. Every stream is
derived from (master_seed, domain, session[, run]) keys, so the batch
decomposes into independent tasks whose results do not depend on worker
count or scheduling order.
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

from . import _kernel
from .csvout import fmt, write_csv
from .dividends import generate_dividend_path
from .engine import SessionConfig, relative_returns, run_session, session_net_returns
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
        return {lvl: self.rel_returns[:, i] for i, lvl in enumerate(self.levels)}

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


def _run_session_block(args) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None]:
    master, s, session_config, runs, collect = args
    path = generate_dividend_path(
        session_config.dividends, session_config.path_length, stream(master, PATH_DOMAIN, s)
    )
    n_agents = len(session_config.agents)
    rel = np.empty((runs, n_agents))
    net = np.empty(runs)
    per = np.empty((runs, session_config.n_periods - 1)) if collect else None
    for r in range(runs):
        result = run_session(session_config, path, stream(master, RUN_DOMAIN, s, r))
        rel[r] = relative_returns(result)
        returns = session_net_returns(result)
        net[r] = returns.mean() if returns.size else np.nan  # one period has no net return
        if per is not None:
            per[r] = returns
    return s, rel, net, per


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


def _per_run_rows(batch: BatchResult, per_run, labels):
    """Rows (session, run, label, value) for a (n_runs, k) array and its k column labels."""
    runs = batch.config.runs_per_session
    for row, values in enumerate(per_run):
        s, r = divmod(row, runs)
        for label, value in zip(labels, values):
            yield s, r, label, fmt(value)


def write_runs_csv(batch: BatchResult, file) -> None:
    """One row per (session, run, trader): session,run,agent_level,relative_return_pp."""
    write_csv(file, ["session", "run", "agent_level", "relative_return_pp"],
              _per_run_rows(batch, batch.rel_returns, batch.levels))


def write_efficiency_csv(batch: BatchResult, file) -> None:
    """Per-period net simple returns: session,run,period,net_simple_return."""
    if batch.period_returns is None:
        raise ValueError("batch was run without collect_period_returns")
    periods = range(1, batch.period_returns.shape[1] + 1)
    write_csv(file, ["session", "run", "period", "net_simple_return"],
              _per_run_rows(batch, batch.period_returns, periods))
