"""Batch orchestration: sessions x runs with deterministic seeding.

A session is a group of runs sharing one dividend path. Every stream is
derived from (master_seed, domain, session[, run]) keys, so the batch
decomposes into independent tasks whose results do not depend on worker
count or scheduling order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import get_context

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
    jobs: int | None = None  # None: one worker per CPU
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


def parallel_map(task, items, jobs: int | None, key) -> list:
    """`task` applied to every item, returned sorted by `key`.

    Runs in this process when one worker suffices, else on a pool of forked
    workers (jobs None: one per CPU, never more than there are items).
    `task` must be a module-level function so the pool can pickle it. The
    session kernel is resolved before the fork, so the workers inherit the
    loaded library and none of them builds it.
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(items)))
    if jobs == 1:
        results = [task(item) for item in items]
    else:
        _kernel.resolve()
        with get_context("fork").Pool(jobs) as pool:
            results = list(pool.imap_unordered(task, items, chunksize=1))
    results.sort(key=key)
    return results


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
