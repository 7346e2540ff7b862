"""Batch orchestration: sessions x runs with deterministic seeding.

A session is a group of runs sharing one dividend path. Every stream is
derived from (master_seed, domain, session[, run]) keys, so the batch
decomposes into independent sessions whose results do not depend on worker
count or scheduling order.

A batch's runs write their final wealth and closing prices, and its
sessions their dividend walks, into arrays that span the whole batch (a
`Share`), from which `run_batch` computes every return once. The sessions
run in one of two forms with the same bits and the same final generator
states. The Python block, `_run_session_block`, is the specification: per
session it derives the streams with `rng.stream`, draws the path and runs
`run_session`, the Python loop, per run, and every run shares the
present-value table cached on the path. Where the compiled kernel loads
and no name in `BLOCK_SPEC` is patched, `jobs` shares run the sessions
instead, each in one call of `_kernel.c`'s `im_run_block` on a session
state of its own (`run_kernel_shares`), and each share takes the next
session that no share has taken from one shared counter, until none is
left. The kernel seeds every generator itself, as `rng.stream` does, then
per session draws the path, fills the table once and runs every run.

`first_run` is run 0 of session 0 of a batch, with all its series: the one
run of `simulate` and `stats`. It runs a one-run batch in the same two
forms, and the compiled one reads the run back from its share's state.

`run_shares` runs the shares of a batch or of a switching ensemble, each
on a share thread of its own.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernel, engine
from .csvout import _LINES_PER_WRITE, write_csv, write_csv_blocks
from .dividends import DividendPath, generate_dividend_path
from .engine import (
    SESSION_SPEC,
    SessionConfig,
    SessionResult,
    compiled_kernel,
    held,
    lay_out_state,
    run_session,
    session_result,
)
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


def share_count(jobs: int | None, items: int) -> int:
    """How many shares run `items` items: `jobs` (None: `default_jobs()`),
    but never more than there are items, and at least one."""
    return max(1, min(default_jobs() if jobs is None else jobs, items))


def run_shares(task, shares: list) -> list:
    """`task(share)` for every share, in share order.

    A single share runs in the calling thread. Otherwise each share runs on
    a share thread of its own: a call takes an idle share thread per share,
    or starts one where none is idle, and the thread is idle again as soon
    as its share ends, before it replies; share threads are kept for the
    life of the process. Share j first moves its thread to the j-th CPU of
    the mask the caller runs under (on Linux, `sched_setaffinity(0, ...)`
    acts on the calling thread alone), then restores that mask: a woken
    thread starts on its waker's CPU, where two shares would take turns
    while another CPU sat idle.

    The first share error to arrive is raised here as it is; a share still
    running then finishes in the background, and its thread is idle again
    after it.
    """
    if len(shares) < 2:
        return [task(share) for share in shares]
    replies = queue.SimpleQueue()  # one (j, ok, result | exception) per share
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def run(j, inbox):
        try:
            _place(cpus, j)
            reply = (j, True, task(shares[j]))
        except BaseException as exc:
            reply = (j, False, exc)
        with _idle_lock:
            _idle.append(inbox)
        replies.put(reply)

    for j in range(len(shares)):
        inbox = _idle_inbox()
        inbox.put(functools.partial(run, j, inbox))
    results = [None] * len(shares)
    for _ in shares:
        j, ok, payload = replies.get()
        if not ok:
            raise payload
        results[j] = payload
    return results


# The inboxes of the share threads that wait for a share. A forked child has
# none of these threads, so it forgets them and takes a lock of its own.
_idle: list[queue.SimpleQueue] = []
_idle_lock = threading.Lock()


def _forget_share_threads() -> None:
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_share_threads)


def _serve(inbox: queue.SimpleQueue) -> None:
    """A share thread: runs every share put into its inbox, one after another."""
    while True:
        inbox.get()()


def _idle_inbox() -> queue.SimpleQueue:
    """An idle share thread's inbox, or a new thread's when none is idle."""
    with _idle_lock:
        if _idle:
            return _idle.pop()
    inbox = queue.SimpleQueue()
    threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
    return inbox


def _place(cpus: list[int], j: int) -> None:
    """Move this thread to CPU `cpus[j]` (cycling), then give it all of
    `cpus` again; nothing where the OS cannot set a thread's affinity."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[j % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def run_kernel_shares(entry, session: SessionConfig, jobs: list, keep) -> list[dict]:
    """Run `entry(state, job)`, an entry point of the compiled kernel whose
    shares take their items from one shared counter, once per job, each on
    a share of its own (`run_shares`) and a session state of `session`.

    Every state is laid out here, before any share starts, so no share
    thread lays one out. Each share holds `keep`, every array the jobs
    point to, so that a share still running after the caller has raised
    (a Ctrl-C) never writes into freed memory. Returns the states, each holding its
    share's last run; raises RuntimeError, once every share has returned,
    where a share returned -1 (a side of the book full), after which no
    share takes another item.
    """
    shares = [(lay_out_state(session), job, keep) for job in jobs]
    if min(run_shares(lambda share: entry(share[0]["_arena"].ctypes.data, share[1]), shares)) < 0:
        raise RuntimeError("order book capacity exceeded")
    return [state for state, _, _ in shares]


# The names the Python block calls besides a session's rules and book. The
# compiled block runs all of them in C, so a block with any of them patched
# (a tracer or a test) runs the Python block.
BLOCK_SPEC = (*SESSION_SPEC, *held(globals(), "generate_dividend_path", "run_session", "stream"),
              *held(vars(engine), "conditional_present_value"))


@dataclass(frozen=True)
class Share:
    """The sessions of a batch, which its shares divide, and the batch-wide
    arrays they write their rows of. Row s * runs + r of `wealth` (n_runs x
    traders) and `closes` (n_runs x periods) is run r of session s; row s
    of `walks` (n_sessions x path length) is session s's dividend walk.
    `states`, where given (n_sessions x (runs + 1) x 6 uint64), takes each
    generator's final state as `_kernel.pcg64_words` gives it, the walk's
    first."""

    master: int
    session: SessionConfig
    runs: int
    wealth: np.ndarray
    closes: np.ndarray
    walks: np.ndarray
    states: np.ndarray | None = None


def _new_share(session: SessionConfig, master: int, n_sessions: int, runs: int) -> Share:
    """`n_sessions` sessions of `runs` runs of `session` under `master`, over new batch-wide arrays."""
    n_runs = n_sessions * runs
    return Share(master, session, runs, np.empty((n_runs, len(session.agents))), np.empty((n_runs, session.n_periods)),
                 np.empty((n_sessions, session.path_length)))


def _run_sessions(share: Share, jobs: int | None) -> list[dict] | None:
    """Run every session of `share`.

    Where the compiled kernel loads and nothing in `BLOCK_SPEC` is patched,
    `share_count(jobs, sessions)` shares run them, one `im_run_block` call
    each, and the states they ran on are returned. Otherwise the Python
    block, `_run_session_block`, runs them in this thread, since it holds
    the GIL, and None is returned.
    """
    lib = compiled_kernel(BLOCK_SPEC)
    if lib is None:
        _run_session_block(share)
        return None
    master, next_session = _kernel.key_words(share.master), np.zeros(1, np.int64)
    block = _kernel.Block(
        runs=share.runs, master=master.ctypes.data, n_master=len(master), path_domain=PATH_DOMAIN,
        run_domain=RUN_DOMAIN, n_sessions=len(share.walks), next_session=next_session.ctypes.data,
        walks=share.walks.ctypes.data, wealth=share.wealth.ctypes.data, closes=share.closes.ctypes.data,
        states=None if share.states is None else share.states.ctypes.data)
    jobs = share_count(jobs, len(share.walks))
    return run_kernel_shares(lib.im_run_block, share.session, [block] * jobs, (master, next_session, share))


def _run_session_block(share: Share) -> None:
    """The Python block: every session of `share`, in this thread.

    Each session's walk and each of its runs draw from their own streams,
    `stream(master, PATH_DOMAIN, s)` and `stream(master, RUN_DOMAIN, s, r)`.
    It is the specification of `_kernel.c`'s `im_run_block`.
    """
    for row, result in _python_runs(share):
        share.wealth[row] = result.final_wealth()
        share.closes[row] = result.period_end_prices


def _python_runs(share: Share):
    """Each run of the share's sessions as (its row of the batch-wide
    arrays, its result), one `run_session` per run. It writes each
    session's walk before its runs and, where the share asks for them, its
    generators' final states after them, so a caller takes every run."""
    cfg, runs = share.session, share.runs
    for s in range(len(share.walks)):
        path_rng = stream(share.master, PATH_DOMAIN, s)
        rngs = [stream(share.master, RUN_DOMAIN, s, r) for r in range(runs)]
        path = generate_dividend_path(cfg.dividends, cfg.path_length, path_rng)
        share.walks[s] = path.values
        for r, rng in enumerate(rngs):
            yield s * runs + r, run_session(cfg, path, rng)
        if share.states is not None:
            share.states[s] = [_kernel.pcg64_words(g) for g in (path_rng, *rngs)]


def first_run(session: SessionConfig, master_seed: int) -> SessionResult:
    """Run 0 of session 0 of a batch of `session` under `master_seed`, all
    its series: the run on `stream(master_seed, RUN_DOMAIN, 0, 0)` over the
    walk on `stream(master_seed, PATH_DOMAIN, 0)`.

    It takes any session `run_session` takes, zero opening wealth included
    (only a batch's relative returns divide by it)."""
    return _first_run(_new_share(session, master_seed, 1, 1))


def _first_run(share: Share) -> SessionResult:
    """The result of a one-run share's run. The compiled block runs it in
    one `im_run_block` call, and its series come back from the share's
    state; the Python block runs it with `run_session`."""
    if compiled_kernel(BLOCK_SPEC) is None:
        ((_, result),) = _python_runs(share)
        return result
    (state,) = _run_sessions(share, 1)
    return session_result(share.session, DividendPath(share.walks[0]), state)


def run_batch(config: BatchConfig) -> BatchResult:
    """Run the full batch; identical output for any worker count."""
    cfg, runs = config.session, config.runs_per_session
    share = _new_share(cfg, config.master_seed, config.n_sessions, runs)
    _run_sessions(share, config.jobs)
    wealth, closes, walks = share.wealth, share.closes, share.walks
    # relative_returns and session_net_returns, row by row
    w0 = cfg.initial_cash + cfg.initial_shares * cfg.initial_price
    r = (wealth - w0) / w0
    rel = (r - r.mean(axis=1, keepdims=True)) * 100.0
    periods = cfg.n_periods
    c = closes.reshape(config.n_sessions, runs, periods)
    per = (c[:, :, 1:] + walks[:, None, 1:periods] - c[:, :, :-1]) / c[:, :, :-1]
    per = per.reshape(config.n_runs, periods - 1)
    # one period has no net return
    net = per.mean(axis=1) if periods > 1 else np.full(config.n_runs, np.nan)
    levels = tuple(a.info_level for a in cfg.agents)
    return BatchResult(
        config=config,
        levels=levels,
        rel_returns=rel,
        asset_mean_returns=net,
        period_returns=per if config.collect_period_returns else None,
    )


def _write_per_run_csv(file, header, batch: BatchResult, per_run: np.ndarray, labels) -> None:
    """Write `header`, then one row session,run,label,value per value of a
    (n_runs, k) array with its k column labels.

    Where the kernel loads, `im_format_per_run` writes them a block of about
    `_LINES_PER_WRITE` rows at a time into one buffer, reused for the next;
    the Python generator `_per_run_lines`, its specification, writes the same
    bytes wherever no kernel loads.
    """
    runs = batch.config.runs_per_session
    values = np.asarray(per_run, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise ValueError(f"{len(labels)} labels for per-run values of shape {values.shape}")
    lib = _kernel.resolve()
    if lib is None:
        write_csv(file, header, _per_run_lines(values, runs, labels))
    else:
        write_csv_blocks(file, header, _compiled_per_run_blocks(lib, values, runs, labels))


def _compiled_per_run_blocks(lib, values: np.ndarray, runs: int, labels):
    n, k = values.shape
    step = max(1, _LINES_PER_WRITE // max(k, 1))
    names = [str(label).encode() for label in labels]
    text, ends = b"".join(names), np.cumsum([len(name) for name in names], dtype=np.int64)
    out = np.empty(step * (k * _kernel.FORMAT_BYTES + len(text)), np.uint8)
    for first in range(0, n, step):
        block = np.ascontiguousarray(values[first:first + step])
        size = lib.im_format_per_run(block.ctypes.data, len(block), k, runs, first, text, ends.ctypes.data,
                                     lib.pow10.ctypes.data, out.ctypes.data)
        yield str(out[:size], "utf-8")


def _per_run_lines(per_run: np.ndarray, runs: int, labels):
    tails = [f",{label}," for label in labels]
    for row, values in enumerate(per_run):
        s, r = divmod(row, runs)
        head = f"{s},{r}"
        # `tolist` gives Python floats, whose repr is `fmt`'s text; a numpy
        # scalar's repr is not (numpy 2 writes np.float64(...)).
        for tail, value in zip(tails, values.tolist()):
            yield f"{head}{tail}{value!r}"


def write_runs_csv(batch: BatchResult, file) -> None:
    """One row per (session, run, trader): session,run,agent_level,relative_return_pp."""
    _write_per_run_csv(file, ["session", "run", "agent_level", "relative_return_pp"], batch, batch.rel_returns,
                       batch.levels)


def write_efficiency_csv(batch: BatchResult, file) -> None:
    """Per-period net simple returns: session,run,period,net_simple_return."""
    if batch.period_returns is None:
        raise ValueError("batch was run without collect_period_returns")
    periods = range(1, batch.period_returns.shape[1] + 1)
    _write_per_run_csv(file, ["session", "run", "period", "net_simple_return"], batch, batch.period_returns,
                       periods)
