"""Batch orchestration: sessions x runs with deterministic seeding.

A session is a group of runs sharing one dividend path. Every stream is
derived from (master_seed, domain, session[, run]) keys, so the batch
decomposes into independent tasks whose results do not depend on worker
count or scheduling order.

A task is one share of the batch, `_run_session_block`: share j of `jobs`
runs sessions j, j + jobs, ... and writes their runs' final wealth and
closing prices, and their dividend walks, into arrays that span the whole
batch, from which `run_batch` computes every return once. A share runs in
one of two forms with the same bits and the same final generator states.
The Python block is the specification: per session it derives the streams
with `rng.stream`, draws the path and runs `run_session` per run (each
session picks its own kernel), and every run shares the present-value table
cached on the path. The compiled block is one call of `_kernel.c`'s
`im_run_block` for the whole share, on one session state laid out once: it
seeds every generator itself, as `rng.stream` does, then per session draws
the path, fills the table once and runs every run. A share takes it where
the compiled kernel loads and no name in `BLOCK_SPEC` is patched.
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

    With more than one job (jobs None: `default_jobs()`, never more than
    there are items), share j takes items j, j + jobs, ... and runs on a
    share thread of its own, which starts it on the j-th CPU of the
    caller's affinity mask; share threads are kept for the life of the
    process (see `_on_threads`). A caller whose tasks hold the GIL passes
    one job, and every item then runs in the calling thread.
    """
    jobs = jobs if jobs is not None else default_jobs()
    jobs = max(1, min(jobs, len(items)))
    results = [task(item) for item in items] if jobs == 1 else _on_threads(task, items, jobs)
    results.sort(key=key)
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


def _on_threads(task, items, jobs: int) -> list:
    """Every share's results, each share on a share thread; see `parallel_map`.

    A call takes an idle share thread per share, or starts one where none
    is idle; the thread is idle again as soon as its share ends, before it
    replies. Share j first moves its thread to the j-th CPU of the mask the
    caller runs under (on Linux, `sched_setaffinity(0, ...)` acts on the
    calling thread alone), then restores that mask: a woken thread starts
    on its waker's CPU, where two shares would take turns while another CPU
    sat idle.

    The first task error to arrive is raised here as it is, and every share
    stops at its next item; a task still running then finishes in the
    background, and its thread is idle again after it.
    """
    replies = queue.SimpleQueue()  # one (ok, results | exception) per share
    stop = threading.Event()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def share(j, inbox):
        try:
            _place(cpus, j)
            done = []
            for item in items[j::jobs]:
                if stop.is_set():
                    break
                done.append(task(item))
            reply = (True, done)
        except BaseException as exc:
            reply = (False, exc)
        with _idle_lock:
            _idle.append(inbox)
        replies.put(reply)

    results = []
    try:
        for j in range(jobs):
            inbox = _idle_inbox()
            inbox.put(functools.partial(share, j, inbox))
        for _ in range(jobs):
            ok, payload = replies.get()
            if not ok:
                raise payload
            results += payload
    finally:
        stop.set()
    return results


# The names the Python block calls besides a session's rules and book. The
# compiled block runs all of them in C, so a block with any of them patched
# (a tracer or a test) runs the Python block.
BLOCK_SPEC = (*SESSION_SPEC, *held(globals(), "generate_dividend_path", "run_session", "stream"),
              *held(vars(engine), "conditional_present_value"))


@dataclass(frozen=True)
class Share:
    """One job of a batch: the sessions it runs (share j of `jobs` takes
    sessions j, j + jobs, ...) and the batch-wide arrays it writes their
    rows of. Row s * runs + r of `wealth` (n_runs x traders) and `closes`
    (n_runs x periods) is run r of session s; row s of `walks` (n_sessions x
    path length) is session s's dividend walk. `states`, where given
    (n_sessions x (runs + 1) x 6 uint64), takes each generator's final state
    as `_kernel.pcg64_words` gives it, the walk's first."""

    master: int
    sessions: range
    session: SessionConfig
    runs: int
    wealth: np.ndarray
    closes: np.ndarray
    walks: np.ndarray
    states: np.ndarray | None = None


def _run_session_block(share: Share) -> range:
    """Run every session of a share, and return its sessions.

    Each session's walk and each of its runs draw from their own streams,
    `stream(master, PATH_DOMAIN, s)` and `stream(master, RUN_DOMAIN, s, r)`.
    Where the compiled kernel loads and nothing in `BLOCK_SPEC` is patched,
    `_kernel.c`'s `im_run_block` runs the whole share in one call, seeding
    those streams itself; the Python block, a loop over the sessions that
    runs `run_session` per run, is its specification.
    """
    cfg, runs = share.session, share.runs
    lib = compiled_kernel(BLOCK_SPEC)
    if lib is None:
        for s in share.sessions:
            path_rng = stream(share.master, PATH_DOMAIN, s)
            rngs = [stream(share.master, RUN_DOMAIN, s, r) for r in range(runs)]
            path = generate_dividend_path(cfg.dividends, cfg.path_length, path_rng)
            share.walks[s] = path.values
            for r, rng in enumerate(rngs):
                result = run_session(cfg, path, rng)
                share.wealth[s * runs + r] = result.final_wealth()
                share.closes[s * runs + r] = result.period_end_prices
            if share.states is not None:
                share.states[s] = [_kernel.pcg64_words(g) for g in (path_rng, *rngs)]
        return share.sessions
    master = _kernel.key_words(share.master)
    sessions = np.array(share.sessions, np.int64)
    powers = np.empty(cfg.max_level)
    block = _kernel.Block(
        runs=runs, periods=cfg.n_periods, path_length=cfg.path_length, top=cfg.max_level,
        d0=cfg.dividends.d0, sigma=cfg.dividends.sigma, r_e=cfg.rates.r_e,
        initial_cash=cfg.initial_cash, initial_shares=cfg.initial_shares, initial_price=cfg.initial_price,
        master=master.ctypes.data, n_master=len(master), path_domain=PATH_DOMAIN, run_domain=RUN_DOMAIN,
        sessions=sessions.ctypes.data, n_sessions=len(sessions), powers=powers.ctypes.data,
        walks=share.walks.ctypes.data, wealth=share.wealth.ctypes.data, closes=share.closes.ctypes.data,
        states=None if share.states is None else share.states.ctypes.data)
    arena = lay_out_state(cfg)["_arena"]
    if lib.im_run_block(arena.ctypes.data, block):
        raise RuntimeError("order book capacity exceeded")
    return share.sessions


def batch_shares(config: BatchConfig, jobs: int) -> list[Share]:
    """`jobs` shares of `config`'s sessions, share j taking sessions j,
    j + jobs, ..., over one set of new batch-wide arrays."""
    cfg = config.session
    wealth = np.empty((config.n_runs, len(cfg.agents)))
    closes = np.empty((config.n_runs, cfg.n_periods))
    walks = np.empty((config.n_sessions, cfg.path_length))
    return [Share(config.master_seed, range(j, config.n_sessions, jobs), cfg, config.runs_per_session,
                  wealth, closes, walks) for j in range(jobs)]


def run_batch(config: BatchConfig) -> BatchResult:
    """Run the full batch; identical output for any worker count."""
    cfg, runs = config.session, config.runs_per_session
    # A compiled share's one kernel call releases the GIL; the Python loop holds it, so it runs on one thread.
    jobs = 1 if compiled_kernel(BLOCK_SPEC) is None else default_jobs() if config.jobs is None else config.jobs
    shares = batch_shares(config, max(1, min(jobs, config.n_sessions)))
    parallel_map(_run_session_block, shares, len(shares), key=lambda sessions: sessions.start)
    wealth, closes, walks = shares[0].wealth, shares[0].closes, shares[0].walks
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
