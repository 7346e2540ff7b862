import contextlib
import ctypes
import io
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infomarket import _kernel, engine, montecarlo, switching
from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import (
    SessionConfig,
    decide_random,
    default_market,
    market_with_levels,
    relative_returns,
    run_session,
)
from infomarket.montecarlo import (
    BatchConfig,
    default_jobs,
    parallel_map,
    run_batch,
    write_efficiency_csv,
    write_runs_csv,
)
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream
from infomarket.switching import SwitchingConfig, run_switching_ensemble


def tiny_session():
    return SessionConfig(
        agents=default_market(4),
        dividends=DividendParams(sigma=0.01),
        rates=RateParams(r_f=0.001, r_e=0.005),
        n_periods=5,
        steps_per_period=20,
    )


def tiny_batch(**kw):
    defaults = dict(session=tiny_session(), n_sessions=3, runs_per_session=4, master_seed=99)
    defaults.update(kw)
    return BatchConfig(**defaults)


def test_single_run_batch_equals_direct_call():
    cfg = tiny_batch(n_sessions=1, runs_per_session=1)
    batch = run_batch(cfg)
    path = generate_dividend_path(cfg.session.dividends, cfg.session.path_length, stream(99, PATH_DOMAIN, 0))
    direct = relative_returns(run_session(cfg.session, path, stream(99, RUN_DOMAIN, 0, 0)))
    assert np.array_equal(batch.rel_returns[0], direct)


def test_parallelism_does_not_change_results():
    a = run_batch(tiny_batch(jobs=1))
    b = run_batch(tiny_batch(jobs=4))
    assert np.array_equal(a.rel_returns, b.rel_returns)
    assert np.array_equal(a.asset_mean_returns, b.asset_mean_returns)


def test_sessions_share_path_runs_do_not_share_streams():
    batch = run_batch(tiny_batch())
    rel = batch.rel_returns
    # different runs of one session differ, and so do sessions
    assert not np.array_equal(rel[0], rel[1])
    assert not np.array_equal(rel[0], rel[4])


def test_seed_key_injectivity():
    keys = set()
    draws = set()
    for s in range(15):
        for r in range(15):
            key = (3, RUN_DOMAIN, s, r)
            assert key not in keys
            keys.add(key)
            draws.add(stream(*key).integers(0, 2**63).item())
    assert len(draws) == 225


def test_aggregates_match_raw_rows():
    batch = run_batch(tiny_batch())
    by_level = batch.samples_by_level()
    for i, lvl in enumerate(batch.levels):
        assert by_level[lvl].mean() == pytest.approx(batch.rel_returns[:, i].mean(), abs=1e-12)
    assert set(by_level) == {0, 1, 2, 3}
    assert len(by_level[0]) == batch.config.n_runs


def test_samples_by_level_pools_the_traders_that_share_a_level():
    session = replace(tiny_session(), agents=market_with_levels((0, 0, 4, 9)))
    batch = run_batch(tiny_batch(session=session, n_sessions=2, runs_per_session=3))
    by_level = batch.samples_by_level()
    rel = batch.rel_returns
    assert list(by_level) == [0, 4, 9]
    assert np.array_equal(by_level[0], np.concatenate([rel[:, 0], rel[:, 1]]))
    assert np.array_equal(by_level[4], rel[:, 2]) and np.array_equal(by_level[9], rel[:, 3])


def test_period_returns_collection():
    batch = run_batch(tiny_batch(collect_period_returns=True))
    assert batch.period_returns.shape == (12, 4)
    assert batch.asset_mean_returns == pytest.approx(batch.period_returns.mean(axis=1))


def test_runs_csv_layout():
    batch = run_batch(tiny_batch(n_sessions=2, runs_per_session=2))
    buf = io.StringIO()
    write_runs_csv(batch, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "session,run,agent_level,relative_return_pp"
    assert len(lines) == 1 + 2 * 2 * 4
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    last = lines[-1].split(",")
    assert last[:3] == ["1", "1", "3"]


def test_efficiency_csv_requires_collection():
    batch = run_batch(tiny_batch())
    with pytest.raises(ValueError):
        write_efficiency_csv(batch, io.StringIO())


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_batch(n_sessions=0)
    with pytest.raises(ValueError):
        tiny_batch(master_seed=-1)


def test_config_refuses_zero_opening_wealth():
    # Relative returns divide by the opening wealth: zero made every one NaN.
    with pytest.raises(ValueError, match="opening wealth"):
        tiny_batch(session=replace(tiny_session(), initial_cash=0.0, initial_shares=0))
    tiny_batch(session=replace(tiny_session(), initial_cash=0.0))
    tiny_batch(session=replace(tiny_session(), initial_shares=0))


# ---------------------------------------------------------------------------
# parallel_map's threads
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def deadline(seconds, handler=None):
    """SIGALRM after `seconds` runs `handler`, by default one that raises
    TimeoutError, so a hang fails the test instead of stalling it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, handler or expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def src_env():
    """This environment, with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def identity(item):
    return item


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
def test_default_jobs_counts_the_cpus_this_process_may_run_on():
    # Pinned to one CPU, a process gets one worker however many CPUs the
    # machine has (os.cpu_count() still counts them all).
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, "-c", f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
         "from infomarket.montecarlo import default_jobs; print(default_jobs(), os.cpu_count())"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    jobs, cpus = map(int, proc.stdout.split())
    assert jobs == 1 and cpus == os.cpu_count()
    assert default_jobs() == len(os.sched_getaffinity(0))


def test_parallel_map_returns_every_item_in_key_order():
    items = list(range(20_000))[::-1]
    with deadline(60):
        assert parallel_map(lambda i: i * 3, items, 2, key=lambda r: r) == [3 * i for i in range(20_000)]
    assert_no_child_process()


def test_parallel_map_shares_uneven_tasks_between_both_workers():
    def uneven(i):
        time.sleep(0.2 if i == 0 else 0.001)
        return i, threading.get_ident()

    with deadline(60):
        results = parallel_map(uneven, list(range(6)), 2, key=lambda r: r[0])
    assert [i for i, _ in results] == list(range(6))
    # Two threads run the shares, and the caller's thread runs neither.
    by_thread = {}
    for i, ident in results:
        by_thread.setdefault(ident, []).append(i)
    assert threading.get_ident() not in by_thread
    assert sorted(by_thread.values()) == [[0, 2, 4], [1, 3, 5]]
    assert_no_child_process()


def test_parallel_map_raises_a_task_error_with_its_own_type():
    def fail_on_three(i):
        if i == 3:
            raise ValueError(f"bad item {i}")
        return i

    with deadline(60), pytest.raises(ValueError, match="bad item 3"):
        parallel_map(fail_on_three, list(range(8)), 2, key=identity)
    assert_no_child_process()


def test_parallel_map_raises_ctrl_c_without_waiting_for_its_tasks():
    # SIGALRM runs Python's SIGINT handler in the main thread: a Ctrl-C that
    # arrives while the threads run their tasks.
    def hang(i):
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt), deadline(1, signal.default_int_handler):
        parallel_map(hang, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_child_process()


def test_parallel_map_raises_a_later_items_error_while_an_earlier_item_still_runs():
    # One thread's error reaches the caller while the other thread still
    # sleeps through its 60-s item: the caller raises at once and does not
    # wait for that item.
    def sleep_or_fail(i):
        if i == 1:
            raise ValueError("bad item 1")
        time.sleep(60)

    t0 = time.perf_counter()
    with deadline(30), pytest.raises(ValueError, match="bad item 1"):
        parallel_map(sleep_or_fail, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_child_process()


def test_parallel_map_raises_the_first_items_error_while_a_later_item_still_runs():
    def fail_or_hang(i):
        if i == 0:
            raise ValueError("bad item 0")
        time.sleep(60)

    t0 = time.perf_counter()
    with deadline(30), pytest.raises(ValueError, match="bad item 0"):
        parallel_map(fail_or_hang, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_child_process()


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one of its two parameters."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_parallel_map_reports_a_task_error_pickle_cannot_rebuild():
    # Nothing is pickled: the task's own exception is raised.
    def fail(i):
        if i == 1:
            raise TwoArgError("bad", 2)
        return i

    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(TwoArgError("bad", 2)))
    with deadline(60), pytest.raises(TwoArgError, match="bad") as raised:
        parallel_map(fail, [0, 1], 2, key=identity)
    assert raised.value.code == 2
    assert_no_child_process()


def test_parallel_map_runs_more_than_one_job_off_the_main_thread():
    returned = []

    def run():
        returned.append(parallel_map(lambda i: (i, threading.get_ident()), [1, 0, 3, 2], 2, key=identity))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and len(returned) == 1
    assert [i for i, _ in returned[0]] == [0, 1, 2, 3]
    assert thread.ident not in {ident for _, ident in returned[0]}
    assert_no_child_process()


def test_parallel_map_without_the_kernel_starts_no_thread(monkeypatch):
    # The Python loop holds the GIL, so every block and chain of a batch or
    # an ensemble that would run it runs in the calling thread at any jobs:
    # where no kernel resolves, and where a rule is wrapped while the kernel
    # loads. Share threads kept from earlier calls may wait idle, so the
    # proof is the thread each task ran on.
    caller, ran_on = threading.get_ident(), []

    def recorded(task):
        def run(item):
            ran_on.append(threading.get_ident())
            return task(item)
        return run

    def wrapped(*args):
        return decide_random(*args)

    chains = SwitchingConfig(n_traders=3, n_periods=30, interval=5, steps_per_period=10)
    for python_loop in ("no kernel", "wrapped rule"):
        with monkeypatch.context() as m:
            if python_loop == "no kernel":
                m.setattr(_kernel, "_resolved", (None, "no kernel"))
            else:
                _kernel.resolve()  # loads wherever it can; the wrapped rule still decides
                m.setattr(engine, "decide_random", wrapped)
            m.setattr(montecarlo, "_run_session_block", recorded(montecarlo._run_session_block))
            m.setattr(switching, "_one_switching_run", recorded(switching._one_switching_run))
            for jobs in (2, 3):
                ran_on.clear()
                assert run_batch(tiny_batch(jobs=jobs)).rel_returns.shape == (12, 4)
                assert len(run_switching_ensemble(chains, (1, 4, 8), 5, jobs=jobs)) == 3
                # one block for the whole batch, then the three chains
                assert ran_on == [caller] * 4, python_loop


def sched_getcpu():
    """The C library's `sched_getcpu`, or None where it has none."""
    try:
        return ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None


def test_parallel_map_starts_each_share_on_its_own_cpu():
    # Share j starts on the j-th CPU of the caller's mask. Left to the OS, a
    # woken share thread starts on its waker's CPU, and two shares took
    # turns on the caller's CPU while the other CPU sat idle.
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity: this OS cannot place a thread")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on one CPU only")
    getcpu = sched_getcpu()
    if getcpu is None:
        pytest.skip("no sched_getcpu in the C library")
    with deadline(60):
        started_on = parallel_map(lambda i: (i, getcpu()), [0, 1], 2, key=identity)
    assert [cpu for _, cpu in started_on] == sorted(os.sched_getaffinity(0))[:2]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
def test_parallel_map_leaves_every_mask_as_the_caller_had_it():
    # The caller's mask, and every share thread's after its share, are the
    # mask the caller had; a caller on a narrower mask keeps its shares on it.
    before = os.sched_getaffinity(0)
    with deadline(60):
        tids = parallel_map(lambda i: threading.get_native_id(), [0, 1, 2, 3], 2, key=identity)
    assert os.sched_getaffinity(0) == before
    assert len(set(tids)) == 2
    for tid in set(tids):
        assert os.sched_getaffinity(tid) == before, tid

    cpu, returned = max(before), []

    def narrowed():
        os.sched_setaffinity(0, {cpu})
        returned.append(parallel_map(lambda i: os.sched_getaffinity(0), [0, 1], 2, key=len))

    thread = threading.Thread(target=narrowed)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and returned == [[{cpu}, {cpu}]]
    assert os.sched_getaffinity(0) == before


def test_a_second_parallel_map_starts_no_thread(monkeypatch):
    # The share threads of one call wait idle for the next.
    def refuse(*args, **kwargs):
        pytest.fail("a share thread started although two were idle")

    with deadline(60):
        assert parallel_map(identity, [3, 2, 1, 0], 2, key=identity) == [0, 1, 2, 3]
        monkeypatch.setattr(threading, "Thread", refuse)
        assert parallel_map(identity, [3, 2, 1, 0], 2, key=identity) == [0, 1, 2, 3]


def test_a_share_thread_still_in_an_earlier_task_does_not_delay_the_next_call():
    # An earlier call left one share thread in a 60-s task: the next call
    # takes another thread instead of waiting for it.
    def sleep_or_fail(i):
        if i == 1:
            raise ValueError("bad item 1")
        time.sleep(60)

    with deadline(30), pytest.raises(ValueError, match="bad item 1"):
        parallel_map(sleep_or_fail, [0, 1], 2, key=identity)
    t0 = time.perf_counter()
    with deadline(30):
        assert parallel_map(identity, [3, 2, 1, 0], 2, key=identity) == [0, 1, 2, 3]
    assert time.perf_counter() - t0 < 10


def test_parallel_map_from_several_callers_at_once_lists_each_idle_thread_once():
    # Four callers at once, each with three shares per call, more threads
    # than CPUs, and a thread switch every microsecond: every call gets all
    # its items back, and no idle share thread is listed twice (two calls
    # would then queue their shares on one thread). A share this short may
    # end before its call has handed out the next one, whose thread it can
    # then be again.
    def call(errors):
        try:
            for _ in range(30):
                assert parallel_map(lambda i: i * 3, list(range(6)), 3, key=identity) == list(range(0, 18, 3))
        except BaseException as exc:
            errors.append(exc)

    interval, errors = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(errors,)) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and errors == []
    assert len({id(inbox) for inbox in montecarlo._idle}) == len(montecarlo._idle)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_a_forked_child_runs_its_shares_on_threads_of_its_own():
    # A forked child has none of its parent's idle share threads: shares
    # handed to their inboxes would never run, and the child would hang.
    with deadline(60):
        parallel_map(identity, [0, 1], 2, key=identity)  # leaves two idle share threads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() in a process with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if parallel_map(identity, [3, 2, 1, 0], 2, key=identity) == [0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    end = time.monotonic() + 30
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < end:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's parallel_map still ran after 30 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert_no_child_process()


def test_a_command_on_threads_prints_its_buffered_lines_once(tmp_path):
    # The command prints its two lines before the chains run; stdout is a
    # pipe and PYTHONUNBUFFERED is unset, so they are still buffered when
    # the worker threads start, and each line must still appear once.
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "infomarket.cli", "markov", "--preset", "markov3", "--periods", "30",
         "--steps", "20", "--jobs", "2", "--out", str(tmp_path / "m")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("infomarket markov -> ") for line in lines) == 1
    assert sum(line.startswith("{") and '"jobs": 2' in line for line in lines) == 1
