import contextlib
import io
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import SessionConfig, default_market, market_with_levels, relative_returns, run_session
from infomarket.montecarlo import (
    BatchConfig,
    default_jobs,
    parallel_map,
    run_batch,
    write_efficiency_csv,
    write_runs_csv,
)
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream


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
# parallel_map's forked workers
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


def assert_no_worker_left():
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
    assert_no_worker_left()


def test_parallel_map_shares_uneven_tasks_between_both_workers():
    def uneven(i):
        time.sleep(0.2 if i == 0 else 0.001)
        return i, os.getpid()

    with deadline(60):
        results = parallel_map(uneven, list(range(6)), 2, key=lambda r: r[0])
    assert [i for i, _ in results] == list(range(6))
    # The parent runs share 0 itself; the one forked worker runs share 1.
    by_pid = {}
    for i, pid in results:
        by_pid.setdefault(pid, []).append(i)
    worker = next(pid for pid in by_pid if pid != os.getpid())
    assert by_pid == {os.getpid(): [0, 2, 4], worker: [1, 3, 5]}
    assert_no_worker_left()


def test_parallel_map_raises_a_task_error_with_its_own_type():
    def fail_on_three(i):
        if i == 3:
            raise ValueError(f"bad item {i}")
        return i

    with deadline(60), pytest.raises(ValueError, match="bad item 3"):
        parallel_map(fail_on_three, list(range(8)), 2, key=identity)
    assert_no_worker_left()


@pytest.mark.parametrize("die, reason", [
    (lambda: os._exit(7), "exit status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
], ids=["exit", "signal"])
def test_parallel_map_reports_a_worker_that_dies_and_kills_the_rest(die, reason):
    def die_or_hang(i):
        if i == 1:
            die()
        time.sleep(60)

    t0 = time.perf_counter()
    with deadline(30), pytest.raises(RuntimeError, match=reason):
        parallel_map(die_or_hang, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_worker_left()


def test_parallel_map_kills_its_workers_on_ctrl_c():
    # SIGALRM runs Python's SIGINT handler in the parent only: a Ctrl-C that
    # reaches the parent while its workers run.
    def hang(i):
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt), deadline(1, signal.default_int_handler):
        parallel_map(hang, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_worker_left()


def test_parallel_map_raises_a_worker_task_error_while_the_parent_runs_its_share():
    # The worker exits with status 1 after sending its error, and the
    # parent's SIGCHLD handler ends the parent's own 60-s item at once.
    def sleep_or_fail(i):
        if i == 1:
            raise ValueError("bad item 1")
        time.sleep(60)

    t0 = time.perf_counter()
    with deadline(30), pytest.raises(ValueError, match="bad item 1"):
        parallel_map(sleep_or_fail, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_worker_left()


def test_parallel_map_kills_its_workers_when_the_parents_own_task_fails():
    def fail_or_hang(i):
        if i == 0:
            raise ValueError("bad item 0")
        time.sleep(60)

    t0 = time.perf_counter()
    with deadline(30), pytest.raises(ValueError, match="bad item 0"):
        parallel_map(fail_or_hang, [0, 1], 2, key=identity)
    assert time.perf_counter() - t0 < 10
    assert_no_worker_left()


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one of its two parameters."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_parallel_map_reports_a_task_error_pickle_cannot_rebuild():
    def fail(i):
        if i == 1:
            raise TwoArgError("bad", 2)
        return i

    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(TwoArgError("bad", 2)))
    with deadline(60), pytest.raises(RuntimeError, match=r"task raised TwoArgError\('bad'\)"):
        parallel_map(fail, [0, 1], 2, key=identity)
    assert_no_worker_left()


def _succeed(i):
    return i


def _fail_in_the_worker(i):
    if i == 1:
        raise ValueError("bad item 1")
    return i


def _die_in_the_worker(i):
    if i == 1:
        os._exit(7)
    time.sleep(60)


def _hang(i):
    time.sleep(60)


@pytest.mark.parametrize("task, raised, alarm", [
    (_succeed, None, None),
    (_fail_in_the_worker, ValueError, None),
    (_die_in_the_worker, RuntimeError, None),
    (_hang, KeyboardInterrupt, signal.default_int_handler),
], ids=["success", "task-error", "dead-worker", "ctrl-c"])
def test_parallel_map_restores_the_sigchld_handler(task, raised, alarm):
    def previous(signum, frame):
        pass

    original = signal.signal(signal.SIGCHLD, previous)
    try:
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            with deadline(1, alarm) if alarm else deadline(30):
                assert parallel_map(task, [0, 1, 2, 3], 2, key=identity) == [0, 1, 2, 3]
        assert signal.getsignal(signal.SIGCHLD) is previous
    finally:
        signal.signal(signal.SIGCHLD, original)
    assert_no_worker_left()


def test_parallel_map_refuses_more_than_one_job_off_the_main_thread(monkeypatch):
    forks = []

    def refuse_fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse_fork)
    raised = []

    def run():
        try:
            parallel_map(identity, [0, 1], 2, key=identity)
        except RuntimeError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(60)
    assert len(raised) == 1 and "main thread" in str(raised[0])
    assert not forks
    assert_no_worker_left()


def test_forked_workers_do_not_repeat_buffered_output(tmp_path):
    # The command prints its two lines before the chains run; stdout is a
    # pipe and PYTHONUNBUFFERED is unset, so they are still buffered when
    # the workers are forked.
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
