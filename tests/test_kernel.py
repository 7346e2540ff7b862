"""The compiled kernel against the Python loop, and how a block or an
ensemble picks its kernel.

The Python loop (`draw_period`, then `MarketSession._trade_period`) is the
specification: on the same inputs the compiled kernel must leave every
array bit for bit equal, and every generator in the same state. The kernel
runs only the shares of batches (`im_run_block`, which `first_run` uses for
a one-run batch) and of ensembles (`im_run_chains`); a `MarketSession`
always runs the Python loop. Both run on states laid out by
`engine.lay_out_state`.

Tests that need a loaded kernel skip, with the reason, where this process
cannot resolve one; the tests that build into a fresh cache skip only
where a build cannot even start (no gcc), so a broken `_kernel.c` fails
them.
"""

import ctypes
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import threading
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket import _kernel, cli, engine, montecarlo, switching
from infomarket.agents import decide_random
from infomarket.csvout import _LINES_PER_WRITE
from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import MarketSession, SessionConfig, default_market, market_with_levels
from infomarket.montecarlo import BLOCK_SPEC, BatchConfig, run_batch, write_runs_csv
from infomarket.orderbook import Book
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, SWITCH_DOMAIN, stream
from infomarket.switching import (
    ENSEMBLE_SPEC,
    SwitchingConfig,
    run_switching_ensemble,
    run_switching_sim,
    write_states_csv,
)


def require_kernel():
    """Skip the test, with the reason, where this process resolves no kernel."""
    if _kernel.resolve() is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")


@pytest.fixture(scope="module")
def loaded_kernel():
    require_kernel()


needs_kernel = pytest.mark.usefixtures("loaded_kernel")
needs_toolchain = pytest.mark.skipif(_kernel.find_compiler() is None, reason="cannot build the kernel without gcc")

SERIES = ("prices", "trade_steps", "trade_prices", "trade_buyers", "trade_sellers",
          "cash_hist", "shares_hist", "period_end_prices")


@contextmanager
def python_loop():
    """Blocks and ensembles started inside run the Python loop, as in a
    process whose kernel resolved to nothing."""
    with mock.patch.object(_kernel, "_resolved", (None, "the Python loop, the specification")):
        yield


class Unusable:
    """A loaded kernel that fails the test on any use."""

    def __getattr__(self, name):
        pytest.fail(f"used the kernel's {name}")


class Counted:
    """The loaded kernel `lib`, appending the name of each function called to `calls`."""

    def __init__(self, lib, calls):
        self.lib, self.calls = lib, calls

    def __getattr__(self, name):
        function = getattr(self.lib, name)

        def counted(*args):
            self.calls.append(name)
            return function(*args)

        return counted


def config(**kw):
    defaults = dict(
        agents=default_market(4),
        dividends=DividendParams(sigma=0.01),
        rates=RateParams(r_f=0.001, r_e=0.005),
        n_periods=6,
        steps_per_period=30,
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


@contextmanager
def recorded_states():
    """The states that the runs started inside lay out, in order: each
    Python-loop `MarketSession` itself, and each compiled block's state."""
    states, lay_out = [], montecarlo.lay_out_state

    class Recorded(MarketSession):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    def recorded(session):
        state = lay_out(session)
        states.append(state)
        return state

    with mock.patch.object(engine, "MarketSession", Recorded), mock.patch.object(montecarlo, "lay_out_state", recorded):
        yield states


def ending(state):
    """What a run leaves besides its series: every order on each side of its
    book as (price, seq, trader), best first, its last price, its periods,
    its cash and shares and their holds. `state` is a Python-loop
    `MarketSession`, whose `Book` heaps are sorted, or a compiled block's
    state, whose sides are read from their last slot down."""
    if isinstance(state, MarketSession):
        book, state = state.book, vars(state)
        asks, bids = sorted(book._asks), [(-price, seq, trader) for price, seq, trader in sorted(book._bids)]
    else:
        header = state["_session"]
        asks, bids = state["_asks"][:header.n_asks][::-1].tolist(), state["_bids"][:header.n_bids][::-1].tolist()
    header = state["_session"]
    return (asks, bids, header.last_price, header.periods_done,
            *(state[name].tolist() for name in ("cash", "shares", "_held_cash", "_held_shares")))


def first(cfg, seed, python=False):
    """Run 0 of session 0 of a batch of `cfg` from master seed `seed`, as
    `first_run` runs it: its result, the final state words of its walk's and
    its run's generators (through `Share.states`), its ending, whether it
    ran compiled, and the state it ran on. The compiled block runs it where
    the kernel is available unless `python` is set."""
    share = replace(montecarlo._new_share(cfg, seed, 1, 1), states=np.zeros((1, 2, 6), np.uint64))
    with python_loop() if python else nullcontext(), recorded_states() as states:
        result = montecarlo._first_run(share)
    (state,) = states
    return result, share.states.tolist(), ending(state), not isinstance(state, MarketSession), state


def assert_same_session(a, b):
    (ra, states_a, end_a), (rb, states_b, end_b) = a[:3], b[:3]
    for name in SERIES:
        x, y = getattr(ra, name), getattr(rb, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert ra.path.values == rb.path.values
    assert states_a == states_b
    assert end_a == end_b


@st.composite
def strategy_mixes(draw):
    """1-10 traders: some uninformed, the rest on distinct levels, any of them chartists."""
    n = draw(st.integers(1, 10))
    n_random = draw(st.integers(0, n))
    informed = draw(st.lists(st.integers(1, 12), min_size=n - n_random, max_size=n - n_random, unique=True))
    chartists = draw(st.lists(st.sampled_from(informed), unique=True)) if informed else []
    levels = draw(st.permutations([0] * n_random + informed))
    return market_with_levels(levels, tuple(chartists))


@needs_kernel
@given(agents=strategy_mixes(), clear=st.booleans(), seed=st.integers(0, 2**32 - 1),
       cash=st.floats(0.0, 300.0), shares=st.integers(0, 6), steps=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_compiled_kernel_matches_the_python_loop(agents, clear, seed, cash, shares, steps):
    # Small endowments make the no-credit and no-short checks bind.
    cfg = config(agents=agents, n_periods=5, steps_per_period=steps, clear_book_each_period=clear,
                 initial_cash=cash, initial_shares=shares)
    spec, fast = first(cfg, seed, python=True), first(cfg, seed)
    assert not spec[3] and fast[3]
    assert_same_session(spec, fast)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_first_run_takes_a_session_of_zero_opening_wealth(kernel):
    # `run_session` takes it, and so does `first_run`: only a batch's
    # relative returns divide by the opening wealth, so `first_run` does not
    # go through `BatchConfig`'s check. Nobody can afford an order.
    if kernel == "compiled":
        require_kernel()
    cfg = config(initial_cash=0.0, initial_shares=0)
    with pytest.raises(ValueError, match="positive opening wealth"):
        BatchConfig(session=cfg)
    with python_loop() if kernel == "python" else nullcontext(), recorded_states() as states:
        result = montecarlo.first_run(cfg, 2)
    assert isinstance(states[0], MarketSession) is (kernel == "python")
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(2, PATH_DOMAIN, 0))
    spec = engine.run_session(cfg, path, stream(2, RUN_DOMAIN, 0, 0))
    for name in SERIES:
        assert np.array_equal(getattr(result, name), getattr(spec, name)), name
    assert result.trade_prices.size == 0 and not result.cash_hist.any() and not result.shares_hist.any()


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("params, name, value", [(DividendParams, "d0", -0.5), (DividendParams, "d0", float("nan")),
                                                 (DividendParams, "sigma", float("nan")),
                                                 (RateParams, "r_f", float("nan")), (RateParams, "r_e", float("nan"))],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_a_walk_or_rate_out_of_range_is_refused_before_any_run(monkeypatch, kernel, params, name, value):
    # The compiled block draws the walk in C and makes no `DividendPath`,
    # whose check on the drawn dividends is the Python block's alone: a
    # negative start would run compiled and raise in Python, and a NaN
    # would run in both. The parameters refuse them, before `run_batch` or
    # `first_run` starts a run under either kernel.
    assert_refused_before_any_run(monkeypatch, kernel, name, lambda: config(
        **{"dividends" if params is DividendParams else "rates": params(**{name: value})}))


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("name, value", [("initial_price", float("nan")), ("initial_price", float("inf")),
                                         ("initial_cash", float("nan")), ("initial_cash", float("inf"))])
def test_a_nan_or_infinite_opening_price_or_cash_is_refused_before_any_run(monkeypatch, kernel, name, value):
    # Every comparison with NaN is false, so `x <= 0` let a NaN price run a
    # zero-trade session of NaN marks under both kernels, and a batch ran to
    # its end before `jcurve_table` refused its NaN returns.
    assert_refused_before_any_run(monkeypatch, kernel, name, lambda: config(**{name: value}))


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("name, value", [("initial_shares", 1.5), ("n_periods", 3.5), ("steps_per_period", 10.5),
                                         ("n_periods", "6")])
def test_a_non_integer_share_count_or_session_size_is_refused_before_any_run(monkeypatch, kernel, name, value):
    # A float that passed the range checks reached the first run, where both
    # kernels raised a bare TypeError from laying out the session's state.
    assert_refused_before_any_run(monkeypatch, kernel, name, lambda: config(**{name: value}))


@pytest.mark.parametrize("name, value", [("n_sessions", 2.5), ("runs_per_session", 2.5), ("master_seed", 1.5)])
def test_a_non_integer_batch_size_or_master_seed_is_refused_at_construction(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        BatchConfig(session=config(), **{name: value})
    # Integers of any kind are taken, as `operator.index` takes them.
    assert getattr(BatchConfig(session=config(), **{name: np.int64(2)}), name) == 2


def assert_refused_before_any_run(monkeypatch, kernel, name, session):
    """`run_batch` and `first_run` on `session()` raise the ValueError that
    names `name`, under `kernel`, before either starts a run."""
    if kernel == "compiled":
        require_kernel()
        monkeypatch.setattr(_kernel, "_resolved", (NoTrading(_kernel.resolve(), "a refused config"), None))
    else:
        monkeypatch.setattr(_kernel, "_resolved", (None, "the Python loop, the specification"))
        monkeypatch.setattr(montecarlo, "run_session", lambda *args: pytest.fail("a refused config ran"))
    with pytest.raises(ValueError, match=f"{name} must be"):
        run_batch(BatchConfig(session=session(), n_sessions=2, runs_per_session=2, jobs=2))
    with pytest.raises(ValueError, match=f"{name} must be"):
        montecarlo.first_run(session(), 0)


@needs_kernel
@pytest.mark.parametrize("clear", [True, False])
def test_reference_market_sessions_match(clear):
    cfg = SessionConfig(clear_book_each_period=clear)
    for seed in range(3):
        assert_same_session(first(cfg, seed, python=True), first(cfg, seed))


# The reference market's levels with every informed trader on the trend
# rule, rich enough that no check binds, and no clearing: its book ends with
# thousands of resting orders, so every new order lands on a deep side.
DEEP_BOOK = SessionConfig(agents=market_with_levels(tuple(range(10)), chartist_levels=tuple(range(1, 10))),
                          clear_book_each_period=False, initial_cash=1e6, initial_shares=1000)


@needs_kernel
def test_a_deep_book_session_matches():
    spec, fast = first(DEEP_BOOK, 3, python=True), first(DEEP_BOOK, 3)
    assert not spec[3] and fast[3]
    assert_same_session(spec, fast)
    asks, bids = spec[2][:2]  # the ending's resting orders
    assert len(asks) + len(bids) > 2000


@needs_kernel
@pytest.mark.parametrize("command", ["simulate", "stats"])
def test_simulate_and_stats_make_one_kernel_call(monkeypatch, tmp_path, command):
    # The command's one run is a one-run share: one `im_run_block` call and
    # nothing else of the kernel, no `MarketSession`, and the Python loop's
    # bytes.
    argv = [command, "--seed", "3", "--periods", "4", "--steps", "40"]
    with python_loop():
        assert cli.main([*argv, "--out", str(tmp_path / "python")]) == 0
    calls = []

    def refuse(*args):
        pytest.fail(f"a compiled {command} constructed a MarketSession")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(_kernel.resolve(), calls), None))
    monkeypatch.setattr(MarketSession, "__init__", refuse)
    assert cli.main([*argv, "--out", str(tmp_path / "c")]) == 0
    assert calls == ["im_run_block"]
    written = sorted(path.name for path in (tmp_path / "python").iterdir())
    assert sorted(path.name for path in (tmp_path / "c").iterdir()) == written
    for name in written:
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "python" / name).read_bytes(), name


@needs_kernel
def test_switching_chains_match():
    # The kernel serves switching too: strategies flip and endowments reset
    # between its periods.
    cfg = SwitchingConfig(n_traders=4, n_periods=90, steps_per_period=20)
    assert chain(cfg, 3, 5) == chain(cfg, 3, 5, python=True)


def chain(cfg, code, seed, python=False):
    """A whole switching chain on `stream(seed, SWITCH_DOMAIN, code)`: its
    codes, tie counts and generator's final state words. The compiled chain,
    a share of one chain, runs unless `python` is set."""
    return chain_share(cfg, [code], seed, 1, python)[0]


@st.composite
def chains(draw):
    """1-8 traders, an interval dividing the 30-period segment, a run of up
    to three segments that the interval divides (the last segment may be
    short), 1-40 steps, and any initial profile."""
    n = draw(st.integers(1, 8))
    interval = draw(st.sampled_from((1, 2, 3, 5, 6, 10, 15, 30)))
    periods = interval * draw(st.integers(1, 90 // interval))
    cfg = SwitchingConfig(n_traders=n, n_periods=periods, interval=interval, steps_per_period=draw(st.integers(1, 40)))
    return cfg, draw(st.integers(1, 1 << n))


@needs_kernel
@given(run=chains(), seed=st.integers(0, 2**32 - 1))
@example(run=(SwitchingConfig(n_traders=8, n_periods=60, interval=5, steps_per_period=40), 200), seed=3)
@example(run=(SwitchingConfig(n_traders=8, n_periods=31, interval=1, steps_per_period=1), 256), seed=0)
@example(run=(SwitchingConfig(n_traders=5, n_periods=45, interval=5, steps_per_period=20), 9), seed=1)
@example(run=(SwitchingConfig(n_traders=1, n_periods=30, interval=30, steps_per_period=3), 2), seed=2)
@settings(max_examples=60, deadline=None)
def test_compiled_chain_matches_the_python_loop(run, seed):
    # Eight traders take numpy's pairwise order for the cross-trader mean;
    # a run that the segment does not divide ends on a short segment, which
    # draws a shorter dividend walk.
    cfg, code = run
    assert chain(cfg, code, seed) == chain(cfg, code, seed, python=True)


@needs_kernel
def test_a_compiled_chain_is_one_kernel_call(monkeypatch):
    # A one-chain ensemble seeds its generator in one call, and the chain's
    # segments, periods, evaluations and flips all run in one more, a share
    # of one chain, on a state laid out without a MarketSession.
    cfg = SwitchingConfig(n_traders=4, n_periods=75, interval=5, steps_per_period=20)
    with python_loop():
        spec = ensemble(cfg, [6], 4, 1)
    calls = []

    def refuse(*args):
        pytest.fail("a compiled chain constructed a MarketSession")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(_kernel.resolve(), calls), None))
    monkeypatch.setattr(MarketSession, "__init__", refuse)
    assert ensemble(cfg, [6], 4, 1) == spec
    assert calls == ["im_seed_pcg64", "im_run_chains"]


def ensemble(cfg, codes, seed, jobs):
    """A whole ensemble, as `run_switching_ensemble` returns it: each run's
    initial code, codes and tie counts."""
    return [(run.initial_code, run.codes.tolist(), run.tie_events, run.all_equal_events)
            for run in run_switching_ensemble(cfg, codes, seed, jobs=jobs)]


def chain_share(cfg, codes, seed, jobs, python=False):
    """The chains of an ensemble in the order of `codes`, chain c on
    `stream(seed, SWITCH_DOMAIN, c)`: each one's codes, tie counts and
    generator's final state words. The compiled form runs `jobs` shares of
    one `im_run_chains` call each, on generators seeded in C, as the
    ensemble runs them; the Python form runs `run_switching_sim` per chain."""
    if python:
        found = []
        for code in codes:
            rng = stream(seed, SWITCH_DOMAIN, code)
            run = run_switching_sim(cfg, code, rng)
            found.append((run.codes.tolist(), run.tie_events, run.all_equal_events, _kernel.pcg64_words(rng)))
        return found
    lib = _kernel.resolve()
    states = _kernel.seeded_states(lib, [(seed, SWITCH_DOMAIN, code) for code in codes])
    runs = switching._compiled_chains(lib, cfg, codes, states, jobs)
    return [(run.codes.tolist(), run.tie_events, run.all_equal_events, tuple(words))
            for run, words in zip(runs, states.tolist())]


@st.composite
def chain_shares(draw):
    """A chain as in `chains`, 1-20 steps, 2-5 distinct initial profiles in
    any order (both profiles of one trader), and 1-3 jobs."""
    n = draw(st.integers(1, 8))
    interval = draw(st.sampled_from((1, 2, 3, 5, 6, 10, 15, 30)))
    periods = interval * draw(st.integers(1, 90 // interval))
    cfg = SwitchingConfig(n_traders=n, n_periods=periods, interval=interval, steps_per_period=draw(st.integers(1, 20)))
    codes = draw(st.lists(st.integers(1, 1 << n), min_size=2, max_size=min(5, 1 << n), unique=True))
    return cfg, codes, draw(st.integers(1, 3))


@needs_kernel
@given(share=chain_shares(), seed=st.integers(0, 2**130))
@example(share=(SwitchingConfig(n_traders=8, n_periods=35, interval=5, steps_per_period=20), [200, 1, 256, 37, 2], 3),
         seed=3)
@example(share=(SwitchingConfig(n_traders=1, n_periods=31, interval=1, steps_per_period=2), [2, 1], 1), seed=0)
@example(share=(SwitchingConfig(n_traders=3, n_periods=60, interval=15, steps_per_period=5), [8, 1, 4], 2),
         seed=2**64 + 5)
@settings(max_examples=30, deadline=None)
def test_a_compiled_share_of_chains_matches_the_python_loop(share, seed):
    # Each chain of a share starts from its own profile, whatever the
    # profile of the chain before it left, on its own generator; a run that
    # the segment does not divide ends on a short segment. The ensemble
    # returns the same runs, sorted by initial code.
    cfg, codes, jobs = share
    spec = chain_share(cfg, codes, seed, jobs, python=True)
    assert chain_share(cfg, codes, seed, jobs) == spec
    assert ensemble(cfg, codes, seed, jobs) == sorted((code, *run[:3]) for code, run in zip(codes, spec))


def late_second_share(monkeypatch, entry):
    """Make share 1 of every jobs-2 batch or ensemble that follows wait in
    `_place` until share 0's call of the kernel's `entry` has returned; the
    items that each share's call ran, by share."""
    lib, place = _kernel.resolve(), montecarlo._place
    share_of, taken, share_0_done = {}, {}, threading.Event()

    def late(cpus, j):
        share_of[threading.get_ident()] = j
        if j == 1:
            assert share_0_done.wait(timeout=60)
        place(cpus, j)

    class Counting:
        def __getattr__(self, name):
            function = getattr(lib, name)

            def counted(*args):
                j = share_of[threading.get_ident()]
                taken[j] = function(*args)
                if j == 0:
                    share_0_done.set()
                return taken[j]

            return counted if name == entry else function

    monkeypatch.setattr(montecarlo, "_place", late)
    monkeypatch.setattr(_kernel, "_resolved", (Counting(), None))
    return taken


def assert_late_share_writes_the_jobs1_bytes(monkeypatch, tmp_path, argv, entry, items, outputs):
    """The command `argv` at jobs 2, its share 1 late (`late_second_share`):
    share 0 takes all `items` items and share 1 none, and each of `outputs`
    has the jobs-1 bytes."""
    assert cli.main([*argv, "--jobs", "1", "--out", str(tmp_path / "jobs1")]) == 0
    taken = late_second_share(monkeypatch, entry)
    assert cli.main([*argv, "--jobs", "2", "--out", str(tmp_path / "jobs2")]) == 0
    assert taken == {0: items, 1: 0}
    for name in outputs:
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes(), name


@needs_kernel
def test_a_share_that_starts_late_leaves_its_chains_to_the_other(monkeypatch, tmp_path):
    # The shares of a jobs-2 ensemble take their chains from one counter.
    # Share 1 waits in `_place` until share 0 has run, so share 0 takes
    # every chain and share 1 none; each runs exactly once (a chain run
    # twice would start again from the generator state it left, and write
    # other codes), and the command writes the jobs-1 bytes.
    argv = ["markov", "--preset", "markov3", "--seed", "4", "--periods", "60", "--steps", "20"]
    assert_late_share_writes_the_jobs1_bytes(monkeypatch, tmp_path, argv, "im_run_chains", 8,
                                             ("states.csv", "tmatrix.csv", "freqs.csv"))


@needs_kernel
def test_a_batch_share_that_starts_late_leaves_its_sessions_to_the_other(monkeypatch, tmp_path):
    # The batch twin: the shares of a jobs-2 batch take their sessions from
    # one counter, so share 0 runs all five sessions, each exactly once, and
    # the command writes the jobs-1 bytes.
    argv = ["batch", "--preset", "jcurve10", "--seed", "4", "--sessions", "5", "--runs", "3", "--periods", "4",
            "--steps", "20"]
    assert_late_share_writes_the_jobs1_bytes(monkeypatch, tmp_path, argv, "im_run_block", 5,
                                             ("runs.csv", "jcurve.csv", "pvalues.csv"))


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_an_ensemble_checks_every_code_before_any_chain_runs(monkeypatch, kernel):
    # The compiled share reads a code's bits unchecked, so a code outside
    # 1..n_states is refused before any share starts, under both kernels;
    # an empty ensemble runs nothing.
    if kernel == "compiled":
        require_kernel()
        lib = _kernel.resolve()

        class Refusing:
            def __getattr__(self, name):
                if name == "im_run_chains":
                    pytest.fail("a chain ran before every code was checked")
                return getattr(lib, name)

        monkeypatch.setattr(_kernel, "_resolved", (Refusing(), None))
    else:
        monkeypatch.setattr(_kernel, "_resolved", (None, "the Python loop, the specification"))
        monkeypatch.setattr(switching, "_one_switching_run",
                            lambda config, code, master: pytest.fail("a chain ran before every code was checked"))
    cfg = SwitchingConfig(n_traders=3, n_periods=30, interval=5, steps_per_period=10)
    for codes, refused in (((1, 9), 9), ((4, 0, 2), 0), ((-1,), -1)):
        with pytest.raises(ValueError, match=f"code {refused} outside 1..8"):
            run_switching_ensemble(cfg, codes, 3, jobs=2)
    with pytest.raises(ValueError, match="code 9 outside 1..8"):
        run_switching_sim(cfg, 9, stream(3, SWITCH_DOMAIN, 9))
    assert run_switching_ensemble(cfg, [], 3, jobs=2) == []


@needs_kernel
def test_a_negative_master_seed_is_refused_as_rng_stream_refuses_it():
    # The compiled ensemble seeds its generators in C from the key's words;
    # a negative component has none, and is refused as `stream` refuses it.
    cfg = SwitchingConfig(n_traders=2, n_periods=30, interval=5, steps_per_period=10)
    for kernel in (nullcontext(), python_loop()):
        with kernel, pytest.raises(ValueError, match=r"non-negative, got \(-1, 2, 3\)"):
            run_switching_ensemble(cfg, (3, 4), -1, jobs=2)


def spec_names(spec):
    """(owner, name) for each name of a spec: the module or class whose
    namespace holds it."""
    owners = (engine, montecarlo, switching, Book, MarketSession, SwitchingConfig)
    return [(next(owner for owner in owners if vars(owner) == namespace), name) for namespace, name, _ in spec]


def trace(monkeypatch, owner, name):
    """Patch `owner.name` with a wrapper that calls it; the names of its calls."""
    original, calls = getattr(owner, name), []

    def traced(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, traced)
    return calls


class NoTrading:
    """The loaded kernel, but a test failure on any entry point that trades."""

    def __init__(self, lib, why):
        self.lib, self.why = lib, why

    def __getattr__(self, attr):
        if attr.startswith("im_run_"):
            pytest.fail(f"{self.why} reached the kernel's {attr}")
        return getattr(self.lib, attr)


@needs_kernel
@pytest.mark.parametrize("owner, name", spec_names(ENSEMBLE_SPEC), ids=lambda x: getattr(x, "__name__", x))
def test_a_patched_name_sends_the_chain_to_the_python_loop(monkeypatch, owner, name):
    # An ensemble with any name of ENSEMBLE_SPEC patched runs its Python
    # loop, `run_switching_sim` per chain, which calls the patched name
    # (chains have no uninformed trader, so none calls the random rule); no
    # chain reaches the kernel, and the outputs do not change.
    cfg = SwitchingConfig(n_traders=3, n_periods=45, interval=5, steps_per_period=20)
    compiled = ensemble(cfg, (3, 8, 5), 8, 2)
    monkeypatch.setattr(_kernel, "_resolved", (NoTrading(_kernel.resolve(), f"an ensemble with {name} patched"),
                                               None))
    calls = trace(monkeypatch, owner, name)
    assert ensemble(cfg, (3, 8, 5), 8, 2) == compiled
    assert calls or name == "decide_random"


def block(cfg, runs, seed, python=False, n_sessions=4, jobs=2):
    """A batch of `n_sessions` sessions, as `run_batch` runs it at `jobs`:
    the batch-wide wealth, closes and walks it leaves, and the final state
    of each generator of its sessions, the walk's first. The compiled
    shares run where they are available unless `python` is set."""
    share = montecarlo._new_share(cfg, seed, n_sessions, runs)
    share = replace(share, states=np.zeros((n_sessions, runs + 1, 6), np.uint64))
    for output in (share.wealth, share.closes, share.walks):
        output.fill(np.nan)
    with python_loop() if python else nullcontext():
        montecarlo._run_sessions(share, jobs)
    return [(a.dtype, a.shape, a.tobytes()) for a in (share.wealth, share.closes, share.walks, share.states)]


@st.composite
def blocks(draw):
    """1-17 traders as in `strategy_mixes`, clearing on or off, 1-6 periods,
    1-12 steps, any dividend walk, discount rate, endowments and initial
    price with a positive opening wealth, 1-4 runs, and a batch of 1-5
    sessions on 1-3 jobs."""
    n = draw(st.integers(1, 17))
    n_random = draw(st.integers(0, n))
    informed = draw(st.lists(st.integers(1, 20), min_size=n - n_random, max_size=n - n_random, unique=True))
    chartists = draw(st.lists(st.sampled_from(informed), unique=True)) if informed else []
    levels = draw(st.permutations([0] * n_random + informed))
    dividends = DividendParams(d0=draw(st.floats(0.0, 5.0)), sigma=draw(st.floats(0.0, 1.0)))
    rates = RateParams(r_f=0.001, r_e=draw(st.floats(1e-4, 0.5)))
    cash = draw(st.floats(0.0, 2000.0))
    shares = draw(st.integers(0 if cash > 0 else 1, 60))
    cfg = config(agents=market_with_levels(levels, tuple(chartists)), n_periods=draw(st.integers(1, 6)),
                 steps_per_period=draw(st.integers(1, 12)), clear_book_each_period=draw(st.booleans()),
                 dividends=dividends, rates=rates, initial_cash=cash, initial_shares=shares,
                 initial_price=draw(st.floats(0.01, 200.0)))
    n_sessions = draw(st.integers(1, 5))
    return cfg, draw(st.integers(1, 4)), n_sessions, draw(st.integers(1, min(3, n_sessions)))


@needs_kernel
@given(shape=blocks(), seed=st.integers(0, 2**130))
@example(shape=(config(agents=default_market(17), n_periods=2, steps_per_period=12), 3, 1, 1), seed=0)
@example(shape=(config(agents=market_with_levels((0, 0, 0)), n_periods=1, steps_per_period=3), 2, 3, 2), seed=1)
@example(shape=(config(), 2, 5, 3), seed=2**64 + 5)
@settings(max_examples=80, deadline=None)
def test_compiled_block_matches_the_python_block(shape, seed):
    # Above 8 traders the cross-trader mean takes numpy's pairwise order;
    # a market without informed traders has no present values to compute,
    # and a master seed of 2**64 or more takes three key words.
    cfg, runs, n_sessions, jobs = shape
    assert block(cfg, runs, seed, False, n_sessions, jobs) == block(cfg, runs, seed, True, n_sessions, jobs)


@needs_kernel
def test_a_batch_block_is_one_kernel_call(monkeypatch):
    # Every session of a one-share batch, its dividend walk, its
    # present-value table and every run, runs in one call, on a state laid
    # out without a MarketSession.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(2,)))
    spec = block(cfg, 4, 3, python=True, jobs=1)
    calls = []

    def refuse(*args):
        pytest.fail("a compiled block constructed a MarketSession")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(_kernel.resolve(), calls), None))
    monkeypatch.setattr(MarketSession, "__init__", refuse)
    assert block(cfg, 4, 3, jobs=1) == spec
    assert calls == ["im_run_block"]


@needs_kernel
@pytest.mark.parametrize("owner, name", spec_names(BLOCK_SPEC), ids=lambda x: getattr(x, "__name__", x))
def test_a_patched_name_sends_the_block_to_the_python_loop(monkeypatch, owner, name):
    # The Python block and `first_run` call the patched name, and reach no
    # entry point of the kernel that trades; the outputs do not change.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(2,)))
    compiled = block(cfg, 3, 8), first(cfg, 8)
    monkeypatch.setattr(_kernel, "_resolved", (NoTrading(_kernel.resolve(), f"a block with {name} patched"), None))
    calls = trace(monkeypatch, owner, name)
    assert block(cfg, 3, 8) == compiled[0]
    assert calls
    calls.clear()
    patched = first(cfg, 8)
    assert not patched[3] and calls
    assert_same_session(compiled[1], patched)


# -- seeding: numpy's SeedSequence and PCG64 in C ------------------------------


@needs_kernel
@given(keys=st.lists(st.lists(st.integers(0, 2**130), min_size=1, max_size=5), min_size=1, max_size=3))
@example(keys=[[0]])
@example(keys=[[2**32 - 1]])
@example(keys=[[2**32]])
@example(keys=[[2**64]])
@example(keys=[[2**64 + 5, 1, 3, 7], [0, 0], [1, 2, 3, 4, 5]])
@settings(max_examples=300, deadline=None)
def test_the_kernel_seeds_the_generators_rng_stream_seeds(keys):
    # state, inc, has_uint32 and uinteger, for keys of 1-5 components of up
    # to 5 words each: a key past the 4-word pool mixes its further words in
    # one by one. One call seeds every key.
    states = _kernel.seeded_states(_kernel.resolve(), keys)
    assert [tuple(row) for row in states.tolist()] == [_kernel.pcg64_words(stream(*key)) for key in keys]


@needs_kernel
@pytest.mark.parametrize("key", [(0,), (2**64 + 5, 1, 3, 7), (9, 0, 2**40)], ids=str)
@pytest.mark.parametrize("kind, dtype, numpy_draws", [
    (_kernel.DRAW_RAW, np.uint64, lambda rng, n: rng.bit_generator.random_raw(n)),
    (_kernel.DRAW_INTEGERS, np.int64, lambda rng, n: rng.integers(0, 7, size=n)),
    (_kernel.DRAW_RANDOM, np.float64, lambda rng, n: rng.random(n)),
    (_kernel.DRAW_NORMAL, np.float64, lambda rng, n: rng.standard_normal(n)),
], ids=["raw", "integers", "random", "standard_normal"])
def test_a_generator_seeded_in_c_draws_numpys_variates(key, kind, dtype, numpy_draws):
    # A bounded integer takes a buffered 32-bit half, so an odd count leaves
    # one in the state; the normals take the ziggurat's 64-bit draws and its
    # doubles.
    lib, count = _kernel.resolve(), 1001
    (state,), drawn = _kernel.seeded_states(lib, [key]), np.empty(count, dtype)
    assert lib.im_pcg64_draw(state.ctypes.data, kind, count, 7, drawn.ctypes.data) == 0
    rng = stream(*key)
    assert drawn.tobytes() == numpy_draws(rng, count).astype(dtype).tobytes()
    assert tuple(state.tolist()) == _kernel.pcg64_words(rng)


@needs_kernel
def test_a_kernel_that_seeds_other_streams_is_refused(monkeypatch):
    # As under a numpy whose SeedSequence or PCG64 changed: the library
    # fails its self-check when it loads, and batches run the Python block.
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setattr(_kernel, "stream", lambda *key: stream(*key[:-1], key[-1] + 1))
    assert _kernel.resolve() is None
    assert f"numpy {np.__version__}" in _kernel._resolved[1]
    assert montecarlo.compiled_kernel(BLOCK_SPEC) is None


def kernel_draws(state, kind, count, bound=0, dtype=np.float64):
    """`count` draws of `kind` through `im_pcg64_draw` from the generator in
    `state` (six words, which it advances)."""
    drawn = np.empty(count, dtype)
    assert _kernel.resolve().im_pcg64_draw(state.ctypes.data, kind, count, bound, drawn.ctypes.data) == 0
    return drawn


@needs_kernel
def test_the_kernel_permutes_as_numpy_for_every_length():
    # Lengths 1-40 one after another on one generator: the masked rejection
    # draws take buffered 32-bit halves, which carry from one call to the next.
    (state,), rng = _kernel.seeded_states(_kernel.resolve(), [(4, 2)]), stream(4, 2)
    for n in range(1, 41):
        assert kernel_draws(state, _kernel.DRAW_PERMUTATION, n, dtype=np.int64).tolist() == rng.permutation(n).tolist()
    assert tuple(state.tolist()) == _kernel.pcg64_words(rng)


@needs_kernel
@pytest.mark.parametrize("bounds", [range(1, 41), (2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 3, 2**62 + 1,
                                                  2**63 - 1)], ids=["small", "large"])
def test_the_kernel_draws_bounded_integers_as_numpy(bounds):
    # Bound 1 draws nothing; below 2**32 Lemire's method runs on 32-bit
    # halves, where 2**31 + 1 rejects about half the draws; 2**32 takes a
    # bare half, and larger bounds Lemire's method on 64-bit draws. An odd
    # count leaves a half buffered for the next bound.
    (state,), rng = _kernel.seeded_states(_kernel.resolve(), [(5, 1)]), stream(5, 1)
    for bound in bounds:
        drawn = kernel_draws(state, _kernel.DRAW_INTEGERS, 301, bound, np.int64)
        assert drawn.tolist() == rng.integers(0, bound, size=301).tolist(), bound
        assert tuple(state.tolist()) == _kernel.pcg64_words(rng), bound


@needs_kernel
def test_a_million_kernel_normals_are_numpys():
    # 2**20 draws reach the ziggurat's tail about 280 times and its wedges
    # about 15,000 times, each through libm's log1p and exp.
    (state,), rng = _kernel.seeded_states(_kernel.resolve(), [(0,)]), stream(0)
    drawn = kernel_draws(state, _kernel.DRAW_NORMAL, 2**20)
    assert drawn.tobytes() == rng.standard_normal(2**20).tobytes()
    assert tuple(state.tolist()) == _kernel.pcg64_words(rng)
    assert np.abs(drawn).max() > 3.6541528853610087963519472518  # the tail's start


@needs_kernel
@pytest.mark.parametrize("name", [name for name, *_ in _kernel.CHECK_DRAWS])
def test_a_kernel_whose_draws_differ_from_numpys_is_refused(monkeypatch, name):
    # As under a numpy that changed one distribution, which NEP 19 allows:
    # the library fails its self-check when it loads, naming the kind, and
    # batches run the Python block.
    changed = [(n, kind, count, bound, (lambda rng, k, d=draw: d(rng, k) + 1) if n == name else draw)
               for n, kind, count, bound, draw in _kernel.CHECK_DRAWS]
    monkeypatch.setattr(_kernel, "CHECK_DRAWS", tuple(changed))
    monkeypatch.setattr(_kernel, "_resolved", None)
    assert _kernel.resolve() is None
    assert f"the kernel's {name} does not reproduce numpy {np.__version__}" in _kernel._resolved[1]
    assert montecarlo.compiled_kernel(BLOCK_SPEC) is None


def c_table(source: str, name: str) -> list:
    """The 256 values of the ziggurat table `name` in `source`: ki_double's
    as integers, the others as doubles."""
    body = re.search(r"static const \w+ " + name + r"\[256\] = \{([^}]*)\};", source).group(1)
    read = (lambda v: int(v, 16)) if name == "ki_double" else float.fromhex
    return [read(value.strip()) for value in body.split(",")]


NUMPY_RANDOM_LIB = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
TABLE_MEMBER = "src_distributions_distributions.c.o"


def numpy_tables(tmp_path) -> dict[str, list]:
    """The ziggurat tables of the installed numpy: local symbols in the
    `.rodata` of distributions.c's object in numpy's libnpyrandom.a, read
    at the offsets `nm` gives them."""
    for tool in ("ar", "nm"):
        if shutil.which(tool) is None:
            pytest.skip(f"cannot read numpy's tables without {tool}")
    if not NUMPY_RANDOM_LIB.is_file():
        pytest.skip(f"numpy {np.__version__} ships no {NUMPY_RANDOM_LIB}")
    obj = tmp_path / TABLE_MEMBER
    obj.write_bytes(subprocess.run(["ar", "p", str(NUMPY_RANDOM_LIB), TABLE_MEMBER], capture_output=True,
                                   check=True).stdout)
    data = obj.read_bytes()
    # the ELF64 section headers, and the one named .rodata
    (shoff,), (entsize, count, names) = struct.unpack_from("<Q", data, 0x28), struct.unpack_from("<3H", data, 0x3A)
    sections = [struct.unpack_from("<2I4Q", data, shoff + i * entsize) for i in range(count)]
    name_table = sections[names][4]
    rodata = next(offset for name, _, _, _, offset, _ in sections
                  if data[name_table + name:].startswith(b".rodata\0"))
    listing = subprocess.run(["nm", str(obj)], capture_output=True, text=True, check=True).stdout
    symbols = {parts[2]: int(parts[0], 16) for parts in map(str.split, listing.splitlines()) if len(parts) == 3}
    formats = {"ki_double": "<256Q", "wi_double": "<256d", "fi_double": "<256d"}
    return {name: list(struct.unpack_from(fmt, data, rodata + symbols[name])) for name, fmt in formats.items()}


def test_the_kernels_ziggurat_tables_are_numpys(tmp_path):
    source = _kernel.SOURCE.read_text()
    for name, values in numpy_tables(tmp_path).items():
        assert c_table(source, name) == values, name


def batch_outputs(tmp_path, preset, seed, jobs, names):
    out = tmp_path / f"{preset}-{seed}-{jobs}"
    argv = ["batch", "--preset", preset, "--seed", str(seed), "--sessions", "7", "--runs", "2",
            "--periods", "4", "--steps", "20", "--jobs", str(jobs), "--out", str(out)]
    assert cli.main(argv) == 0
    return {name: (out / name).read_bytes() for name in names}


@needs_kernel
@pytest.mark.parametrize("preset, names", [("jcurve10", ("runs.csv", "jcurve.csv", "pvalues.csv")),
                                           ("efficiency", ("efficiency.csv",))], ids=["jcurve10", "efficiency"])
@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_compiled_shares_write_the_python_loops_bytes_at_any_jobs(tmp_path, preset, names, seed):
    # 7 sessions split 7, 4 + 3, 3 + 2 + 2 and 7 x 1 (9 jobs), each share one
    # kernel call, against the Python loop, which runs on one thread.
    with python_loop():
        spec = batch_outputs(tmp_path / "python", preset, seed, 1, names)
    for jobs in (1, 2, 3, 9):
        assert batch_outputs(tmp_path, preset, seed, jobs, names) == spec, jobs


@needs_kernel
def test_compiled_period_draws_in_the_documented_layout():
    # A one-period run: the walk's generator ends after its normals, and the
    # run's where the period's six method calls leave a fresh one.
    agents = market_with_levels((0, 3, 1, 0, 2), chartist_levels=(2,))
    cfg = config(agents=agents, n_periods=1, steps_per_period=17)
    result, (words,), _, compiled, state = first(cfg, 5)
    assert compiled
    walk = stream(5, PATH_DOMAIN, 0)
    walk.standard_normal(cfg.path_length - 1)
    fresh = stream(5, RUN_DOMAIN, 0, 0)
    fresh.permutation(5), fresh.random(3), fresh.standard_normal(3)
    fresh.integers(0, 5, size=17), fresh.random(17), fresh.standard_normal(17)
    assert [tuple(w) for w in words] == [_kernel.pcg64_words(walk), _kernel.pcg64_words(fresh)]
    assert len(result.prices) == 17 and state["_session"].last_price == result.prices[-1]


@needs_kernel
@pytest.mark.parametrize("levels", [(0,), (2,), (0, 3, 1, 0, 2), tuple(range(8)), (0, 0, 0)],
                         ids=["one uninformed", "one informed", "five", "eight", "none informed"])
def test_a_compiled_run_draws_each_period_in_the_documented_layout(levels):
    # The kernel draws in C with the algorithms numpy's methods run: the
    # run's generator ends where six method calls per period leave a fresh
    # one, and the last period's buffers hold that period's draws.
    n, m, steps = len(levels), sum(lvl > 0 for lvl in levels), 17
    cfg = config(agents=market_with_levels(levels, chartist_levels=levels[1:2]), steps_per_period=steps)
    _, (words,), _, compiled, state = first(cfg, 6)
    assert compiled
    fresh = stream(6, RUN_DOMAIN, 0, 0)
    for _ in range(cfg.n_periods):
        last = (fresh.permutation(n), fresh.random(m), fresh.standard_normal(m),
                fresh.integers(0, n, size=steps), fresh.random(steps), fresh.standard_normal(steps))
    assert tuple(words[1]) == _kernel.pcg64_words(fresh)
    perm, seeding_u, seeding_z, order, steps_u, steps_z = last
    assert np.array_equal(state["_perm"], perm) and np.array_equal(state["_order"], order)
    assert np.array_equal(state["_u"], np.concatenate([seeding_u, steps_u]))
    assert np.array_equal(state["_z"], np.concatenate([seeding_z, steps_z]))


def test_a_generator_other_than_pcg64_runs_the_python_loop(monkeypatch):
    # A session or chain takes any generator and runs the Python loop, which
    # draws through numpy, in a process whose kernel loads too: neither ever
    # asks for the kernel.
    monkeypatch.setattr(_kernel, "_resolved", (Unusable(), None))
    cfg = config()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(7, 0, 0))
    chain_cfg = SwitchingConfig(n_traders=3, n_periods=30, interval=5, steps_per_period=20)
    outcomes = []
    for _ in range(2):
        session = MarketSession(cfg, path, np.random.Generator(np.random.PCG64DXSM(7)))
        result = session.run()
        rng = np.random.Generator(np.random.PCG64DXSM(8))
        codes = run_switching_sim(chain_cfg, 3, rng).codes.tolist()
        assert isinstance(session.book, Book)
        outcomes.append((result, session.rng.bit_generator.state, ending(session), codes, rng.bit_generator.state))
    assert_same_session(*outcomes)
    assert outcomes[0][3:] == outcomes[1][3:]
    assert len(outcomes[0][0].trade_prices) and len(outcomes[0][3]) == 7


# -- the one state ----------------------------------------------------------


@pytest.mark.parametrize("python", [True, False], ids=["python", "compiled"])
def test_cash_and_shares_are_the_same_arrays_for_the_whole_session(monkeypatch, python):
    # A session runs the Python loop in a process with no kernel and in one
    # whose kernel loads ("compiled"), which it never asks for.
    monkeypatch.setattr(_kernel, "_resolved", (None, "no kernel") if python else (Unusable(), None))
    cfg = config()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(3, 0, 0))
    session = MarketSession(cfg, path, stream(3, 1, 0, 0))
    cash, shares = session.cash, session.shares
    session.run_period()
    assert session.cash is cash and session.shares is shares
    session.run()
    assert session.cash is cash and session.shares is shares
    assert cash.tolist() == session.result().cash_hist[-1].tolist()


def test_endowments_written_between_periods_reach_the_python_loop():
    # Written before the first period and again between periods, as
    # switching does after each evaluation.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(3,)), clear_book_each_period=False)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(9, 0, 0))
    session = MarketSession(cfg, path, stream(9, 1, 0, 0))
    for k in range(cfg.n_periods):
        if k in (0, 3):
            session.cash[:] = [50.0 * (i + 1) for i in range(4)]
            session.shares[:] = [i + k for i in range(4)]
        session.run_period()
    result = session.result()
    assert result.cash_hist[0].tolist() == [cfg.initial_cash] * 4
    # Trades conserve shares, so each period's total is the last one written.
    totals = result.shares_hist.sum(axis=1).tolist()
    assert totals == [4 * cfg.initial_shares] + [0 + 1 + 2 + 3] * 3 + [3 + 4 + 5 + 6] * 3


# -- choosing the kernel ----------------------------------------------------


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """A process that has not resolved the kernel yet, with an empty cache."""
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "infomarket"


def reference_outputs():
    """A first run under the kernel this process resolves, as `first` gives it."""
    cfg = config(clear_book_each_period=False, initial_cash=200.0, initial_shares=3)
    return first(cfg, 4)


@needs_toolchain
def test_first_use_builds_into_the_cache(fresh_kernel):
    assert reference_outputs()[3], _kernel._resolved[1]
    (built,) = fresh_kernel.iterdir()
    assert built.name.startswith("kernel-") and built.suffix == ".so"


@needs_toolchain
def test_a_cached_kernel_needs_no_compiler(fresh_kernel, monkeypatch):
    reference_outputs()
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
    assert reference_outputs()[3]


@needs_toolchain
def test_no_compiler_falls_back_to_python_with_the_same_outputs(fresh_kernel, monkeypatch):
    compiled = reference_outputs()
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_kernel.parent.parent / "other"))
    fallback = reference_outputs()
    assert compiled[3] and not fallback[3]
    assert_same_session(compiled, fallback)


@needs_toolchain
def test_unwritable_cache_falls_back_to_python_with_the_same_outputs(fresh_kernel, monkeypatch, tmp_path):
    compiled = reference_outputs()
    monkeypatch.setattr(_kernel, "_resolved", None)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    fallback = reference_outputs()
    assert compiled[3] and not fallback[3]
    assert_same_session(compiled, fallback)
    assert blocker.read_text() == ""


@needs_toolchain
def test_the_kernel_builds_from_its_source_and_libm_alone(fresh_kernel, tmp_path):
    # The command names no include directory and no archive, and the
    # compiler and linker open nothing of numpy's or Python's (gcc's
    # dependency list and the linker's trace list every file they read), so
    # a numpy that ships no static library or headers builds the same
    # kernel; it still matches the Python loop.
    command = _kernel.command(str(tmp_path / "kernel.so"))
    assert not [arg for arg in command if arg.startswith("-I") or arg.endswith(".a")]
    deps = tmp_path / "kernel.d"
    proc = subprocess.run([_kernel.find_compiler(), *command, "-MD", "-MF", str(deps), "-Wl,--trace"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    read = deps.read_text() + proc.stdout
    assert "math.h" in read and "libm" in read
    for outside in (str(Path(np.__file__).parent), sysconfig.get_paths()["include"], "npyrandom", "Python.h"):
        assert outside not in read
    compiled = reference_outputs()
    with python_loop():
        spec = reference_outputs()
    assert compiled[3] and not spec[3], _kernel._resolved[1]
    assert_same_session(compiled, spec)


def mirror_without(src: Path, dst: Path, omit: Path) -> None:
    """Make `dst` a tree of symlinks to `src`'s entries, all but `src / omit`."""
    dst.mkdir()
    for entry in src.iterdir():
        if entry.name != omit.parts[0]:
            (dst / entry.name).symlink_to(entry)
        elif len(omit.parts) > 1:
            mirror_without(entry, dst / entry.name, Path(*omit.parts[1:]))


# What a process whose numpy lacks one file runs: a first run under a kernel
# built into an empty cache, against the Python loop.
MISSING_FILE_RUN = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import numpy as np
import test_kernel as t

numpy_dir = Path(np.__file__).parent
assert numpy_dir == Path(sys.argv[2]) and not (numpy_dir / sys.argv[3]).exists(), numpy_dir
compiled = t.reference_outputs()
assert compiled[3], t._kernel._resolved[1]
with t.python_loop():
    spec = t.reference_outputs()
t.assert_same_session(compiled, spec)
print("kernel built and matches")
"""


@needs_toolchain
@pytest.mark.parametrize("missing", [Path("random/lib/libnpyrandom.a"),
                                     Path("_core/include/numpy/random/distributions.h")], ids=["library", "header"])
def test_missing_numpy_random_files_fall_back_to_python_with_the_same_outputs(tmp_path, missing):
    # A numpy that ships without its random archive or header, the two files
    # the kernel once built against (and without which it fell back to the
    # Python loop): the build reads neither now, so in a process importing
    # that numpy the kernel still builds, and its session still matches the
    # Python loop's bit for bit.
    numpy_dir = Path(np.__file__).parent
    if not (numpy_dir / missing).is_file():
        pytest.skip(f"numpy {np.__version__} ships no {missing}")
    (tmp_path / "site").mkdir()
    mirror_without(numpy_dir, tmp_path / "site" / "numpy", missing)
    libs = numpy_dir.with_name("numpy.libs")  # a wheel's bundled BLAS, found next to numpy
    if libs.is_dir():
        (tmp_path / "site" / libs.name).symlink_to(libs)
    src = str(Path(_kernel.__file__).parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join([str(tmp_path / "site"), src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", MISSING_FILE_RUN, str(Path(__file__).parent),
                           str(tmp_path / "site" / "numpy"), str(missing)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "kernel built and matches" in proc.stdout


@needs_toolchain
def test_the_kernel_source_compiles_without_a_warning(tmp_path):
    # The build's own command, with every common warning an error: among
    # others, a parameter left unused after a signature change.
    build = [_kernel.find_compiler(), *_kernel.command(str(tmp_path / "kernel.so")), "-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(build, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# What the sanitized kernel runs in its own process: its load-time
# self-check, the draw comparisons, the no-clearing reference market's and
# the deep book's first runs, a one-share batch and a two-share batch whose
# shares take five sessions from one counter on two threads, one chain, one
# share of three chains from different profiles and two shares that take
# four chains from one counter on two threads, against the Python loop, `states.csv`
# rows written into buffers of exactly their length, and every prefix of a
# few tick bodies parsed from and into buffers of exactly their length.
SANITIZED_RUN = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])
import test_kernel as t
from infomarket import _kernel, montecarlo
from infomarket.switching import SwitchingConfig

lib = _kernel._load(Path(sys.argv[1]))
_kernel._resolved = (lib, None)
assert montecarlo.compiled_kernel(montecarlo.BLOCK_SPEC) is lib
t.test_the_kernel_permutes_as_numpy_for_every_length()
t.test_the_kernel_draws_bounded_integers_as_numpy((*range(1, 41), 2**31 + 1, 2**32, 2**33 + 3))
t.test_a_million_kernel_normals_are_numpys()
t.test_reference_market_sessions_match(False)
t.test_a_deep_book_session_matches()
cfg = t.config(agents=t.market_with_levels((0, 1, 2, 3, 0, 5), chartist_levels=(2,)))
assert t.block(cfg, 3, 5, jobs=1) == t.block(cfg, 3, 5, python=True)
assert t.block(cfg, 3, 5, n_sessions=5, jobs=2) == t.block(cfg, 3, 5, python=True, n_sessions=5)
chain = SwitchingConfig(n_traders=4, n_periods=45, interval=5, steps_per_period=20)
assert t.chain(chain, 6, 4) == t.chain(chain, 6, 4, python=True)
assert t.chain_share(chain, [6, 1, 11], 4, 1) == t.chain_share(chain, [6, 1, 11], 4, 1, python=True)
assert t.chain_share(chain, [6, 1, 11, 16], 4, 2) == t.chain_share(chain, [6, 1, 11, 16], 4, 1, python=True)
t.exact_state_rows(2**70, [2**63 - 1, -(2**63), 0, -7], 2**62)
t.exact_state_rows(-3, range(5000), 0)
for body in t.TICK_BODIES:
    t.exact_tick_rows(body)
print("sanitized kernel matches")
"""


@needs_toolchain
def test_the_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    # The build's own command at -O1 with ASan and UBSan, which abort on any
    # out-of-bounds access or undefined operation, loaded into a Python whose
    # allocator the preloaded runtimes intercept.
    compiler = _kernel.find_compiler()
    runtimes = [subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    for runtime in runtimes:
        if not os.path.isabs(runtime) or not os.path.exists(runtime):
            pytest.skip(f"{compiler} has no {os.path.basename(runtime)}")
    library = tmp_path / "kernel-sanitized.so"
    build = [compiler, *_kernel.command(str(library)), "-O1", "-g", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=undefined"]
    proc = subprocess.run(build, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    src = str(Path(_kernel.__file__).parents[1])
    env = {**os.environ, "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(library), str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "sanitized kernel matches" in proc.stdout


def test_the_cache_key_covers_the_numpy_version_and_the_command_line(monkeypatch, tmp_path):
    source = _kernel.SOURCE.read_bytes()
    key = _kernel.cache_key(source)
    assert _kernel.cache_key(source + b"\n") != key
    changes = [(np, "__version__", np.__version__ + ".post1"),
               (_kernel, "FLAGS", (*_kernel.FLAGS, "-g"))]
    for owner, name, value in changes:
        with monkeypatch.context() as m:
            m.setattr(owner, name, value)
            assert _kernel.cache_key(source) != key, name
    # Where the source sits is not part of the key: checkouts share a build.
    monkeypatch.setattr(_kernel, "SOURCE", tmp_path / "_kernel.c")
    assert _kernel.cache_key(source) == key


def c_struct_fields(source: str, name: str) -> list[tuple[str, type]]:
    """The fields of `typedef struct { ... } name;` in `source`, in order,
    each with the ctypes type that mirrors its C type: any pointer is a
    `c_void_p`."""
    body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", source).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    fields = []
    for declaration in filter(None, (d.strip() for d in body.split(";"))):
        ctype, pointer, field = re.fullmatch(r"(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)", declaration).groups()
        fields.append((field, ctypes.c_void_p if pointer else {"int64_t": ctypes.c_int64,
                                                                "double": ctypes.c_double}[ctype]))
    return fields


@pytest.mark.parametrize("struct, mirror", [("im_session", _kernel.Session), ("im_block", _kernel.Block),
                                             ("im_chain", _kernel.Chain)])
def test_the_ctypes_mirrors_match_the_c_structs(struct, mirror):
    # Every field is 8 bytes, so the loaded library's size check cannot see
    # a reordered field or an int64/double swap; this reads the source, and
    # needs no compiler.
    assert c_struct_fields(_kernel.SOURCE.read_text(), struct) == mirror._fields_


def test_the_power_table_starts_where_the_c_source_reads_it():
    # `im_format_per_run` indexes `pow10_table()` from its own POW10_MIN.
    assert f"enum {{ POW10_MIN = {_kernel.POW10_MIN} }};" in _kernel.SOURCE.read_text()
    assert _kernel.pow10_table().shape == (_kernel.POW10_MAX - _kernel.POW10_MIN + 1, 2)


def exported_functions(source: str) -> dict[str, tuple[type, int]]:
    """The `int` and `int64_t` functions `source` exports, each with the
    ctypes type of its result and its number of parameters."""
    found = {}
    for ret, name, params in re.findall(r"^(int|int64_t) (im_\w+)\(([^)]*)\)", source, flags=re.M):
        found[name] = ({"int": ctypes.c_int, "int64_t": ctypes.c_int64}[ret],
                       0 if params.strip() == "void" else params.count(",") + 1)
    return found


@needs_kernel
def test_every_exported_function_has_its_ctypes_signature():
    # ctypes assumes an undeclared function returns a C int, which would
    # silently truncate an int64_t count.
    lib = _kernel.resolve()
    exported = exported_functions(_kernel.SOURCE.read_text())
    assert "im_parse_ticks" in exported and "im_session_size" in exported
    for name, (restype, n_params) in exported.items():
        function = getattr(lib, name)
        assert function.restype is restype, name
        assert function.argtypes is not None and len(function.argtypes) == n_params, name


def parse_ticks(data: bytes):
    """`im_parse_ticks` on `data`: its row count, and its times and prices."""
    cap = data.count(b"\n") + 1
    times, prices = np.empty(cap), np.empty(cap)
    n = _kernel.resolve().im_parse_ticks(data, len(data), times.ctypes.data, prices.ctypes.data, cap)
    return n, times[:max(n, 0)], prices[:max(n, 0)]


def decimal_fields(rng: np.random.Generator) -> list[str]:
    """About 10**5 fields: 1-25 significant digits with 0-25 of them after
    the point, integers around 2**53 with and without a fraction, and the
    repr of random doubles."""
    fields = []
    for _ in range(60_000):
        sig, frac = int(rng.integers(1, 26)), int(rng.integers(0, 26))
        digits = str(int(rng.integers(1, 10))) + "".join(map(str, rng.integers(0, 10, sig - 1)))
        digits = digits.rjust(frac + 1, "0")
        fields.append(digits[:len(digits) - frac] + ("." + digits[len(digits) - frac:] if frac else ""))
    for k in range(-300, 301):
        fields += [str(2**53 + k), f"{2**53 + k}.0", f"{(2**53 + k) // 10}.{(2**53 + k) % 10}"]
    doubles = np.concatenate([rng.uniform(0, 1000, 10_000), rng.lognormal(0, 8, 10_000),
                              rng.uniform(0, 1, 5_000), -rng.uniform(0, 10, 1_000)])
    return fields + [repr(x) for x in doubles.tolist()]


def documented_form(field: str) -> bool:
    """What `im_parse_ticks` reads itself: digits[.digits], whose digits form
    an integer below 2**53, with at most 22 of them after the point."""
    match = re.fullmatch(r"([0-9]+)(?:\.([0-9]+))?", field)
    return bool(match) and len(match.group(2) or "") <= 22 and int(field.replace(".", "")) < 2**53


@needs_kernel
def test_the_compiled_decimal_parse_is_float_bit_for_bit():
    fields = decimal_fields(np.random.default_rng(11))
    accepted = [f for f in fields if documented_form(f)]
    refused = [f for f in fields if not documented_form(f)]
    assert len(accepted) > 30_000 and len(refused) > 30_000
    n, times, prices = parse_ticks("".join(f"{f},{f}\n" for f in accepted).encode())
    assert n == len(accepted)
    expected = [float(f).hex() for f in accepted]
    assert [t.hex() for t in times.tolist()] == expected
    assert [p.hex() for p in prices.tolist()] == expected
    for f in refused:
        assert parse_ticks(f"1,1\n{f},2\n".encode())[0] == -1, f
        assert parse_ticks(f"1,1\n2,{f}\n".encode())[0] == -1, f


@needs_kernel
@pytest.mark.parametrize("field", ["+1", "1e3", ".5", "2.", " 1", "1 ", "1_0", '"1"', "\u0663", "1\r2", "-0",
                                   "0x1", "inf", "nan", ""])
def test_the_compiled_parse_refuses_every_other_field(field):
    for row in (f"{field},40", f"1,{field}"):
        assert parse_ticks(f"0,39\n{row}\n".encode())[0] == -1, row


@needs_kernel
@pytest.mark.parametrize("body, rows", [
    ("", 0), ("\n\r\n\n", 0), ("1,40", 1), ("1,40\n2,41", 2), ("1,40\r\n\r\n2,41\r\n", 2),
    ("1,40,\n2,41,a b\tc,d\n", 2), ("1,40\r", -1), ("1,40\r2,41\n", -1), ("1,40,\"a\"\n", -1),
    ("1,40,a\rb\n", -1), ("1,40,\x00\n", -1), ("1,40,\x7f\n", -1), ("1\n", -1), ("1,\n", -1),
    ("1,40 \n", -1), ("\t\n", -1), (" \n", -1),
], ids=repr)
def test_the_compiled_parse_reads_only_the_plain_row_form(body, rows):
    assert parse_ticks(body.encode())[0] == rows


# Tick bodies whose every prefix `exact_tick_rows` parses: plain rows, no
# final newline, CRLF, a trailing CR (which the parse refuses) and an
# ignored column.
TICK_BODIES = (b"1,40\n2,41.25\n10,39.5\n", b"1,40\n2,41.25", b"1,40\r\n\r\n2,41.25\r\n3,42\r\n",
               b"1,40\r\n2,41\r", b"1,40,buy\n2,41.5,sell x\t1\n3,42,")


def exact_tick_rows(body: bytes) -> None:
    """`im_parse_ticks` on every prefix of `body`, each copied into a buffer
    of exactly its length, where it must read what it reads from a roomy
    copy: the rows into buffers of exactly that many rows, and a refusal,
    its own or one row short of room, writing nothing past them."""
    parse = _kernel.resolve().im_parse_ticks
    for end in range(len(body) + 1):
        n, times, prices = parse_ticks(body[:end])
        data = np.frombuffer(body[:end], np.uint8).copy()
        for cap in ([n, n - 1] if n > 0 else [0] if n == 0 else [body[:end].count(b"\n") + 1]):
            out_times, out_prices = np.empty(cap), np.empty(cap)
            got = parse(data.ctypes.data, end, out_times.ctypes.data, out_prices.ctypes.data, cap)
            if cap == n:
                assert got == n and out_times.tolist() == times.tolist() and out_prices.tolist() == prices.tolist(), end
            else:
                assert got == -1, (end, cap)


@needs_kernel
def test_the_compiled_parse_reads_every_prefix_within_its_buffers():
    for body in TICK_BODIES:
        exact_tick_rows(body)


@needs_kernel
def test_the_compiled_parse_writes_no_row_past_its_buffers():
    times, prices = np.zeros(3), np.zeros(3)
    data = b"1,40\n2,41\n3,42\n"
    assert _kernel.resolve().im_parse_ticks(data, len(data), times.ctypes.data, prices.ctypes.data, 2) == -1
    assert times[2] == prices[2] == 0


def formatted(values, labels=(7,), runs=3, first=0) -> list[str]:
    """`im_format_per_run`'s rows for `values` as rows `first`.. of a
    (rows x len(labels)) array, written into exactly its documented room."""
    lib = _kernel.resolve()
    values = np.ascontiguousarray(values, dtype=float).reshape(-1, len(labels))
    names = [str(label).encode() for label in labels]
    ends = np.cumsum([len(name) for name in names], dtype=np.int64)
    room = values.size * _kernel.FORMAT_BYTES + len(values) * int(ends[-1])
    out = np.full(room + 8, 0xAA, np.uint8)
    size = lib.im_format_per_run(values.ctypes.data, len(values), len(labels), runs, first, b"".join(names),
                                 ends.ctypes.data, lib.pow10.ctypes.data, out.ctypes.data)
    assert size <= room and (out[room:] == 0xAA).all()
    rows = str(out[:size], "ascii").split("\r\n")
    assert rows.pop() == ""  # every row ends in CRLF
    return rows


def assert_reprs(values):
    values = np.asarray(values, dtype=float).ravel()
    got = [row.split(",")[-1] for row in formatted(values)]
    expected = [repr(v) for v in values.tolist()]
    wrong = [(v.hex(), e, g) for v, e, g in zip(values.tolist(), expected, got) if e != g]
    assert not wrong, wrong[:10]


def ulps_around(centres, count=30) -> np.ndarray:
    """`centres` and the `count` doubles on either side of each."""
    out, up, down = [centres], centres, centres
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@needs_kernel
def test_the_compiled_repr_of_random_bit_patterns_is_pythons():
    # Every exponent, normal and subnormal, both signs, nan payloads.
    bits = np.random.default_rng(12).integers(0, 2**64, 300_000, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))
    assert_reprs(np.random.default_rng(13).integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64))


@needs_kernel
def test_the_compiled_repr_of_special_values_is_pythons():
    assert_reprs([0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
                  sys.float_info.max, -sys.float_info.max, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0])


@needs_kernel
def test_the_compiled_repr_around_every_power_of_two_and_ten_is_pythons():
    # Below a power of two the rounding interval is half as wide as above.
    assert_reprs(ulps_around(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_reprs(ulps_around(np.array([float(f"1e{e}") for e in range(-323, 309)])))


@needs_kernel
@pytest.mark.parametrize("switch", [1e-4, 1e-5, 1e16, 2.0**53], ids=repr)
def test_the_compiled_repr_switches_form_where_python_does(switch):
    # repr writes 0.0001 but 1e-05, and 9007199254740992.0 but 1e+16.
    assert_reprs(ulps_around(np.array([switch, -switch]), 300))
    assert_reprs([switch * f for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2)])


@needs_kernel
def test_the_compiled_repr_breaks_exact_ties_to_even():
    # The shortest digits of 96033170906012.625 are a tie between ...62 and ...63.
    assert formatted([96033170906012.625, 0.125, 2.5])[0].endswith(",96033170906012.62")
    eighths = np.random.default_rng(14).integers(2**50, 2**57, 100_000) / 8.0
    assert_reprs([96033170906012.625, 0.125, 2.5, *eighths])


@needs_kernel
def test_the_compiled_rows_number_sessions_runs_and_labels():
    values, labels = np.arange(12.0).reshape(4, 3) / 4, (0, 10, 2**70)
    assert formatted(values, labels, runs=3, first=5) == [
        f"{row // 3},{row % 3},{label},{value!r}"
        for row, row_values in enumerate(values.tolist(), start=5) for label, value in zip(labels, row_values)]
    # The widest row the documented room allows for.
    wide = formatted([-2.2250738585072014e-308], labels=(1,), runs=2**62, first=2**63 - 1)
    assert wide == [f"1,{2**62 - 1},1,-2.2250738585072014e-308"]


def exact_state_rows(initial, codes, first):
    """`im_format_states` on `codes`, recorded from interval `first` on,
    into a buffer of exactly the bytes `%d` writes for its rows: the bytes
    it wrote, which must be those."""
    codes = np.asarray(codes, np.int64)
    expected = "".join("%d,%d,%d\r\n" % (initial, first + i, code) for i, code in enumerate(codes.tolist())).encode()
    out, head = np.empty(len(expected), np.uint8), b"%d," % initial
    size = _kernel.resolve().im_format_states(codes.ctypes.data, len(codes), head, len(head), first, out.ctypes.data)
    assert size == len(expected) and out.tobytes() == expected
    return out.tobytes()


@st.composite
def recorded_runs(draw):
    """1-4 runs of unequal lengths, one row to over twice `_LINES_PER_WRITE`,
    each with any initial code and codes drawn from a range within
    +-(2**62 + 5), its ends included."""
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.one_of(st.integers(1, 4), st.integers(_LINES_PER_WRITE - 1, 2 * _LINES_PER_WRITE + 2)))
        low = draw(st.integers(-(2**62 + 5), 2**62 + 5))
        high = draw(st.integers(low, 2**62 + 5))
        codes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(low, high, length, endpoint=True)
        codes[0], codes[-1] = low, high
        runs.append(switching.SwitchingRun(draw(st.integers(-(2**70), 2**70)), codes, 0, 0))
    return runs


@needs_kernel
@given(runs=recorded_runs())
@example(runs=[switching.SwitchingRun(3, np.array([2**63 - 1, -(2**63), 0, -1, 1, 10, 9]), 0, 0)])
@example(runs=[switching.SwitchingRun(1, np.array([5]), 0, 0), switching.SwitchingRun(8, np.arange(301), 0, 0)])
@settings(max_examples=40, deadline=None)
def test_the_compiled_state_rows_are_the_python_rows(runs):
    # `im_format_states` writes each run's rows in blocks of up to
    # `_LINES_PER_WRITE`, from the block's first interval on; `_state_blocks`
    # is its specification.
    compiled, python = io.StringIO(newline=""), io.StringIO(newline="")
    write_states_csv(runs, compiled)
    with python_loop():
        write_states_csv(runs, python)
    assert compiled.getvalue() == python.getvalue()


def test_a_loaded_kernel_leaves_a_patched_rule_to_the_python_loop(monkeypatch):
    # A process whose kernel resolved to a loaded library still runs a
    # first run with a patched rule in the Python loop, which calls the
    # rule; the compiled kernel would not.
    cfg = config(clear_book_each_period=False, initial_cash=200.0, initial_shares=3)
    spec = first(cfg, 4, python=True)
    calls = []

    def traced(*args):
        calls.append(args)
        return decide_random(*args)

    monkeypatch.setattr(_kernel, "_resolved", (Unusable(), None))
    monkeypatch.setattr(engine, "decide_random", traced)
    patched = first(cfg, 4)
    assert not patched[3] and calls
    assert_same_session(spec, patched)


def test_a_patched_rule_never_builds_or_resolves_the_kernel(fresh_kernel, monkeypatch):
    # A patched rule forces the Python loop, so the first run never asks for
    # the compiled kernel: nothing is built and nothing is resolved.
    monkeypatch.setattr(_kernel, "_build", lambda: pytest.fail("built the kernel for a patched rule"))
    monkeypatch.setattr(engine, "decide_random", lambda *args: decide_random(*args))
    assert not reference_outputs()[3]
    assert _kernel._resolved is None


@needs_toolchain
def test_share_threads_run_the_kernel_the_caller_resolved(fresh_kernel, monkeypatch, tmp_path):
    # The caller resolves before it starts the threads: the build runs once,
    # in the caller's thread, and every batch and ensemble share (one call
    # each) went through the library the caller loaded, on the threads and
    # never on the caller's.
    builds, calls = tmp_path / "builds.log", tmp_path / "calls.log"
    build, load = _kernel._build, _kernel._load

    def logged_build():
        with open(builds, "a") as f:
            f.write(f"{threading.get_ident()}\n")
        return build()

    class Reporting:
        """A loaded library whose runs append "<thread> <function>" to calls.log."""

        def __init__(self, lib):
            self.lib = lib

        def __getattr__(self, name):
            function = getattr(self.lib, name)

            def reported(*args):
                with open(calls, "a") as f:
                    f.write(f"{threading.get_ident()} {name}\n")
                return function(*args)

            return reported if name.startswith("im_run_") else function

    monkeypatch.setattr(_kernel, "_build", logged_build)
    monkeypatch.setattr(_kernel, "_load", lambda path: Reporting(load(path)))
    batch = BatchConfig(session=config(), n_sessions=4, runs_per_session=2, master_seed=6, jobs=2)
    chains = SwitchingConfig(n_traders=3, n_periods=45, interval=5, steps_per_period=20)
    parallel = run_batch(batch), run_switching_ensemble(chains, (1, 4, 8), 6, jobs=2)
    assert builds.read_text().split() == [str(threading.get_ident())]
    assert calls.is_file(), f"no session or chain ran compiled: {_kernel._resolved[1]}"
    reports = [line.split() for line in calls.read_text().splitlines()]
    assert str(threading.get_ident()) not in {ident for ident, _ in reports}, "a task ran in the caller's thread"
    # One call per share: the batch's 4 sessions and the ensemble's 3 chains each make 2 shares.
    assert Counter(name for _, name in reports) == {"im_run_block": 2, "im_run_chains": 2}
    with python_loop():
        spec = run_batch(batch), run_switching_ensemble(chains, (1, 4, 8), 6, jobs=2)
    assert np.array_equal(parallel[0].rel_returns, spec[0].rel_returns)
    assert np.array_equal(parallel[0].asset_mean_returns, spec[0].asset_mean_returns)
    assert [run.codes.tolist() for run in parallel[1]] == [run.codes.tolist() for run in spec[1]]


@needs_kernel
def test_the_python_loop_never_runs_on_share_threads(monkeypatch):
    # A wrapped rule, as the benchmark's tracer installs, sends every block
    # and chain down the Python loop while the kernel loads; the Python loop
    # holds the GIL, so at any jobs every block and chain runs in the
    # calling thread, with the bytes of one job.
    threads = set()

    def wrap(rule):
        def wrapped(*args):
            threads.add(threading.get_ident())
            return rule(*args)
        return wrapped

    # Blocks call both rules, chains the value rule.
    monkeypatch.setattr(engine, "decide_random", wrap(decide_random))
    monkeypatch.setattr(engine, "decide_fundamentalist", wrap(engine.decide_fundamentalist))
    batch = BatchConfig(session=config(), n_sessions=5, runs_per_session=2, master_seed=8)
    chains = SwitchingConfig(n_traders=3, n_periods=45, interval=5, steps_per_period=20)
    outputs = {}
    for jobs in (1, 2, 3):
        threads.clear()
        runs, states = io.StringIO(), io.StringIO()
        result = run_batch(replace(batch, jobs=jobs))
        write_runs_csv(result, runs)
        write_states_csv(run_switching_ensemble(chains, (1, 3, 4, 8), 6, jobs=jobs), states)
        outputs[jobs] = (runs.getvalue(), result.asset_mean_returns.tobytes(), states.getvalue())
        assert threads == {threading.get_ident()}
    assert outputs[1] == outputs[2] == outputs[3]


@needs_kernel
def test_the_kernel_is_loaded_so_its_calls_release_the_gil():
    # ctypes.PyDLL would hold the GIL through every call, and run_shares's
    # threads would run one at a time.
    lib = _kernel.resolve()
    assert type(lib) is ctypes.CDLL
    assert not lib.im_run_block._flags_ & ctypes._FUNCFLAG_PYTHONAPI
