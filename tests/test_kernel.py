"""The compiled session kernel against the Python loop, and how a session
picks its kernel.

The Python loop (`draw_period`, then `MarketSession._trade_period`) is the
specification: on the same inputs the compiled kernel must leave every
array bit for bit equal, and the generator in the same state. Both run on
the one state a session lays out at construction.

Tests that need a loaded kernel skip, with the reason, where this process
cannot resolve one; the tests that build into a fresh cache skip only
where a build cannot even start (no gcc, or numpy's random library, its
header or Python's header missing), so a broken `_kernel.c` fails them.
"""

import ctypes
import os
import re
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket import _kernel, engine, montecarlo, switching
from infomarket.agents import decide_random
from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import MarketSession, SessionConfig, default_market, market_with_levels
from infomarket.montecarlo import BLOCK_SPEC, BatchConfig, run_batch
from infomarket.orderbook import Book
from infomarket.rng import stream
from infomarket.switching import SwitchingConfig, run_switching_ensemble, run_switching_sim


def require_kernel():
    """Skip the test, with the reason, where this process resolves no kernel."""
    if _kernel.resolve() is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")


@pytest.fixture(scope="module")
def loaded_kernel():
    require_kernel()


needs_kernel = pytest.mark.usefixtures("loaded_kernel")
missing = [str(p) for p in _kernel.build_inputs() if not p.is_file()]
if _kernel.find_compiler() is None:
    missing.insert(0, "gcc")
needs_toolchain = pytest.mark.skipif(bool(missing), reason=f"cannot build the kernel without {', '.join(missing)}")

SERIES = ("prices", "trade_steps", "trade_prices", "trade_buyers", "trade_sellers",
          "cash_hist", "shares_hist", "period_end_prices")


@contextmanager
def python_loop():
    """Sessions started inside run the Python loop, as in a process whose
    kernel resolved to nothing."""
    with mock.patch.object(_kernel, "_resolved", (None, "the Python loop, the specification")):
        yield


def ran_compiled(session):
    return isinstance(session.book, _kernel.BookView)


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


def ending(session):
    """What a session leaves besides its series: its book and its state."""
    book = session.book
    return (len(book), book.best_bid(), book.best_ask(), session.last_price, session.periods_done,
            *(buffer.tolist() for buffer in (session.cash, session.shares, session._held_cash,
                                             session._held_shares)))


def run(cfg, seed, python=False):
    """A whole session: its result, its generator's final state, its ending
    and whether it ran compiled. The compiled kernel runs where it is
    available unless `python` is set."""
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(seed, 0, 0))
    with python_loop() if python else nullcontext():
        session = MarketSession(cfg, path, stream(seed, 1, 0, 0))
        result = session.run()
    return result, session.rng.bit_generator.state, ending(session), ran_compiled(session)


def assert_same_session(a, b):
    (ra, state_a, end_a), (rb, state_b, end_b) = a[:3], b[:3]
    for name in SERIES:
        x, y = getattr(ra, name), getattr(rb, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert state_a == state_b
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
    spec, fast = run(cfg, seed, python=True), run(cfg, seed)
    assert not spec[3] and fast[3]
    assert_same_session(spec, fast)


@needs_kernel
@pytest.mark.parametrize("clear", [True, False])
def test_reference_market_sessions_match(clear):
    cfg = SessionConfig(clear_book_each_period=clear)
    for seed in range(3):
        assert_same_session(run(cfg, seed, python=True), run(cfg, seed))


@needs_kernel
def test_switching_chains_match():
    # The kernel serves switching too: strategies flip and endowments reset
    # between its periods.
    cfg = SwitchingConfig(n_traders=4, n_periods=90, steps_per_period=20)
    runs = []
    for python in (True, False):
        with python_loop() if python else nullcontext():
            rng = stream(5, 2, 3)
            runs.append((run_switching_sim(cfg, 3, rng), rng.bit_generator.state))
    (a, state_a), (b, state_b) = runs
    assert np.array_equal(a.codes, b.codes)
    assert (a.tie_events, a.all_equal_events) == (b.tie_events, b.all_equal_events)
    assert state_a == state_b


def chain(cfg, code, seed, python=False):
    """A whole switching chain: its codes, tie counts and generator's final
    state. The compiled chain runs where it is available unless `python` is
    set."""
    rng = stream(seed, 2, code)
    with python_loop() if python else nullcontext():
        run = run_switching_sim(cfg, code, rng)
    return run.codes.tolist(), run.tie_events, run.all_equal_events, rng.bit_generator.state


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
    # The chain's segments, periods, evaluations and flips all run in one
    # call, on a state laid out without a MarketSession.
    cfg = SwitchingConfig(n_traders=4, n_periods=75, interval=5, steps_per_period=20)
    spec = chain(cfg, 6, 4, python=True)
    lib, calls = _kernel.resolve(), []

    class Counted:
        def __getattr__(self, name):
            function = getattr(lib, name)

            def counted(*args):
                calls.append(name)
                return function(*args)

            return counted

    def refuse(*args):
        pytest.fail("a compiled chain constructed a MarketSession")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(), None))
    monkeypatch.setattr(MarketSession, "__init__", refuse)
    assert chain(cfg, 6, 4) == spec
    assert calls == ["im_run_chain"]


@needs_kernel
@pytest.mark.parametrize("owner, name", [
    (switching, "generate_dividend_path"), (switching, "conditional_present_value"),
    (engine, "conditional_present_value"), (switching, "MarketSession"),
    (MarketSession, "run_period"), (MarketSession, "set_strategy"), (SwitchingConfig, "session_config"),
    (engine, "decide_chartist"),
], ids=lambda x: getattr(x, "__name__", x))
def test_a_patched_name_sends_the_chain_to_the_python_loop(monkeypatch, owner, name):
    # The Python loop calls the patched name, and its periods still run
    # compiled where nothing else stops them; the outputs do not change.
    cfg = SwitchingConfig(n_traders=3, n_periods=45, interval=5, steps_per_period=20)
    compiled = chain(cfg, 3, 8)
    original, lib, calls = getattr(owner, name), _kernel.resolve(), []

    def traced(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    class NoChain:
        def __getattr__(self, attr):
            if attr == "im_run_chain":
                pytest.fail(f"a chain with {name} patched ran the compiled chain")
            return getattr(lib, attr)

    monkeypatch.setattr(_kernel, "_resolved", (NoChain(), None))
    monkeypatch.setattr(owner, name, traced)
    assert chain(cfg, 3, 8) == compiled
    assert calls


def block(cfg, runs, seed, collect=False, python=False):
    """One batch session block: its returns, and the final state of its path
    generator and of each run's generator, in the order the block derived
    them. The compiled block runs where it is available unless `python` is
    set."""
    made = []

    def recorded(*key):
        made.append(stream(*key))
        return made[-1]

    with mock.patch.object(montecarlo, "stream", recorded), python_loop() if python else nullcontext():
        _, rel, net, per = montecarlo._run_session_block((seed, 2, cfg, runs, collect))
    returns = [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in (rel, net, per)]
    return returns, [rng.bit_generator.state for rng in made]


@st.composite
def blocks(draw):
    """1-17 traders as in `strategy_mixes`, clearing on or off, 1-6 periods,
    1-12 steps, 1-4 runs, and per-period returns collected where there are
    two periods or more."""
    n = draw(st.integers(1, 17))
    n_random = draw(st.integers(0, n))
    informed = draw(st.lists(st.integers(1, 20), min_size=n - n_random, max_size=n - n_random, unique=True))
    chartists = draw(st.lists(st.sampled_from(informed), unique=True)) if informed else []
    levels = draw(st.permutations([0] * n_random + informed))
    periods = draw(st.integers(1, 6))
    cfg = config(agents=market_with_levels(levels, tuple(chartists)), n_periods=periods,
                 steps_per_period=draw(st.integers(1, 12)), clear_book_each_period=draw(st.booleans()))
    return cfg, draw(st.integers(1, 4)), periods > 1 and draw(st.booleans())


@needs_kernel
@given(shape=blocks(), seed=st.integers(0, 2**32 - 1))
@example(shape=(config(agents=default_market(17), n_periods=2, steps_per_period=12), 3, True), seed=0)
@example(shape=(config(agents=market_with_levels((0, 0, 0)), n_periods=1, steps_per_period=3), 2, False), seed=1)
@settings(max_examples=80, deadline=None)
def test_compiled_block_matches_the_python_block(shape, seed):
    # Above 8 traders the cross-trader mean takes numpy's pairwise order;
    # one period has no net return, and a market without informed traders
    # has no present values to compute.
    cfg, runs, collect = shape
    assert block(cfg, runs, seed, collect) == block(cfg, runs, seed, collect, python=True)


@needs_kernel
def test_a_batch_block_is_one_kernel_call(monkeypatch):
    # The dividend walk, the present-value table and every run of the block
    # run in one call, on a state laid out without a MarketSession.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(2,)))
    spec = block(cfg, 4, 3, collect=True, python=True)
    lib, calls = _kernel.resolve(), []

    class Counted:
        def __getattr__(self, name):
            if name == "im_run_periods":
                pytest.fail("a compiled block ran its sessions one call each")
            function = getattr(lib, name)

            def counted(*args):
                calls.append(name)
                return function(*args)

            return counted

    def refuse(*args):
        pytest.fail("a compiled block constructed a MarketSession")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(), None))
    monkeypatch.setattr(MarketSession, "__init__", refuse)
    assert block(cfg, 4, 3, collect=True) == spec
    assert calls == ["im_run_block"]


def spec_names(spec):
    """(owner, name) for each name of a spec: the module or class whose
    namespace holds it."""
    return [(next(owner for owner in (engine, montecarlo, Book) if vars(owner) == namespace), name)
            for namespace, name, _ in spec]


@needs_kernel
@pytest.mark.parametrize("owner, name", spec_names(BLOCK_SPEC), ids=lambda x: getattr(x, "__name__", x))
def test_a_patched_name_sends_the_block_to_the_python_loop(monkeypatch, owner, name):
    # The Python block calls the patched name, and its sessions still run
    # compiled where nothing else stops them; the outputs do not change.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(2,)))
    compiled = block(cfg, 3, 8, collect=True)
    original, lib, calls = getattr(owner, name), _kernel.resolve(), []

    def traced(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    class NoBlock:
        def __getattr__(self, attr):
            if attr == "im_run_block":
                pytest.fail(f"a block with {name} patched ran the compiled block")
            return getattr(lib, attr)

    monkeypatch.setattr(_kernel, "_resolved", (NoBlock(), None))
    monkeypatch.setattr(owner, name, traced)
    assert block(cfg, 3, 8, collect=True) == compiled
    assert calls


@needs_kernel
def test_compiled_period_draws_in_the_documented_layout():
    agents = market_with_levels((0, 3, 1, 0, 2), chartist_levels=(2,))
    cfg = config(agents=agents, steps_per_period=17)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(5, 0, 0))
    session = MarketSession(cfg, path, stream(5, 1, 0, 0))
    session.run_period()
    assert ran_compiled(session)
    fresh = stream(5, 1, 0, 0)
    fresh.permutation(5), fresh.random(3), fresh.standard_normal(3)
    fresh.integers(0, 5, size=17), fresh.random(17), fresh.standard_normal(17)
    assert session.rng.bit_generator.state == fresh.bit_generator.state
    assert len(session.prices) == 17 and session.last_price == session.prices[-1]


@needs_kernel
@pytest.mark.parametrize("levels", [(0,), (2,), (0, 3, 1, 0, 2), tuple(range(8)), (0, 0, 0)],
                         ids=["one uninformed", "one informed", "five", "eight", "none informed"])
def test_a_compiled_run_draws_each_period_in_the_documented_layout(levels):
    # The kernel draws in C from the generator's own bitgen_t, through the
    # functions numpy's methods call: the generator ends where six method
    # calls per period leave a fresh one, and the last period's buffers hold
    # that period's draws.
    n, m, steps = len(levels), sum(lvl > 0 for lvl in levels), 17
    cfg = config(agents=market_with_levels(levels, chartist_levels=levels[1:2]), steps_per_period=steps)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(6, 0, 0))
    rng = stream(6, 1, 0, 0)
    assert _kernel.bitgen_address(rng) == rng.bit_generator.ctypes.bit_generator.value
    session = MarketSession(cfg, path, rng)
    session.run()
    assert ran_compiled(session)
    fresh = stream(6, 1, 0, 0)
    for _ in range(cfg.n_periods):
        last = (fresh.permutation(n), fresh.random(m), fresh.standard_normal(m),
                fresh.integers(0, n, size=steps), fresh.random(steps), fresh.standard_normal(steps))
    assert session.rng.bit_generator.state == fresh.bit_generator.state
    perm, seeding_u, seeding_z, order, steps_u, steps_z = last
    assert np.array_equal(session._perm, perm) and np.array_equal(session._order, order)
    assert np.array_equal(session._u, np.concatenate([seeding_u, steps_u]))
    assert np.array_equal(session._z, np.concatenate([seeding_z, steps_z]))


@needs_kernel
def test_a_compiled_run_is_one_kernel_call(monkeypatch):
    # run() hands every remaining period to one call; nothing is drawn in
    # Python.
    cfg = config()
    spec = run(cfg, 2, python=True)
    lib, calls = _kernel.resolve(), []

    class Counted:
        def im_run_periods(self, session, bitgen, count):
            calls.append(count)
            return lib.im_run_periods(session, bitgen, count)

    def refuse(*args):
        pytest.fail("a compiled session drew in Python")

    monkeypatch.setattr(_kernel, "_resolved", (Counted(), None))
    monkeypatch.setattr(engine, "draw_period", refuse)
    fast = run(cfg, 2)
    assert fast[3] and calls == [cfg.n_periods]
    assert_same_session(spec, fast)
    # Periods run one at a time first leave the rest to one call.
    calls.clear()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(2, 0, 0))
    session = MarketSession(cfg, path, stream(2, 1, 0, 0))
    session.run_period()
    session.run_period()
    session.run()
    assert calls == [1, 1, cfg.n_periods - 2]
    assert_same_session(spec, (session.result(), session.rng.bit_generator.state, ending(session)))


@needs_kernel
def test_set_strategy_reaches_the_compiled_kernel():
    cfg = config(agents=market_with_levels((0, 1, 2, 3)))
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(8, 0, 0))
    results = []
    for python in (True, False):
        with python_loop() if python else nullcontext():
            session = MarketSession(cfg, path, stream(8, 1, 0, 0))
            for k in range(cfg.n_periods):
                if k == 2:
                    session.set_strategy(2, engine.Strategy.CHARTIST)
                session.run_period()
        assert ran_compiled(session) is not python
        results.append((session.result(), session.rng.bit_generator.state, ending(session)))
    assert_same_session(*results)


# -- the one state ----------------------------------------------------------


@pytest.mark.parametrize("python", [True, False], ids=["python", "compiled"])
def test_cash_and_shares_are_the_same_arrays_for_the_whole_session(python):
    if not python:
        require_kernel()
    cfg = config()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(3, 0, 0))
    with python_loop() if python else nullcontext():
        session = MarketSession(cfg, path, stream(3, 1, 0, 0))
        cash, shares = session.cash, session.shares
        session.run_period()
        assert session.cash is cash and session.shares is shares
        session.run()
    assert ran_compiled(session) is not python
    assert session.cash is cash and session.shares is shares
    assert cash.tolist() == session.result().cash_hist[-1].tolist()


@needs_kernel
def test_endowments_written_between_periods_reach_both_kernels():
    # Written before the first period and again between periods, as
    # switching does after each evaluation.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(3,)), clear_book_each_period=False)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(9, 0, 0))
    outcomes = []
    for python in (True, False):
        with python_loop() if python else nullcontext():
            session = MarketSession(cfg, path, stream(9, 1, 0, 0))
            for k in range(cfg.n_periods):
                if k in (0, 3):
                    session.cash[:] = [50.0 * (i + 1) for i in range(4)]
                    session.shares[:] = [i + k for i in range(4)]
                session.run_period()
        assert ran_compiled(session) is not python
        outcomes.append((session.result(), session.rng.bit_generator.state, ending(session)))
    assert_same_session(*outcomes)
    # Trades conserve shares, so each period's total is the last one written.
    totals = outcomes[0][0].shares_hist.sum(axis=1).tolist()
    assert totals == [4 * cfg.initial_shares] + [0 + 1 + 2 + 3] * 3 + [3 + 4 + 5 + 6] * 3


# -- choosing the kernel ----------------------------------------------------


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """A process that has not resolved the kernel yet, with an empty cache."""
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "infomarket"


def reference_outputs():
    """A session under the kernel this process resolves: (result, state, ending, compiled)."""
    cfg = config(clear_book_each_period=False, initial_cash=200.0, initial_shares=3)
    return run(cfg, 4)


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
@pytest.mark.parametrize("attr, moved, missing", [
    ("NUMPY_RANDOM_LIB", "lib/libnpyrandom.a", "lib/libnpyrandom.a"),
    ("NUMPY_INCLUDE", "include", "include/numpy/random/distributions.h"),
], ids=["library", "header"])
def test_missing_numpy_random_files_fall_back_to_python_with_the_same_outputs(
        fresh_kernel, monkeypatch, tmp_path, attr, moved, missing):
    compiled = reference_outputs()
    monkeypatch.setattr(_kernel, "_resolved", None)
    monkeypatch.setattr(_kernel, attr, tmp_path / moved)
    fallback = reference_outputs()
    assert compiled[3] and not fallback[3]
    assert str(tmp_path / missing) in _kernel._resolved[1]
    assert_same_session(compiled, fallback)


def test_the_cache_key_covers_the_numpy_version_and_the_command_line(monkeypatch, tmp_path):
    source = _kernel.SOURCE.read_bytes()
    key = _kernel.cache_key(source)
    assert _kernel.cache_key(source + b"\n") != key
    changes = [(np, "__version__", np.__version__ + ".post1"),
               (_kernel, "FLAGS", (*_kernel.FLAGS, "-g")),
               (_kernel, "NUMPY_RANDOM_LIB", tmp_path / "libnpyrandom.a"),
               (_kernel, "NUMPY_INCLUDE", tmp_path)]
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


def test_forced_c_refuses_patched_rules(monkeypatch):
    # A process whose kernel resolved to a loaded library still runs a
    # session with a patched rule in the Python loop, which calls the rule;
    # the compiled kernel would not.
    class Unusable:
        def __getattr__(self, name):
            pytest.fail(f"a session with a patched rule used the kernel's {name}")

    cfg = config(clear_book_each_period=False, initial_cash=200.0, initial_shares=3)
    spec = run(cfg, 4, python=True)
    calls = []

    def traced(*args):
        calls.append(args)
        return decide_random(*args)

    monkeypatch.setattr(_kernel, "_resolved", (Unusable(), None))
    monkeypatch.setattr(engine, "decide_random", traced)
    patched = run(cfg, 4)
    assert not patched[3] and calls
    assert_same_session(spec, patched)


def test_forced_python_never_resolves(fresh_kernel, monkeypatch):
    # A patched rule forces the Python loop, so the session never asks for
    # the compiled kernel: nothing is built and nothing is resolved.
    monkeypatch.setattr(_kernel, "_build", lambda: pytest.fail("built the kernel for a patched rule"))
    monkeypatch.setattr(engine, "decide_random", lambda *args: decide_random(*args))
    assert not reference_outputs()[3]
    assert _kernel._resolved is None


@needs_toolchain
def test_workers_inherit_the_kernel_the_parent_resolved(fresh_kernel, monkeypatch, tmp_path):
    # The parent resolves before it forks: the build runs once, in the
    # parent, and every session and chain, the parent's share and the
    # worker's, went through the library the parent loaded.
    builds, calls = tmp_path / "builds.log", tmp_path / "calls.log"
    build, load = _kernel._build, _kernel._load

    def logged_build():
        with open(builds, "a") as f:
            f.write(f"{os.getpid()}\n")
        return build()

    class Reporting:
        """A loaded library whose runs append "<pid> <function>" to calls.log."""

        def __init__(self, lib):
            self.lib = lib

        def __getattr__(self, name):
            function = getattr(self.lib, name)

            def reported(*args):
                with open(calls, "a") as f:
                    f.write(f"{os.getpid()} {name}\n")
                return function(*args)

            return reported if name.startswith("im_run_") else function

    monkeypatch.setattr(_kernel, "_build", logged_build)
    monkeypatch.setattr(_kernel, "_load", lambda path: Reporting(load(path)))
    batch = BatchConfig(session=config(), n_sessions=4, runs_per_session=2, master_seed=6, jobs=2)
    chains = SwitchingConfig(n_traders=3, n_periods=45, interval=5, steps_per_period=20)
    parallel = run_batch(batch), run_switching_ensemble(chains, (1, 4, 8), 6, jobs=2)
    assert builds.read_text().split() == [str(os.getpid())]
    assert calls.is_file(), f"no session or chain ran compiled: {_kernel._resolved[1]}"
    reports = [line.split() for line in calls.read_text().splitlines()]
    assert {pid for pid, _ in reports} - {str(os.getpid())}, "no session or chain ran in a worker"
    assert Counter(name for _, name in reports) == {"im_run_block": 4, "im_run_chain": 3}
    with python_loop():
        spec = run_batch(batch), run_switching_ensemble(chains, (1, 4, 8), 6, jobs=2)
    assert np.array_equal(parallel[0].rel_returns, spec[0].rel_returns)
    assert np.array_equal(parallel[0].asset_mean_returns, spec[0].asset_mean_returns)
    assert [run.codes.tolist() for run in parallel[1]] == [run.codes.tolist() for run in spec[1]]
