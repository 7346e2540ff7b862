"""The compiled session kernel against the Python loop, and how a session
picks its kernel.

The Python loop (`draw_period`, then `MarketSession._trade_period`) is the
specification: on the same inputs the compiled kernel must leave every
array bit for bit equal, and the generator in the same state. Both run on
the one state a session lays out at construction.

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
from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import MarketSession, SessionConfig, default_market, market_with_levels
from infomarket.montecarlo import BLOCK_SPEC, BatchConfig, run_batch, write_runs_csv
from infomarket.orderbook import Book
from infomarket.rng import stream
from infomarket.switching import SwitchingConfig, run_switching_ensemble, run_switching_sim, write_states_csv


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


def block(cfg, runs, seed, python=False, n_sessions=4, jobs=2, j=1):
    """Share j of `jobs` of a batch of `n_sessions` sessions: the batch-wide
    wealth, closes and walks it leaves (NaN in the other shares' rows), and
    the final state of each generator of its sessions, the walk's first. The
    compiled block runs where it is available unless `python` is set."""
    batch = BatchConfig(session=cfg, n_sessions=n_sessions, runs_per_session=runs, master_seed=seed)
    share = replace(montecarlo.batch_shares(batch, jobs)[j], states=np.zeros((n_sessions, runs + 1, 6), np.uint64))
    for output in (share.wealth, share.closes, share.walks):
        output.fill(np.nan)
    with python_loop() if python else nullcontext():
        assert montecarlo._run_session_block(share) == range(j, n_sessions, jobs)
    return [(a.dtype, a.shape, a.tobytes()) for a in (share.wealth, share.closes, share.walks, share.states)]


@st.composite
def blocks(draw):
    """1-17 traders as in `strategy_mixes`, clearing on or off, 1-6 periods,
    1-12 steps, any dividend walk, discount rate, endowments and initial
    price with a positive opening wealth, 1-4 runs, and one share of a batch
    of 1-5 sessions on 1-3 jobs."""
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
    jobs = draw(st.integers(1, min(3, n_sessions)))
    return cfg, draw(st.integers(1, 4)), n_sessions, jobs, draw(st.integers(0, jobs - 1))


@needs_kernel
@given(shape=blocks(), seed=st.integers(0, 2**130))
@example(shape=(config(agents=default_market(17), n_periods=2, steps_per_period=12), 3, 1, 1, 0), seed=0)
@example(shape=(config(agents=market_with_levels((0, 0, 0)), n_periods=1, steps_per_period=3), 2, 3, 2, 1), seed=1)
@example(shape=(config(), 2, 5, 3, 2), seed=2**64 + 5)
@settings(max_examples=80, deadline=None)
def test_compiled_block_matches_the_python_block(shape, seed):
    # Above 8 traders the cross-trader mean takes numpy's pairwise order;
    # a market without informed traders has no present values to compute,
    # and a master seed of 2**64 or more takes three key words.
    cfg, runs, n_sessions, jobs, j = shape
    assert block(cfg, runs, seed, False, n_sessions, jobs, j) == block(cfg, runs, seed, True, n_sessions, jobs, j)


@needs_kernel
def test_a_batch_block_is_one_kernel_call(monkeypatch):
    # Every session of the share, its dividend walk, its present-value table
    # and every run, runs in one call, on a state laid out without a
    # MarketSession.
    cfg = config(agents=market_with_levels((0, 1, 2, 3), chartist_levels=(2,)))
    spec = block(cfg, 4, 3, python=True)
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
    assert block(cfg, 4, 3) == spec
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
    compiled = block(cfg, 3, 8)
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
    assert block(cfg, 3, 8) == compiled
    assert calls


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
    # The kernel draws in C on a copy of the generator's state, with the
    # algorithms numpy's methods run, and hands the state back: the generator
    # ends where six method calls per period leave a fresh one, and the last
    # period's buffers hold that period's draws.
    n, m, steps = len(levels), sum(lvl > 0 for lvl in levels), 17
    cfg = config(agents=market_with_levels(levels, chartist_levels=levels[1:2]), steps_per_period=steps)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(6, 0, 0))
    session = MarketSession(cfg, path, stream(6, 1, 0, 0))
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
        def im_run_periods(self, session, state, count):
            calls.append(count)
            return lib.im_run_periods(session, state, count)

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


@needs_kernel
def test_a_generator_other_than_pcg64_runs_the_python_loop():
    # The kernel draws PCG64's stream only. A session or chain on another
    # bit generator runs the Python loop, which draws through numpy, with
    # the bits it gives where no kernel loads.
    cfg = config()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(7, 0, 0))
    chain_cfg = SwitchingConfig(n_traders=3, n_periods=30, interval=5, steps_per_period=20)
    outcomes = []
    for python in (True, False):
        with python_loop() if python else nullcontext():
            session = MarketSession(cfg, path, np.random.Generator(np.random.PCG64DXSM(7)))
            result = session.run()
            rng = np.random.Generator(np.random.PCG64DXSM(8))
            codes = run_switching_sim(chain_cfg, 3, rng).codes.tolist()
        assert not ran_compiled(session)
        outcomes.append((result, session.rng.bit_generator.state, ending(session), codes, rng.bit_generator.state))
    assert_same_session(*outcomes)
    assert outcomes[0][3:] == outcomes[1][3:]


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


# What a process whose numpy lacks one file runs: a session under a kernel
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
# self-check, the draw comparisons, one block and one chain against the
# Python loop.
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
cfg = t.config(agents=t.market_with_levels((0, 1, 2, 3, 0, 5), chartist_levels=(2,)))
assert t.block(cfg, 3, 5) == t.block(cfg, 3, 5, python=True)
chain = SwitchingConfig(n_traders=4, n_periods=45, interval=5, steps_per_period=20)
assert t.chain(chain, 6, 4) == t.chain(chain, 6, 4, python=True)
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


def test_a_loaded_kernel_leaves_a_patched_rule_to_the_python_loop(monkeypatch):
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


def test_a_patched_rule_never_builds_or_resolves_the_kernel(fresh_kernel, monkeypatch):
    # A patched rule forces the Python loop, so the session never asks for
    # the compiled kernel: nothing is built and nothing is resolved.
    monkeypatch.setattr(_kernel, "_build", lambda: pytest.fail("built the kernel for a patched rule"))
    monkeypatch.setattr(engine, "decide_random", lambda *args: decide_random(*args))
    assert not reference_outputs()[3]
    assert _kernel._resolved is None


@needs_toolchain
def test_share_threads_run_the_kernel_the_caller_resolved(fresh_kernel, monkeypatch, tmp_path):
    # The caller resolves before it starts the threads: the build runs once,
    # in the caller's thread, and every share (one call each) and chain went
    # through the library the caller loaded, on the threads and never on the
    # caller's.
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
    assert Counter(name for _, name in reports) == {"im_run_block": 2, "im_run_chain": 3}
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
    # ctypes.PyDLL would hold the GIL through every call, and parallel_map's
    # threads would run one at a time.
    lib = _kernel.resolve()
    assert type(lib) is ctypes.CDLL
    assert not lib.im_run_block._flags_ & ctypes._FUNCFLAG_PYTHONAPI
