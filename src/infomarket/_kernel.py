"""The compiled session kernel: build, cache and load `_kernel.c`, and describe
the session state it runs on.

`_kernel.c` runs the shares of batches and of switching ensembles; its
periods are the compiled twin of the Python loop, `engine.draw_period`
followed by `MarketSession._trade_period`, which stays the specification
and the only way a `MarketSession` runs. Both run on the same state: an
arena that `engine.lay_out_state` lays out, whose first bytes are the
kernel's `im_session` (`Session`, read and written by field name from
Python) and whose buffers those fields point to. There are two entry
points that trade, each of which runs one share of its work on one such
state: every share of a batch or an ensemble takes the next item (a
session or a chain) that no share has taken from a counter that all of
them share, until none is left, writes that item's rows of the outputs and
returns how many items it ran. One call of `im_run_block` (see `Block`)
runs a share of a batch: per session it draws the dividend walk, fills the
present-value table once and runs every run on its own generator;
`montecarlo`'s Python block stays its specification, and
`montecarlo.first_run` runs a one-run batch and reads its series back from
the state. The block seeds its generators itself: the kernel reproduces
numpy's `SeedSequence` (the 4-word pool, `hashmix`, `mix` and
`generate_state(4, uint64)`) and PCG64 (the 128-bit LCG step, the XSL-RR
output, the buffered 32-bit halves and `next_double`), so it draws
`rng.stream`'s streams without a Python generator. One call of
`im_run_chains` (see `Chain`) runs a share of a switching ensemble, each
chain from its own initial code on its own generator; `switching`'s Python
loop stays its specification. Its generators' six state words each
(`seeded_states` for the ensemble's `rng.stream` keys) go in, and the
words the kernel leaves come back. Both read the market, with its discount
factors, from the header. `montecarlo.run_kernel_shares` runs the shares
of both.
Nothing is built or loaded at import; the first batch, run or ensemble that
may use the kernel resolves it, once per process (`run_batch` and
`run_switching_ensemble` resolve it before they hand any task to a share
thread, and every share thread runs on the one loaded library; a call
through `ctypes.CDLL` releases the GIL, and the kernel keeps no global
state).

The kernel draws every variate itself, with numpy's algorithms:
`standard_normal` is numpy's 256-layer ziggurat on numpy's own tables,
copied into `_kernel.c`; `random` is `next_double`; `integers(0, n)` is
numpy's Lemire method on buffered 32-bit halves; and `permutation(n)` is
numpy's Fisher-Yates shuffle on masked rejection draws. NEP 19 lets numpy
change a distribution between releases, so `_load` checks the library
against the numpy in this process: `im_seed_pcg64`'s generator for
`CHECK_KEY`, then each of `CHECK_DRAWS` through `im_pcg64_draw`, against
`rng.stream` and numpy's `Generator` methods. A library that differs
anywhere is refused, and every batch and ensemble runs the Python loop,
which draws through numpy itself. So the build needs no numpy file. The
check runs at every load, so no cached library is used unchecked; the cache
key still holds `numpy.__version__`, so each numpy gets its own build.

Building: `gcc -O2 -ffp-contract=off -shared -fPIC -o <library> _kernel.c
-lm`, with neither `-ffast-math` nor `-march=native`, so every operation
rounds as Python's does. The library goes to
`${XDG_CACHE_HOME:-~/.cache}/infomarket/`, named by the sha256 of the
source, the command line and the numpy version. It is written under a
temporary name and renamed into place, so concurrent builds never load a
partial file.

Blocks (`montecarlo.BLOCK_SPEC`, for `batch`, `simulate` and `stats`) and
ensembles (`switching.ENSEMBLE_SPEC`, for `markov`) use the compiled kernel
whenever it builds and loads and nothing they call is patched
(`engine.compiled_kernel`), and run the Python loop otherwise.

The library also parses tick files: `im_parse_ticks`, which draws nothing
and uses no numpy random code, reads the plain `time,price` rows of a tick
file's body in one pass for `analytics.load_ticks`, which reads the file
with its row reader where no kernel loads or the parse refuses the file.

And it writes per-run CSV rows: `im_format_per_run` reads a chunk of a
C-contiguous (runs x k) float64 array, the k labels' text and
`pow10_table()`, and writes `session,run,label,value` rows, each ended in
"\\r\\n", for `montecarlo.write_runs_csv` and `write_efficiency_csv`. Each
value is exactly `repr(float(v))` for every double, subnormals, zero's
sign, nan and the infinities included: the shortest digits come from
Giulietti's Schubfach method, whose power-of-ten table is computed here
from Python integers. So there is nothing it hands back; where no kernel
loads, `montecarlo`'s Python generator, its specification, writes the rows.
`im_format_states` writes `markov`'s `states.csv` rows for
`switching.write_states_csv` the same way, `switching._state_blocks` being
their specification.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .agents import Strategy
from .rng import stream

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
STRATEGY_CODES = {Strategy.RANDOM: 0, Strategy.FUNDAMENTALIST: 1, Strategy.CHARTIST: 2}
# One resting order, as `im_order` in _kernel.c.
ORDER = np.dtype([("price", np.float64), ("seq", np.int64), ("trader", np.int64)])


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded."""


def find_compiler() -> str | None:
    return shutil.which("gcc")


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "infomarket"


_resolved: tuple[object, str | None] | None = None  # (library or None, why not), once resolved


def resolve():
    """The loaded kernel for this process's batches and ensembles, or None for the Python loop."""
    global _resolved
    if _resolved is None:
        try:
            _resolved = (_load(_build()), None)
        except KernelUnavailable as e:
            _resolved = (None, str(e))
    return _resolved[0]


def command(output: str) -> list[str]:
    """The compile command after the compiler, writing the library to
    `output`: the source and libm, nothing else."""
    return [*FLAGS, "-o", output, str(SOURCE), "-lm"]


def cache_key(source: bytes) -> str:
    """sha256 of the source, the command line and the numpy version.

    The command's output and source paths are left out, so every checkout
    of the same source shares one build.
    """
    line = [arg for arg in command("") if arg not in ("", str(SOURCE))]
    return hashlib.sha256("\0".join([np.__version__, *line]).encode() + b"\0" + source).hexdigest()


def _build() -> Path:
    """The cached library for the current source, compiled if it is not there yet."""
    try:
        source = SOURCE.read_bytes()
    except OSError as e:
        raise KernelUnavailable(f"cannot read the kernel source: {e}") from None
    target = cache_dir() / f"kernel-{cache_key(source)}.so"
    if target.is_file():
        return target
    compiler = find_compiler()
    if compiler is None:
        raise KernelUnavailable("no C compiler (gcc) was found")
    import subprocess

    tmp = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
        os.close(fd)
        proc = subprocess.run([compiler, *command(tmp)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelUnavailable(f"{compiler} failed on {SOURCE.name}:\n{proc.stderr}")
        os.replace(tmp, target)
        tmp = None
    except OSError as e:
        raise KernelUnavailable(f"cannot build the kernel in {target.parent}: {e}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)
    return target


def _fields(ctype, names: str) -> list[tuple[str, type]]:
    return [(name, ctype) for name in names.split()]


class Session(ctypes.Structure):
    """`im_session` in _kernel.c, field for field: the first bytes of a
    session's arena, with the market and the address of its discount
    factors. The pointers hold addresses of the arena's buffers
    (`engine.lay_out_state`)."""

    _fields_ = [*_fields(ctypes.c_int64, "n m steps clear"), ("growth", ctypes.c_double),
                *_fields(ctypes.c_int64, "periods path_extra top"),
                *_fields(ctypes.c_double, "r_e d0 sigma initial_cash"),
                ("initial_shares", ctypes.c_int64), ("initial_price", ctypes.c_double), ("powers", ctypes.c_void_p),
                *_fields(ctypes.c_void_p, "level strategy pv_table dividends cash shares held_cash held_shares"),
                *_fields(ctypes.c_void_p, "perm order u z asks bids"),
                *_fields(ctypes.c_int64, "book_cap n_asks n_bids seq"), ("prices", ctypes.c_void_p),
                ("n_prices", ctypes.c_int64),
                *_fields(ctypes.c_void_p, "trade_steps trade_prices trade_buyers trade_sellers"),
                ("n_trades", ctypes.c_int64),
                *_fields(ctypes.c_void_p, "cash_hist shares_hist period_end_prices"),
                ("periods_done", ctypes.c_int64), ("last_price", ctypes.c_double)]


class Block(ctypes.Structure):
    """`im_block` in _kernel.c: a share of a batch, the runs per session,
    the key words the streams derive from, the batch's session count, and
    the addresses of the counter every share takes its next session from
    and of the batch-wide outputs. The market is the session header's."""

    _fields_ = [("runs", ctypes.c_int64), ("master", ctypes.c_void_p),
                *_fields(ctypes.c_int64, "n_master path_domain run_domain n_sessions"),
                *_fields(ctypes.c_void_p, "next_session walks wealth closes states")]


class Chain(ctypes.Structure):
    """`im_chain` in _kernel.c: one share of a switching ensemble, the
    chains' length and evaluation interval, the addresses of the share's
    scratch buffers, the ensemble's chain count, and the addresses of the
    counter every share takes its next chain from and of the ensemble-wide
    generator states (six words per chain), codes (initial code first) and
    two tie counts. The market, and a segment's length, are the session
    header's."""

    _fields_ = [*_fields(ctypes.c_int64, "n_periods interval"),
                *_fields(ctypes.c_void_p, "walk marks returns"), ("n_chains", ctypes.c_int64),
                *_fields(ctypes.c_void_p, "next_chain states codes tie_events all_equal_events")]


def _load(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise KernelUnavailable(f"cannot load {path}: {e}") from None
    for mirror, size in ((Session, lib.im_session_size), (Block, lib.im_block_size), (Chain, lib.im_chain_size)):
        size.argtypes, size.restype = (), ctypes.c_int64
        if size() != ctypes.sizeof(mirror):
            raise KernelUnavailable(f"{path} does not match this package's session layout")
    lib.im_run_block.argtypes = (ctypes.c_void_p, ctypes.POINTER(Block))
    lib.im_run_block.restype = ctypes.c_int64
    lib.im_seed_pcg64.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    lib.im_seed_pcg64.restype = ctypes.c_int
    lib.im_pcg64_draw.argtypes = (ctypes.c_void_p, *[ctypes.c_int64] * 3, ctypes.c_void_p)
    lib.im_pcg64_draw.restype = ctypes.c_int
    lib.im_run_chains.argtypes = (ctypes.c_void_p, ctypes.POINTER(Chain))
    lib.im_run_chains.restype = ctypes.c_int64
    lib.im_parse_ticks.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
    lib.im_parse_ticks.restype = ctypes.c_int64
    lib.im_format_per_run.argtypes = (ctypes.c_void_p, *[ctypes.c_int64] * 4, *[ctypes.c_void_p] * 4)
    lib.im_format_per_run.restype = ctypes.c_int64
    lib.im_format_states.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_char_p, *[ctypes.c_int64] * 2,
                                     ctypes.c_void_p)
    lib.im_format_states.restype = ctypes.c_int64
    lib.pow10 = pow10_table()
    lib.path, lib.numpy_version = path, np.__version__  # which build a profile measured, checked against which numpy
    _check_seeding(lib)
    return lib


# A key whose master seed takes three words, and whose run index is odd.
CHECK_KEY = (2**64 + 5, 1, 3, 7)
DRAW_RAW, DRAW_INTEGERS, DRAW_RANDOM, DRAW_NORMAL, DRAW_PERMUTATION = range(5)  # `im_pcg64_draw`'s kinds
# What `_check_seeding` draws, in this order, from the generator seeded for
# CHECK_KEY: (name, kind, count, bound, numpy's draw). The normals reach every
# ziggurat layer, its wedges and its tail; the odd count of integers leaves
# a buffered 32-bit half for the permutation.
CHECK_DRAWS = (
    ("raw draw", DRAW_RAW, 1, 0, lambda rng, n: rng.bit_generator.random_raw(n)),
    ("standard_normal", DRAW_NORMAL, 4096, 0, lambda rng, n: rng.standard_normal(n)),
    ("random", DRAW_RANDOM, 64, 0, lambda rng, n: rng.random(n)),
    ("integers", DRAW_INTEGERS, 63, 7, lambda rng, n: rng.integers(0, 7, n)),
    ("permutation", DRAW_PERMUTATION, 10, 0, lambda rng, n: rng.permutation(n)),
)


def _check_seeding(lib) -> None:
    """Refuse a library whose generators or draws are not numpy's: the state
    `im_seed_pcg64` seeds for `CHECK_KEY`, then each of `CHECK_DRAWS` from it
    through `im_pcg64_draw` against numpy's `Generator`, then the state they
    leave. NEP 19 lets numpy change a distribution between releases; the
    Python loop, which draws through numpy, then stays the only kernel."""
    numpy_rng = stream(*CHECK_KEY)
    (state,) = seeded_states(lib, [CHECK_KEY])
    checks = [("seeded state", tuple(state.tolist()), pcg64_words(numpy_rng))]
    for name, kind, count, bound, numpy_draw in CHECK_DRAWS:
        drawn = np.empty(count, np.uint64)  # every kind draws 8-byte values
        lib.im_pcg64_draw(state.ctypes.data, kind, count, bound, drawn.ctypes.data)
        checks.append((name, drawn.tobytes(), numpy_draw(numpy_rng, count).tobytes()))
    checks.append(("final state", tuple(state.tolist()), pcg64_words(numpy_rng)))
    for name, kernel, numpy in checks:
        if kernel != numpy:
            raise KernelUnavailable(f"the kernel's {name} does not reproduce numpy {np.__version__}'s")


def key_words(*key: int) -> np.ndarray:
    """The uint32 entropy words `np.random.SeedSequence(key)` hashes: each
    component's 32-bit words from the lowest, one 0 word for 0. A negative
    component is refused as `rng.stream` refuses it."""
    if any(component < 0 for component in key):
        raise ValueError(f"stream key components must be non-negative, got {key}")
    words = []
    for component in key:
        words.append(component & 0xFFFFFFFF)
        while component := component >> 32:
            words.append(component & 0xFFFFFFFF)
    return np.array(words, np.uint32)


def pcg64_words(rng: np.random.Generator) -> tuple[int, ...]:
    """A PCG64 generator's state as the kernel writes it: state and inc, each
    as its high and low 64-bit words, then has_uint32 and uinteger."""
    state = rng.bit_generator.state
    seed, inc, low = state["state"]["state"], state["state"]["inc"], 2**64 - 1
    return seed >> 64, seed & low, inc >> 64, inc & low, state["has_uint32"], state["uinteger"]


def key_table(keys) -> tuple[np.ndarray, np.ndarray]:
    """`im_seed_pcg64`'s keys: the words of every key, one key after
    another, and where each key's words end."""
    words = [key_words(*key) for key in keys]
    return np.concatenate(words), np.cumsum([len(w) for w in words], dtype=np.int64)


def seeded_states(lib, keys) -> np.ndarray:
    """The state words of the generator `im_seed_pcg64` seeds for each key,
    one row of six per key."""
    (words, ends), states = key_table(keys), np.empty((len(keys), 6), np.uint64)
    lib.im_seed_pcg64(words.ctypes.data, ends.ctypes.data, len(keys), states.ctypes.data)
    return states


POW10_MIN, POW10_MAX = -292, 324  # 10**-k for every k = floor(log10(ulp)) of a double
FORMAT_BYTES = 70  # the most bytes `im_format_per_run` writes per value, besides its label
STATE_ROW_BYTES = 42  # the most bytes `im_format_states` writes per row, besides its head


def pow10_table() -> np.ndarray:
    """`im_format_per_run`'s powers of ten: row j - POW10_MIN holds
    g = ceil(10**j / 2**e), with 2**127 <= g < 2**128, as its high and low
    64-bit words; computed exactly with Python integers."""
    table = np.empty((POW10_MAX - POW10_MIN + 1, 2), np.uint64)
    for row, j in enumerate(range(POW10_MIN, POW10_MAX + 1)):
        if j >= 0:
            e = (10**j).bit_length() - 128
            g = 10**j << -e if e <= 0 else -(-(10**j) >> e)
        else:  # 10**j = 1 / 10**-j, which is no power of two
            g = -(-(1 << (10**-j).bit_length() + 127) // 10**-j)
        table[row] = g >> 64, g & (2**64 - 1)
    return table

