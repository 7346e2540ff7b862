"""The compiled session kernel: build, cache and load `_kernel.c`, and hold a
session's state in the flat buffers it trades on.

`_kernel.c` is the compiled twin of `MarketSession._trade_period`, which
stays the specification and the fallback. Nothing is built or loaded at
import; the first session that may use the kernel resolves it, once per
process (`montecarlo.parallel_map` resolves it before it forks, so pool
workers inherit the loaded library).

Building: `gcc -O2 -ffp-contract=off -shared -fPIC`, with neither
`-ffast-math` nor `-march=native`, so every operation rounds as Python's
does. The library goes to `${XDG_CACHE_HOME:-~/.cache}/infomarket/`, named
by the sha256 of the source and the flags. It is written under a temporary
name and renamed into place, so concurrent builds never load a partial file.

`INFOMARKET_KERNEL` picks the kernel: `python` always runs the Python loop;
`c` requires the compiled kernel and raises `KernelUnavailable` without it;
unset, sessions use the compiled kernel whenever it builds and loads.
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

ENV = "INFOMARKET_KERNEL"
SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
STRATEGY_CODES = {Strategy.RANDOM: 0, Strategy.FUNDAMENTALIST: 1, Strategy.CHARTIST: 2}
# One resting order, as `im_order` in _kernel.c.
ORDER = np.dtype([("price", np.float64), ("seq", np.int64), ("trader", np.int64)])


class KernelUnavailable(RuntimeError):
    """The compiled kernel was required but cannot be built, loaded or used."""


def find_compiler() -> str | None:
    return shutil.which("gcc")


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "infomarket"


_resolved: tuple[object, str | None] | None = None  # (library or None, why not), once resolved


def resolve(patched=()):
    """The loaded kernel for this process's sessions, or None for the Python loop.

    `patched` names the rules or book methods a caller has replaced; the
    compiled kernel would not call them, so they send the session to Python.
    """
    global _resolved
    mode = os.environ.get(ENV, "")
    if mode not in ("", "python", "c"):
        raise ValueError(f"{ENV} must be 'python' or 'c', got {mode!r}")
    if mode == "python":
        return None
    if patched:
        if mode == "c":
            raise KernelUnavailable(f"{ENV}=c, but {', '.join(patched)} is patched, "
                                    "which the compiled kernel would not call")
        return None
    if _resolved is None:
        try:
            _resolved = (_load(_build()), None)
        except KernelUnavailable as e:
            _resolved = (None, str(e))
    lib, reason = _resolved
    if lib is None and mode == "c":
        raise KernelUnavailable(f"{ENV}=c, but {reason}")
    return lib


def _build() -> Path:
    """The cached library for the current source, compiled if it is not there yet."""
    try:
        source = SOURCE.read_bytes()
    except OSError as e:
        raise KernelUnavailable(f"cannot read the kernel source: {e}") from None
    key = hashlib.sha256(" ".join(FLAGS).encode() + b"\0" + source).hexdigest()
    target = cache_dir() / f"kernel-{key}.so"
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
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True)
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


# `im_session` in _kernel.c, field for field. Every field is 8 bytes: an
# int64, a double (GROWTH, LAST_PRICE) or a pointer into the session's arena.
FIELDS = (
    "n", "steps", "clear", "growth",
    "level", "strategy", "pv", "cash", "shares", "held_cash", "held_shares",
    "perm", "order", "u", "z",
    "asks", "bids", "book_cap", "n_asks", "n_bids", "seq",
    "prices", "n_prices", "trade_steps", "trade_prices", "trade_buyers", "trade_sellers", "n_trades",
    "cash_hist", "shares_hist", "period_end_prices", "periods_done", "last_price",
)
SLOT = {name: i for i, name in enumerate(FIELDS)}


def _load(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise KernelUnavailable(f"cannot load {path}: {e}") from None
    lib.im_session_size.restype = ctypes.c_int64
    if lib.im_session_size() != 8 * len(FIELDS):
        raise KernelUnavailable(f"{path} does not match this package's session layout")
    lib.im_trade_period.argtypes = (ctypes.c_void_p, ctypes.c_double)
    lib.im_trade_period.restype = ctypes.c_int
    return lib


class BookView:
    """The compiled session's book, read-only: its size and best quotes."""

    __slots__ = ("_header", "_asks", "_bids")

    def __init__(self, header: np.ndarray, asks: np.ndarray, bids: np.ndarray) -> None:
        self._header, self._asks, self._bids = header, asks, bids

    def best_bid(self) -> float | None:
        return float(self._bids[0]["price"]) if self._header[SLOT["n_bids"]] else None

    def best_ask(self) -> float | None:
        return float(self._asks[0]["price"]) if self._header[SLOT["n_asks"]] else None

    def __len__(self) -> int:
        return int(self._header[SLOT["n_asks"]] + self._header[SLOT["n_bids"]])


class CSession:
    """A session's trading state in flat buffers, advanced by the compiled kernel.

    It takes over a `MarketSession` before its first period. cash, shares,
    the holds, both books, the price series, the trade arrays and the
    period's draws live in one arena, sized from `n_periods x (steps + n)`,
    whose first bytes are the kernel's `im_session`.
    """

    def __init__(self, lib, session) -> None:
        config = session.config
        n, steps, periods = session.n_agents, config.steps_per_period, config.n_periods
        m = session._draws.m
        book_cap = (steps + n) * (1 if config.clear_book_each_period else periods)
        trade_cap = periods * (steps + n)
        f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
        layout = (
            ("level", i8, n), ("strategy", i8, n), ("pv", f8, n), ("cash", f8, n), ("shares", i8, n),
            ("held_cash", f8, n), ("held_shares", i8, n),
            ("perm", i8, n), ("order", i8, steps), ("u", f8, m + steps), ("z", f8, m + steps),
            ("asks", ORDER, book_cap), ("bids", ORDER, book_cap), ("prices", f8, periods * steps),
            ("trade_steps", i8, trade_cap), ("trade_prices", f8, trade_cap),
            ("trade_buyers", i8, trade_cap), ("trade_sellers", i8, trade_cap),
            ("cash_hist", f8, (periods + 1) * n), ("shares_hist", i8, (periods + 1) * n),
            ("period_end_prices", f8, periods),
        )
        header_bytes = 8 * len(FIELDS)
        arena = np.empty(header_bytes + sum(dtype.itemsize * count for _, dtype, count in layout), np.uint8)
        base = arena.ctypes.data
        fields = dict.fromkeys(FIELDS, 0)
        offset = header_bytes
        for name, dtype, count in layout:
            size = dtype.itemsize * count
            setattr(self, name, arena[offset: offset + size].view(dtype))
            fields[name] = base + offset
            offset += size
        fields.update(n=n, steps=steps, clear=int(config.clear_book_each_period), book_cap=book_cap)
        self.header = arena[:header_bytes].view(np.int64)
        self.header[:] = list(fields.values())
        doubles = arena[:header_bytes].view(np.float64)
        doubles[SLOT["growth"]] = 1.0 + config.rates.r_f
        doubles[SLOT["last_price"]] = session.last_price
        self._doubles = doubles
        self.level[:] = session.levels
        self.strategy[:] = [STRATEGY_CODES[s] for s in session.strategies]
        self.pv[:] = 0.0
        self.cash[:] = session.cash
        self.shares[:] = session.shares
        self.held_cash[:] = 0.0
        self.held_shares[:] = 0
        self.cash_hist = self.cash_hist.reshape(periods + 1, n)
        self.shares_hist = self.shares_hist.reshape(periods + 1, n)
        self.cash_hist[0] = session._cash_hist[0]
        self.shares_hist[0] = session._shares_hist[0]
        self.book = BookView(self.header, self.asks, self.bids)
        self._arena = arena  # the kernel holds raw pointers into it
        self._address = base
        self._trade = lib.im_trade_period

    @property
    def last_price(self) -> float:
        return float(self._doubles[SLOT["last_price"]])

    @property
    def n_prices(self) -> int:
        return int(self.header[SLOT["n_prices"]])

    def trade_period(self, draws, d: float) -> None:
        """`MarketSession._trade_period`, compiled. `draws` is the session's
        `PeriodDraws`, whose buffers are the ones in this arena."""
        if self._trade(self._address, d):
            raise RuntimeError("order book capacity exceeded")

    def set_strategy(self, agent_idx: int, strategy: Strategy) -> None:
        self.strategy[agent_idx] = STRATEGY_CODES[strategy]

    def result_arrays(self) -> tuple[np.ndarray, ...]:
        """Copies of the series so far, in `SessionResult`'s field order."""
        header = self.header
        steps, trades, periods = self.n_prices, int(header[SLOT["n_trades"]]), int(header[SLOT["periods_done"]])
        return (
            self.prices[:steps].copy(),
            self.trade_steps[:trades].copy(),
            self.trade_prices[:trades].copy(),
            self.trade_buyers[:trades].copy(),
            self.trade_sellers[:trades].copy(),
            self.cash_hist[: periods + 1].copy(),
            self.shares_hist[: periods + 1].copy(),
            self.period_end_prices[:periods].copy(),
        )
