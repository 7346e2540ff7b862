"""One market session: random serial trader activation over fixed-length periods.

Each period starts with an information delivery (the period's present values
for the informed traders) and a seeding pass in which every informed trader
acts once in a shuffled order, repopulating the book after a clearing. The
period body is a fixed number of steps; in each step one uniformly chosen
trader acts. At the period end, cash earns the risk-free rate, shares pay
the period's dividend, and the book is cleared (unless configured
otherwise).

The trading rules decide whether an order trades now or rests; the session
only checks that the trader can afford it and places or executes it. Traders
can neither short nor buy on credit: an order is refused when the trader's
free shares or free cash (net of what its resting orders commit) do not
cover it.

A session's state is one arena of flat buffers (cash, shares, the holds,
the rules, the present-value table, the dividends, the period's draws, the
book, the price series, the trades and the histories) behind a header, laid
out by `lay_out_state` as the compiled kernel's `im_session` and read from
Python through its ctypes mirror, `_kernel.Session`. The table (period x
trader) comes from `present_value_table`, cached on the dividend path, so
every run of a batch session shares it; each period reads its row in place.

`MarketSession` is the Python loop, the specification, and runs nothing
else: per period, `draw_period` fills the draw buffers and
`MarketSession._trade_period` runs the activations on them and the period's
row of the table, and draws nothing. It binds plain lists from the state
once per period, keeps its book in a `Book` of its own, asks it for the
best quotes, calls the rules in `agents` with plain arguments, places or
executes through the `Book` methods, and writes the period back into the
state at its end. The rules and book methods are looked up by name once per
period, so patching `engine.decide_*` or a `Book` method (as the
benchmark's tracer does) reaches every activation.

The compiled kernel runs the same periods, with the same bits, only inside
the shares of batches (`montecarlo.run_batch`, and `montecarlo.first_run`
for the one run of `simulate` and `stats`) and of switching ensembles
(`switching.run_switching_ensemble`), each share on one state laid out by
`lay_out_state` before any share starts (`montecarlo.run_kernel_shares`);
`session_result` reads a run's series from such a state, whichever ran
it. `compiled_kernel` decides for a block or an ensemble whether the
kernel runs it.

The session's generator is drawn from in bulk, in this order per period:
`permutation(n)` for the seeding pass, then `random(m)` and
`standard_normal(m)` for its m informed activations; `integers(0, n,
size=steps)` for the steps, then `random(steps)` and
`standard_normal(steps)`. Activation j of a pass gets the j-th uniform and
normal, whether or not its rule uses them, so no rule touches a generator.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernel
from .agents import (
    AgentSpec,
    Strategy,
    decide_chartist,
    decide_fundamentalist,
    decide_random,
)
from .csvout import fmt, write_csv
from .dividends import DividendParams, DividendPath, RateParams, conditional_present_value, write_dividends_csv
from .orderbook import Book


def held(namespace, *names) -> tuple:
    """(namespace, name, what it holds now) for each name, for `compiled_kernel`
    to check later that nothing patched them."""
    return tuple((namespace, name, namespace[name]) for name in names)


# The package's own rules and book methods: a block or an ensemble whose
# names no longer hold them (a tracer or a test patched them) runs the
# Python loop, which calls them.
SESSION_SPEC = (*held(globals(), "decide_random", "decide_fundamentalist", "decide_chartist"),
                *held(vars(Book), "place_limit", "execute_marketable", "best_bid", "best_ask", "clear"))
# The rules as the state's `_strategy` codes them.
_RANDOM, _FUNDAMENTALIST = (_kernel.STRATEGY_CODES[s] for s in (Strategy.RANDOM, Strategy.FUNDAMENTALIST))


def compiled_kernel(spec):
    """The loaded compiled kernel, or None for the Python loop: a name in
    `spec` no longer holds what it held at import (it is patched), or the
    kernel cannot be built and loaded. A patched name decides first, so it
    never builds or resolves the kernel."""
    if any(namespace.get(name) is not spec_object for namespace, name, spec_object in spec):
        return None
    return _kernel.resolve()


def market_with_levels(levels, chartist_levels=()) -> tuple[AgentSpec, ...]:
    """One trader per information level: level 0 random, the rest fundamentalist
    unless the level is listed in chartist_levels."""
    specs = []
    for idx, lvl in enumerate(levels):
        if lvl == 0:
            strat = Strategy.RANDOM
        elif lvl in chartist_levels:
            strat = Strategy.CHARTIST
        else:
            strat = Strategy.FUNDAMENTALIST
        specs.append(AgentSpec(idx, lvl, strat))
    return tuple(specs)


def default_market(n_agents: int = 10) -> tuple[AgentSpec, ...]:
    """Levels 0..n-1, so the least informed traders are always present."""
    return market_with_levels(range(n_agents))


def require_integers(config, *names: str) -> None:
    """Refuse a config whose field in `names` is not an integer (as
    `operator.index` takes one), with a ValueError that names the field: a
    run would otherwise fail at its start with a bare TypeError."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SessionConfig:
    """One market session; the defaults are the reference market."""

    agents: tuple[AgentSpec, ...] = field(default_factory=default_market)
    dividends: DividendParams = DividendParams()
    rates: RateParams = RateParams()
    n_periods: int = 30
    steps_per_period: int = 100
    initial_cash: float = 1600.0
    initial_shares: int = 40
    initial_price: float = 40.0
    clear_book_each_period: bool = True

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("a session needs at least one trader")
        for idx, spec in enumerate(self.agents):
            if spec.agent_id != idx:
                raise ValueError(f"agent ids must equal their position, got {spec.agent_id} at {idx}")
        informed = [a.info_level for a in self.agents if a.info_level > 0]
        if len(set(informed)) != len(informed):
            raise ValueError(f"one trader per informed level, got {informed}")
        require_integers(self, "initial_shares", "n_periods", "steps_per_period")
        if self.n_periods < 1 or self.steps_per_period < 1:
            raise ValueError("n_periods and steps_per_period must be >= 1")
        # A NaN or infinite price or cash would run sessions of NaN marks
        # under either kernel, so they are refused here, before any run.
        if not (self.initial_price > 0 and math.isfinite(self.initial_price)):
            raise ValueError(f"initial_price must be positive and finite, got {self.initial_price}")
        if not (self.initial_cash >= 0 and math.isfinite(self.initial_cash)):
            raise ValueError(f"initial_cash must be non-negative and finite, got {self.initial_cash}")
        if self.initial_shares < 0:
            raise ValueError("initial endowments must be non-negative")

    # The cached properties below are computed once per config: every
    # session of a batch block, and every chain of an ensemble, shares one.
    @functools.cached_property
    def levels(self) -> tuple[int, ...]:
        return tuple(a.info_level for a in self.agents)

    @functools.cached_property
    def strategy_codes(self) -> tuple[int, ...]:
        """Each trader's rule as `_kernel.c` numbers it."""
        return tuple(_kernel.STRATEGY_CODES[a.strategy] for a in self.agents)

    @functools.cached_property
    def max_level(self) -> int:
        return max(self.levels)

    @functools.cached_property
    def required_path_length(self) -> int:
        # The most informed trader reads up to D(n_periods + max_level - 1).
        return self.n_periods + max(self.max_level, 1) - 1

    @property
    def path_length(self) -> int:
        """Dividends to draw for this session: its periods plus the top level.

        The top level is floored at the reference market's 9, so a market of
        up to 10 traders draws what the reference market draws and every
        existing random stream keeps its layout.
        """
        return self.n_periods + max(9, self.max_level)


@dataclass(frozen=True)
class SessionResult:
    """Everything one run produces: price/trade series and the full accounting."""

    config: SessionConfig
    path: DividendPath
    prices: np.ndarray  # per-step last trade price
    trade_steps: np.ndarray
    trade_prices: np.ndarray
    trade_buyers: np.ndarray
    trade_sellers: np.ndarray
    cash_hist: np.ndarray  # (n_periods + 1, n_agents), row 0 = initial
    shares_hist: np.ndarray
    period_end_prices: np.ndarray  # (n_periods,)

    @property
    def n_agents(self) -> int:
        return len(self.config.agents)

    def initial_wealth(self) -> np.ndarray:
        return self.cash_hist[0] + self.shares_hist[0] * self.config.initial_price

    def final_wealth(self) -> np.ndarray:
        """Final cash plus shares marked at the last trade price."""
        return self.cash_hist[-1] + self.shares_hist[-1] * self.period_end_prices[-1]

    def wealth_history(self) -> np.ndarray:
        """(n_periods + 1, n_agents) wealth, shares marked at each period's last price."""
        marks = np.concatenate(([self.config.initial_price], self.period_end_prices))
        return self.cash_hist + self.shares_hist * marks[:, None]


def draw_period(rng: np.random.Generator, perm: np.ndarray, seeding_u: np.ndarray, seeding_z: np.ndarray,
                order: np.ndarray, steps_u: np.ndarray, steps_z: np.ndarray) -> None:
    """Fill one period's variates from `rng`, in the documented layout (see
    the module docstring) and in the order of the arguments.

    `perm` takes a permutation of all n traders, of which the m informed ones
    act in the seeding pass; `order` takes the steps' traders.
    """
    perm[:] = rng.permutation(len(perm))
    rng.random(out=seeding_u)
    rng.standard_normal(out=seeding_z)
    order[:] = rng.integers(0, len(perm), size=len(order))
    rng.random(out=steps_u)
    rng.standard_normal(out=steps_z)


def present_value_table(path: DividendPath, levels: tuple[int, ...], n_periods: int, r_e: float) -> np.ndarray:
    """Each trader's present value at each period: (n_periods, len(levels)),
    row k - 1 for period k, 0.0 for an uninformed trader.

    Each value is one `conditional_present_value` call, and the table is
    cached on the path by (levels, n_periods, r_e), so every run of a batch
    session shares it (the compiled block fills its own, once per block).
    """
    key = (levels, n_periods, r_e)
    table = path.present_value_tables.get(key)
    if table is None:
        rows = [[conditional_present_value(path, lvl, k, r_e) if lvl > 0 else 0.0 for lvl in levels]
                for k in range(1, n_periods + 1)]
        table = path.present_value_tables[key] = np.array(rows, dtype=np.float64)
        table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _arena_layout(n: int, m: int, steps: int, periods: int, clear: bool, top: int):
    """The session arena for one shape: its size in bytes, its book's
    capacity per side, and each buffer as (`im_session` field, attribute,
    shape, dtype, offset)."""
    # Each activation places at most one order, so a side never holds more
    # than a period's activations, or the session's without clearing.
    book_cap = (steps + n) * (1 if clear else periods)
    trade_cap = periods * (steps + n)
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    # (im_session field, dtype, shape) after the header; every buffer but
    # cash and shares is private, under the field's name with a "_".
    layout = (
        ("powers", f8, top), ("level", i8, n), ("strategy", i8, n), ("pv_table", f8, (periods, n)),
        ("dividends", f8, periods), ("cash", f8, n), ("shares", i8, n),
        ("held_cash", f8, n), ("held_shares", i8, n),
        ("perm", i8, n), ("order", i8, steps), ("u", f8, m + steps), ("z", f8, m + steps),
        ("asks", _kernel.ORDER, book_cap), ("bids", _kernel.ORDER, book_cap), ("prices", f8, periods * steps),
        ("trade_steps", i8, trade_cap), ("trade_prices", f8, trade_cap),
        ("trade_buyers", i8, trade_cap), ("trade_sellers", i8, trade_cap),
        ("cash_hist", f8, (periods + 1, n)), ("shares_hist", i8, (periods + 1, n)),
        ("period_end_prices", f8, periods),
    )
    buffers = []
    offset = ctypes.sizeof(_kernel.Session)
    for name, dtype, shape in layout:
        buffers.append((name, name if name in ("cash", "shares") else f"_{name}", shape, dtype, offset))
        offset += dtype.itemsize * int(np.prod(shape))
    return offset, book_cap, tuple(buffers)


def lay_out_state(config: SessionConfig) -> dict:
    """A new session state for `config`: its arena's buffers by attribute,
    the arena's `im_session` header (`_session`, a `_kernel.Session`) and
    the arena itself (`_arena`), which the compiled kernel holds raw
    pointers into. The header's counters are zero; its sizes, pointers,
    growth and market (periods, path_extra, top, r_e, d0, sigma, the
    endowments and the price, which the compiled block and chain read) are
    set, as are the levels, the strategies and the discount factors
    `_powers`; the rest is the caller's to fill."""
    levels, periods, top = config.levels, config.n_periods, config.max_level
    n, m = len(levels), len(levels) - levels.count(0)
    steps, clear = config.steps_per_period, config.clear_book_each_period
    size, book_cap, buffers = _arena_layout(n, m, steps, periods, clear, top)
    arena = np.empty(size, np.uint8)
    state = {attr: np.ndarray(shape, dtype, arena, offset) for _, attr, shape, dtype, offset in buffers}
    state["_arena"] = arena
    # np.empty leaves the header's bytes as they were: zero every counter first.
    session = state["_session"] = _kernel.Session.from_buffer(arena)
    ctypes.memset(ctypes.addressof(session), 0, ctypes.sizeof(session))
    base = arena.ctypes.data
    for name, _, _, _, offset in buffers:
        setattr(session, name, base + offset)
    session.n, session.m, session.steps, session.clear, session.book_cap = n, m, steps, clear, book_cap
    session.growth = 1.0 + config.rates.r_f
    session.periods, session.path_extra, session.top = periods, config.path_length - periods, top
    session.r_e, session.d0, session.sigma = config.rates.r_e, config.dividends.d0, config.dividends.sigma
    session.initial_cash, session.initial_shares = config.initial_cash, config.initial_shares
    session.initial_price = session.last_price = config.initial_price
    # (1 + r_e) ** k, k = -1 .. top - 2, by Python's `**`: libm's pow, as conditional_present_value takes
    # it (np.power may vectorise).
    state["_powers"][:] = [(1.0 + config.rates.r_e) ** k for k in range(-1, top - 1)]
    state["_level"][:] = levels
    state["_strategy"][:] = config.strategy_codes
    return state


class MarketSession:
    """Mutable session state; drive it period by period or via run().

    The state is one arena of flat buffers, laid out at construction by
    `lay_out_state`. `cash` and `shares` are two of its numpy arrays, the
    same ones for the whole session and writable between periods; `prices`
    is a view of its price series. `book` is the Python loop's `Book`.
    """

    def __init__(self, config: SessionConfig, path: DividendPath, rng: np.random.Generator) -> None:
        if len(path) < config.required_path_length:
            raise ValueError(
                f"dividend path has {len(path)} periods, session needs {config.required_path_length}"
            )
        self.config = config
        self.path = path
        self.rng = rng
        self.n_agents = len(config.agents)
        self.levels = config.levels
        vars(self).update(lay_out_state(config))
        periods = config.n_periods
        self._pv_table[:] = present_value_table(path, self.levels, periods, config.rates.r_e)
        self._dividends[:] = path.values[:periods]
        self.cash[:] = config.initial_cash
        self.shares[:] = config.initial_shares
        self._held_cash[:] = 0.0
        self._held_shares[:] = 0
        self._cash_hist[0] = self.cash
        self._shares_hist[0] = self.shares
        self.book = Book()
        m = self._session.m
        self._draws = (self._perm, self._u[:m], self._z[:m], self._order, self._u[m:], self._z[m:])

    @property
    def periods_done(self) -> int:
        return self._session.periods_done

    @property
    def prices(self) -> np.ndarray:
        """The last price after each completed step: a view of the session's buffer."""
        return self._prices[: self._session.n_prices]

    @property
    def last_price(self) -> float:
        return self._session.last_price

    def set_strategy(self, agent_idx: int, strategy: Strategy) -> None:
        if strategy is Strategy.RANDOM:
            raise ValueError("cannot switch a trader to the random rule")
        if self.levels[agent_idx] == 0:
            raise ValueError("the uninformed trader keeps the random rule")
        self._strategy[agent_idx] = _kernel.STRATEGY_CODES[strategy]

    def run_period(self) -> None:
        if self.periods_done >= self.config.n_periods:
            raise RuntimeError("session already complete")
        draw_period(self.rng, *self._draws)
        self._trade_period(self.path.dividend(self.periods_done + 1))

    def run(self) -> SessionResult:
        """The remaining periods, one `run_period` each, then the result."""
        while self.periods_done < self.config.n_periods:
            self.run_period()
        return self.result()

    def _trade_period(self, d: float) -> None:
        """One period's activations on this period's draws, then its settlement.

        It draws nothing: its inputs are the draws, the strategies, the
        period's row of the present-value table, the dividend d, the rates
        and the clearing flag. It trades on plain lists bound from the state
        and writes the period back into the state as `_kernel.c`'s
        `trade_period` leaves it.
        """
        config = self.config
        session = self._session
        # Everything the activation loop touches, bound once per period.
        n = self.n_agents
        levels, strategies = self.levels, self._strategy.tolist()
        pv = self._pv_table[session.periods_done].tolist()
        cash, shares = self.cash.tolist(), self.shares.tolist()
        held_cash, held_shares = self._held_cash.tolist(), self._held_shares.tolist()
        prices = self._prices
        t = session.n_prices  # steps so far
        book = self.book
        best_bid, best_ask = book.best_bid, book.best_ask
        place_limit, execute_marketable = book.place_limit, book.execute_marketable
        random_rule, value_rule, trend_rule = decide_random, decide_fundamentalist, decide_chartist
        RANDOM, FUNDAMENTALIST = _RANDOM, _FUNDAMENTALIST
        trade_steps, trade_prices, trade_buyers, trade_sellers = [], [], [], []
        p = self.last_price
        perm, seeding_u, seeding_z, order, steps_u, steps_z = self._draws
        # The seeding pass (each informed trader once, shuffled; the
        # uninformed trader quotes off the last price only during the steps)
        # records no price; each step records the last price after it.
        passes = (
            ([i for i in perm.tolist() if levels[i] > 0], seeding_u.tolist(), seeding_z.tolist(), False),
            (order.tolist(), steps_u.tolist(), steps_z.tolist(), True),
        )
        for traders, pass_us, pass_zs, stepping in passes:
            for i, u, z in zip(traders, pass_us, pass_zs):
                bid = best_bid()
                ask = best_ask()
                strat = strategies[i]
                if strat == RANDOM:
                    kind, price = random_rule(p, bid, ask, u, z)
                elif strat == FUNDAMENTALIST:
                    kind, price = value_rule(pv[i], p, bid, ask, z)
                else:
                    kind, price = trend_rule(p, bid, ask, prices[:t], u, z)
                # The trader must afford the intent: no shorting, no credit,
                # counting what its resting orders already commit.
                if kind == "limit_bid":
                    if cash[i] - held_cash[i] >= price:
                        place_limit(i, "bid", price)
                        held_cash[i] += price
                elif kind == "limit_ask":
                    if shares[i] - held_shares[i] >= 1:
                        place_limit(i, "ask", price)
                        held_shares[i] += 1
                elif kind == "market_sell":
                    if shares[i] - held_shares[i] >= 1:
                        trade = execute_marketable("sell", i, t + 1)
                        if trade is not None:
                            p = trade.price
                            buyer = trade.buyer_id
                            cash[buyer] -= p
                            shares[buyer] += 1
                            held_cash[buyer] -= p
                            cash[i] += p
                            shares[i] -= 1
                            trade_steps.append(t + 1)
                            trade_prices.append(p)
                            trade_buyers.append(buyer)
                            trade_sellers.append(i)
                elif kind == "market_buy":
                    if ask is not None and cash[i] - held_cash[i] >= ask:
                        trade = execute_marketable("buy", i, t + 1)
                        p = trade.price
                        seller = trade.seller_id
                        cash[i] -= p
                        shares[i] += 1
                        cash[seller] += p
                        shares[seller] -= 1
                        held_shares[seller] -= 1
                        trade_steps.append(t + 1)
                        trade_prices.append(p)
                        trade_buyers.append(i)
                        trade_sellers.append(seller)
                if stepping:
                    prices[t] = p
                    t += 1
        growth = 1.0 + config.rates.r_f
        for i in range(n):
            cash[i] = cash[i] * growth + shares[i] * d
        if config.clear_book_each_period:
            book.clear()
            held_cash, held_shares = [0.0] * n, [0] * n
        # The period, written back as _kernel.c's trade_period leaves it; the book
        # stays in the `Book`.
        k = session.periods_done + 1
        self.cash[:] = self._cash_hist[k] = cash
        self.shares[:] = self._shares_hist[k] = shares
        self._held_cash[:] = held_cash
        self._held_shares[:] = held_shares
        j = session.n_trades
        for buffer, values in ((self._trade_steps, trade_steps), (self._trade_prices, trade_prices),
                               (self._trade_buyers, trade_buyers), (self._trade_sellers, trade_sellers)):
            buffer[j: j + len(values)] = values
        session.n_trades = j + len(trade_steps)
        session.n_prices = t
        session.periods_done = k
        self._period_end_prices[k - 1] = p
        session.last_price = p

    def result(self) -> SessionResult:
        """Copies of the series so far."""
        return session_result(self.config, self.path, vars(self))


def session_result(config: SessionConfig, path: DividendPath, state: dict) -> SessionResult:
    """Copies of the series so far in a session state laid out by
    `lay_out_state`, which the Python loop or the compiled kernel ran."""
    header = state["_session"]
    steps, trades, periods = header.n_prices, header.n_trades, header.periods_done
    return SessionResult(
        config=config,
        path=path,
        prices=state["_prices"][:steps].copy(),
        trade_steps=state["_trade_steps"][:trades].copy(),
        trade_prices=state["_trade_prices"][:trades].copy(),
        trade_buyers=state["_trade_buyers"][:trades].copy(),
        trade_sellers=state["_trade_sellers"][:trades].copy(),
        cash_hist=state["_cash_hist"][: periods + 1].copy(),
        shares_hist=state["_shares_hist"][: periods + 1].copy(),
        period_end_prices=state["_period_end_prices"][:periods].copy(),
    )


def run_session(config: SessionConfig, path: DividendPath, rng: np.random.Generator) -> SessionResult:
    return MarketSession(config, path, rng).run()


def relative_returns(result: SessionResult) -> np.ndarray:
    """Per-trader return relative to the cross-trader mean, in percentage points."""
    w0 = result.initial_wealth()
    r = (result.final_wealth() - w0) / w0
    return (r - r.mean()) * 100.0


def session_net_returns(result: SessionResult) -> np.ndarray:
    """Per-period net simple return on the asset, dividends included.

    Return for holding the asset over period k+1: buy at period k's closing
    price, collect the dividend, mark at period k+1's closing price.
    """
    p = result.period_end_prices
    d = np.array(result.path.values[1 : len(p)])  # D(2)..D(n_periods)
    return (p[1:] + d - p[:-1]) / p[:-1]


def export_session_csv(result: SessionResult, outdir) -> None:
    """Write the CSV bundle for one session: prices, trades, wealth, dividends."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "prices.csv", ["step", "price"],
              (f"{t},{fmt(price)}" for t, price in enumerate(result.prices.tolist(), start=1)))
    write_csv(
        out / "trades.csv",
        ["step", "price", "buyer", "seller"],
        (f"{step},{fmt(price)},{buyer},{seller}" for step, price, buyer, seller in zip(
            result.trade_steps.tolist(),
            result.trade_prices.tolist(),
            result.trade_buyers.tolist(),
            result.trade_sellers.tolist(),
        )),
    )
    wealth = result.wealth_history()
    write_csv(
        out / "wealth.csv",
        ["agent", "period", "cash", "shares", "wealth"],
        (
            f"{agent},{period},{fmt(result.cash_hist[period, agent])},"
            f"{int(result.shares_hist[period, agent])},{fmt(wealth[period, agent])}"
            for period in range(wealth.shape[0])
            for agent in range(result.n_agents)
        ),
    )
    write_dividends_csv(result.path, out / "dividends.csv")
