"""One market session: random serial trader activation over fixed-length periods.

Each period starts with an information delivery (fresh present values for the
informed traders) and a seeding pass in which every informed trader acts once
in a shuffled order, repopulating the book after a clearing. The period body
is a fixed number of steps; in each step one uniformly chosen trader acts. At
the period end, cash earns the risk-free rate, shares pay the period's
dividend, and the book is cleared (unless configured otherwise).

The trading rules decide whether an order trades now or rests; the session
only checks that the trader can afford it and places or executes it. Traders
can neither short nor buy on credit: an order is refused when the trader's
free shares or free cash (net of what its resting orders commit) do not
cover it.

`MarketSession.run_period` splits a period in two. `draw_period` makes all
of its draws; the trading step then runs the activation loop on them and
draws nothing. There are two trading steps, with the same bits:

- `MarketSession._trade_period`, the Python loop and the specification. It
  runs on locals bound once per period: it asks the `Book` for the best
  quotes, calls the rules in `agents` with plain arguments, places or
  executes through the `Book` methods and settles fills in place. The rules
  and book methods are looked up by name once per period, so patching
  `engine.decide_*` or a `Book` method (as the benchmark's tracer does)
  reaches every activation.
- `_kernel.CSession.trade_period`, the compiled kernel (`_kernel.c`) on the
  session's flat buffers.

A session picks one at its first period and keeps it: the compiled kernel,
unless `INFOMARKET_KERNEL=python` is set, the kernel cannot be built, or a
rule or book method is patched (see `_kernel`).

The session's generator is drawn from in bulk, in this order per period:
`permutation(n)` for the seeding pass, then `random(m)` and
`standard_normal(m)` for its m informed activations; `integers(0, n,
size=steps)` for the steps, then `random(steps)` and
`standard_normal(steps)`. Activation j of a pass gets the j-th uniform and
normal, whether or not its rule uses them, so no rule touches a generator.
"""

from __future__ import annotations

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

# The package's own rules and book methods: a session whose names no longer
# hold them (a tracer or a test patched them) runs the Python loop.
_SPEC_RULES = (decide_random, decide_fundamentalist, decide_chartist)
_SPEC_BOOK = {name: vars(Book)[name]
              for name in ("place_limit", "execute_marketable", "best_bid", "best_ask", "clear")}


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
        if self.n_periods < 1 or self.steps_per_period < 1:
            raise ValueError("n_periods and steps_per_period must be >= 1")
        if self.initial_price <= 0:
            raise ValueError("initial_price must be positive")
        if self.initial_cash < 0 or self.initial_shares < 0:
            raise ValueError("initial endowments must be non-negative")

    @property
    def max_level(self) -> int:
        return max(a.info_level for a in self.agents)

    @property
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


class PeriodDraws:
    """One period's variates, in buffers that each period refills.

    `perm` is the seeding pass's permutation of all n traders, of which the
    m informed ones act; `order` is the steps' traders. `u` and `z` hold the
    seeding pass's m uniforms and normals, then the steps'.
    """

    __slots__ = ("m", "perm", "order", "u", "z", "_passes")

    def __init__(self, m: int, perm: np.ndarray, order: np.ndarray, u: np.ndarray, z: np.ndarray) -> None:
        self.m, self.perm, self.order, self.u, self.z = m, perm, order, u, z
        self._passes = (u[:m], z[:m], u[m:], z[m:])

    @classmethod
    def allocate(cls, n: int, m: int, steps: int) -> PeriodDraws:
        return cls(m, np.empty(n, dtype=np.int64), np.empty(steps, dtype=np.int64),
                   np.empty(m + steps), np.empty(m + steps))


def draw_period(rng: np.random.Generator, draws: PeriodDraws) -> None:
    """Fill `draws` from `rng` in the documented layout (see the module docstring)."""
    seeding_u, seeding_z, steps_u, steps_z = draws._passes
    draws.perm[:] = rng.permutation(len(draws.perm))
    rng.random(out=seeding_u)
    rng.standard_normal(out=seeding_z)
    draws.order[:] = rng.integers(0, len(draws.perm), size=len(draws.order))
    rng.random(out=steps_u)
    rng.standard_normal(out=steps_z)


class MarketSession:
    """Mutable session state; drive it period by period or via run().

    Under the compiled kernel, `cash` and `shares` are numpy arrays (still
    writable between periods), `book` is a read-only `_kernel.BookView` and
    `prices` a view of the kernel's buffer; `holdings()` gives plain lists
    under either kernel.
    """

    def __init__(self, config: SessionConfig, path: DividendPath, rng: np.random.Generator) -> None:
        if len(path) < config.required_path_length:
            raise ValueError(
                f"dividend path has {len(path)} periods, session needs {config.required_path_length}"
            )
        self.config = config
        self.path = path
        self.rng = rng
        n = len(config.agents)
        self.n_agents = n
        self.levels = [a.info_level for a in config.agents]
        self.strategies = [a.strategy for a in config.agents]
        self.book = Book()
        self.cash = [float(config.initial_cash)] * n
        self.shares = [int(config.initial_shares)] * n
        self._held_cash = [0.0] * n  # committed to resting bids
        self._held_shares = [0] * n  # committed to resting asks
        self._last_price = float(config.initial_price)
        self._prices: list[float] = []
        self._period_end_prices: list[float] = []
        self._trade_steps: list[int] = []
        self._trade_prices: list[float] = []
        self._trade_buyers: list[int] = []
        self._trade_sellers: list[int] = []
        self._cash_hist = [self.cash.copy()]
        self._shares_hist = [self.shares.copy()]
        self._pv: list[float | None] = [None] * n
        self._draws = PeriodDraws.allocate(n, sum(lvl > 0 for lvl in self.levels), config.steps_per_period)
        self._trade = None  # the trading step, chosen at the first period
        self._c: _kernel.CSession | None = None  # the compiled kernel's state, when it runs
        self.periods_done = 0

    @property
    def prices(self):
        """The last price after each completed step: the list the trend rule
        reads, or a view of the compiled kernel's buffer."""
        c = self._c
        return self._prices if c is None else c.prices[: c.n_prices]

    @property
    def last_price(self) -> float:
        return self._last_price if self._c is None else self._c.last_price

    def set_strategy(self, agent_idx: int, strategy: Strategy) -> None:
        if strategy is Strategy.RANDOM:
            raise ValueError("cannot switch a trader to the random rule")
        if self.levels[agent_idx] == 0:
            raise ValueError("the uninformed trader keeps the random rule")
        self.strategies[agent_idx] = strategy
        if self._c is not None:
            self._c.set_strategy(agent_idx, strategy)

    def holdings(self) -> tuple[list[float], list[int]]:
        """Every trader's cash and shares now, as plain lists."""
        if self._c is None:
            return self.cash, self.shares
        return self.cash.tolist(), self.shares.tolist()

    def _deliver_information(self, k: int) -> None:
        r_e = self.config.rates.r_e
        path = self.path
        memo = path.present_values
        for i, lvl in enumerate(self.levels):
            if lvl > 0:
                pv = memo.get((lvl, k, r_e))
                if pv is None:
                    pv = memo[lvl, k, r_e] = conditional_present_value(path, lvl, k, r_e)
                self._pv[i] = pv

    def run_period(self) -> None:
        config = self.config
        if self.periods_done >= config.n_periods:
            raise RuntimeError("session already complete")
        if self._trade is None:
            self._trade = self._choose_kernel()
        k = self.periods_done + 1
        self._deliver_information(k)
        draw_period(self.rng, self._draws)
        self._trade(self._draws, self.path.dividend(k))
        self.periods_done += 1

    def _choose_kernel(self):
        """The trading step for the whole session: the compiled kernel's,
        unless it is unavailable or the rules or book methods are patched."""
        patched = [f"engine.{spec.__name__}" for spec, live in zip(
            _SPEC_RULES, (decide_random, decide_fundamentalist, decide_chartist)) if live is not spec]
        patched += [f"Book.{name}" for name, spec in _SPEC_BOOK.items() if vars(Book)[name] is not spec]
        lib = _kernel.resolve(patched)
        if lib is None:
            return self._trade_period
        c = self._c = _kernel.CSession(lib, self)
        self.cash, self.shares, self.book, self._pv = c.cash, c.shares, c.book, c.pv
        self._held_cash, self._held_shares = c.held_cash, c.held_shares
        self._draws = PeriodDraws(self._draws.m, c.perm, c.order, c.u, c.z)
        return c.trade_period

    def _trade_period(self, draws: PeriodDraws, d: float) -> None:
        """One period's activations on this period's draws, then its settlement.

        It draws nothing: its inputs are the draws, the strategies, the
        present values, the dividend d, the rates and the clearing flag.
        """
        config = self.config
        # Everything the activation loop touches, bound once per period.
        n = self.n_agents
        levels, strategies, pv = self.levels, self.strategies, self._pv
        cash, shares = self.cash, self.shares
        held_cash, held_shares = self._held_cash, self._held_shares
        prices = self._prices
        book = self.book
        best_bid, best_ask = book.best_bid, book.best_ask
        place_limit, execute_marketable = book.place_limit, book.execute_marketable
        random_rule, value_rule, trend_rule = decide_random, decide_fundamentalist, decide_chartist
        RANDOM, FUNDAMENTALIST = Strategy.RANDOM, Strategy.FUNDAMENTALIST
        trade_steps, trade_prices = self._trade_steps, self._trade_prices
        trade_buyers, trade_sellers = self._trade_buyers, self._trade_sellers
        p = self._last_price
        m = draws.m
        us, zs = draws.u.tolist(), draws.z.tolist()
        # The seeding pass (each informed trader once, shuffled; the
        # uninformed trader quotes off the last price only during the steps)
        # records no price; each step records the last price after it.
        passes = (
            ([i for i in draws.perm.tolist() if levels[i] > 0], us[:m], zs[:m], False),
            (draws.order.tolist(), us[m:], zs[m:], True),
        )
        for order, pass_us, pass_zs, stepping in passes:
            for i, u, z in zip(order, pass_us, pass_zs):
                bid = best_bid()
                ask = best_ask()
                strat = strategies[i]
                if strat is RANDOM:
                    kind, price = random_rule(p, bid, ask, u, z)
                elif strat is FUNDAMENTALIST:
                    kind, price = value_rule(pv[i], p, bid, ask, z)
                else:
                    kind, price = trend_rule(p, bid, ask, prices, u, z)
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
                        step = len(prices) + 1
                        trade = execute_marketable("sell", i, step)
                        if trade is not None:
                            p = trade.price
                            buyer = trade.buyer_id
                            cash[buyer] -= p
                            shares[buyer] += 1
                            held_cash[buyer] -= p
                            cash[i] += p
                            shares[i] -= 1
                            trade_steps.append(step)
                            trade_prices.append(p)
                            trade_buyers.append(buyer)
                            trade_sellers.append(i)
                elif kind == "market_buy":
                    if ask is not None and cash[i] - held_cash[i] >= ask:
                        step = len(prices) + 1
                        trade = execute_marketable("buy", i, step)
                        p = trade.price
                        seller = trade.seller_id
                        cash[i] -= p
                        shares[i] += 1
                        cash[seller] += p
                        shares[seller] -= 1
                        held_shares[seller] -= 1
                        trade_steps.append(step)
                        trade_prices.append(p)
                        trade_buyers.append(i)
                        trade_sellers.append(seller)
                if stepping:
                    prices.append(p)
        self._last_price = p
        growth = 1.0 + config.rates.r_f
        for i in range(n):
            cash[i] = cash[i] * growth + shares[i] * d
        self._period_end_prices.append(p)
        self._cash_hist.append(cash.copy())
        self._shares_hist.append(shares.copy())
        if config.clear_book_each_period:
            book.clear()
            for i in range(n):
                held_cash[i] = 0.0
                held_shares[i] = 0

    def run(self) -> SessionResult:
        while self.periods_done < self.config.n_periods:
            self.run_period()
        return self.result()

    def result(self) -> SessionResult:
        if self._c is not None:
            return SessionResult(self.config, self.path, *self._c.result_arrays())
        return SessionResult(
            config=self.config,
            path=self.path,
            prices=np.asarray(self._prices),
            trade_steps=np.asarray(self._trade_steps, dtype=np.int64),
            trade_prices=np.asarray(self._trade_prices),
            trade_buyers=np.asarray(self._trade_buyers, dtype=np.int64),
            trade_sellers=np.asarray(self._trade_sellers, dtype=np.int64),
            cash_hist=np.asarray(self._cash_hist),
            shares_hist=np.asarray(self._shares_hist, dtype=np.int64),
            period_end_prices=np.asarray(self._period_end_prices),
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
              ((t, fmt(price)) for t, price in enumerate(result.prices.tolist(), start=1)))
    write_csv(
        out / "trades.csv",
        ["step", "price", "buyer", "seller"],
        ((step, fmt(price), buyer, seller) for step, price, buyer, seller in zip(
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
            (agent, period, fmt(result.cash_hist[period, agent]),
             int(result.shares_hist[period, agent]), fmt(wealth[period, agent]))
            for period in range(wealth.shape[0])
            for agent in range(result.n_agents)
        ),
    )
    write_dividends_csv(result.path, out / "dividends.csv")
