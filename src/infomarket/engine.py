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

`MarketSession.run_period` is the hot path: one activation loop on locals
bound once per period. It asks the `Book` for the best quotes, calls the
rules in `agents` with plain arguments, places or executes through the
`Book` methods, and settles fills in place. The rules and the
book methods are looked up by name once per period, so patching
`engine.decide_*` or a `Book` method (as the benchmark's tracer does)
reaches every activation.

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


class MarketSession:
    """Mutable session state; drive it period by period or via run()."""

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
        self.last_price = float(config.initial_price)
        self.prices: list[float] = []  # last price after each completed step
        self.period_end_prices: list[float] = []
        self._trade_steps: list[int] = []
        self._trade_prices: list[float] = []
        self._trade_buyers: list[int] = []
        self._trade_sellers: list[int] = []
        self.cash_hist = [self.cash.copy()]
        self.shares_hist = [self.shares.copy()]
        self._pv: list[float | None] = [None] * n
        self.periods_done = 0

    def set_strategy(self, agent_idx: int, strategy: Strategy) -> None:
        if strategy is Strategy.RANDOM:
            raise ValueError("cannot switch a trader to the random rule")
        if self.levels[agent_idx] == 0:
            raise ValueError("the uninformed trader keeps the random rule")
        self.strategies[agent_idx] = strategy

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
        k = self.periods_done + 1
        self._deliver_information(k)
        # Everything the activation loop touches, bound once per period.
        rng = self.rng
        n = self.n_agents
        levels, strategies, pv = self.levels, self.strategies, self._pv
        cash, shares = self.cash, self.shares
        held_cash, held_shares = self._held_cash, self._held_shares
        prices = self.prices
        book = self.book
        best_bid, best_ask = book.best_bid, book.best_ask
        place_limit, execute_marketable = book.place_limit, book.execute_marketable
        random_rule, value_rule, trend_rule = decide_random, decide_fundamentalist, decide_chartist
        RANDOM, FUNDAMENTALIST = Strategy.RANDOM, Strategy.FUNDAMENTALIST
        trade_steps, trade_prices = self._trade_steps, self._trade_prices
        trade_buyers, trade_sellers = self._trade_buyers, self._trade_sellers
        p = self.last_price
        # The seeding pass (each informed trader once, shuffled; the
        # uninformed trader quotes off the last price only during the steps)
        # records no price; each step records the last price after it.
        for stepping in (False, True):
            if stepping:
                order = rng.integers(0, n, size=config.steps_per_period).tolist()
            else:
                order = [i for i in rng.permutation(n).tolist() if levels[i] > 0]
            m = len(order)
            us = rng.random(m).tolist()
            zs = rng.standard_normal(m).tolist()
            for i, u, z in zip(order, us, zs):
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
        self.last_price = p
        d = self.path.dividend(k)
        growth = 1.0 + config.rates.r_f
        for i in range(n):
            cash[i] = cash[i] * growth + shares[i] * d
        self.period_end_prices.append(p)
        self.cash_hist.append(cash.copy())
        self.shares_hist.append(shares.copy())
        if config.clear_book_each_period:
            book.clear()
            for i in range(n):
                held_cash[i] = 0.0
                held_shares[i] = 0
        self.periods_done += 1

    def run(self) -> SessionResult:
        while self.periods_done < self.config.n_periods:
            self.run_period()
        return self.result()

    def result(self) -> SessionResult:
        return SessionResult(
            config=self.config,
            path=self.path,
            prices=np.asarray(self.prices),
            trade_steps=np.asarray(self._trade_steps, dtype=np.int64),
            trade_prices=np.asarray(self._trade_prices),
            trade_buyers=np.asarray(self._trade_buyers, dtype=np.int64),
            trade_sellers=np.asarray(self._trade_sellers, dtype=np.int64),
            cash_hist=np.asarray(self.cash_hist),
            shares_hist=np.asarray(self.shares_hist, dtype=np.int64),
            period_end_prices=np.asarray(self.period_end_prices),
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
