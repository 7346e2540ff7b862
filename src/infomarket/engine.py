"""One market session: random serial trader activation over fixed-length periods.

Each period starts with an information delivery (fresh present values for the
informed traders) and a seeding pass in which every informed trader acts once
in a shuffled order, repopulating the book after a clearing. The period body
is a fixed number of steps; in each step one uniformly chosen trader acts. At
the period end, cash earns the risk-free rate, shares pay the period's
dividend, and the book is cleared (unless configured otherwise).

Traders can neither short nor buy on credit: an order is refused when the
trader's free shares or free cash (net of what its resting orders commit)
do not cover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    AgentSpec,
    MarketView,
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
    record_series: bool = True

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
    prices: np.ndarray | None  # per-step last trade price, None when not recorded
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
        self._recent: list[float] = []  # trailing 3 recorded step prices
        self.prices: list[float] | None = [] if config.record_series else None
        self.period_end_prices: list[float] = []
        self._trade_steps: list[int] = []
        self._trade_prices: list[float] = []
        self._trade_buyers: list[int] = []
        self._trade_sellers: list[int] = []
        self.cash_hist = [self.cash.copy()]
        self.shares_hist = [self.shares.copy()]
        self._pv: list[float | None] = [None] * n
        self._time = 0  # completed global steps
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
        for i, lvl in enumerate(self.levels):
            if lvl > 0:
                self._pv[i] = conditional_present_value(path, lvl, k, r_e)

    def run_period(self) -> None:
        if self.periods_done >= self.config.n_periods:
            raise RuntimeError("session already complete")
        k = self.periods_done + 1
        self._deliver_information(k)
        rng = self.rng
        activate = self._activate
        # The uninformed trader quotes off the last price only during the steps.
        for i in rng.permutation(self.n_agents).tolist():
            if self.levels[i] > 0:
                activate(i)
        prices = self.prices
        recent = self._recent
        for i in rng.integers(0, self.n_agents, size=self.config.steps_per_period).tolist():
            activate(i)
            price = self.last_price
            if prices is not None:
                prices.append(price)
            recent.append(price)
            if len(recent) > 3:
                del recent[0]
            self._time += 1
        d = self.path.dividend(k)
        growth = 1.0 + self.config.rates.r_f
        cash, shares = self.cash, self.shares
        for i in range(self.n_agents):
            cash[i] = cash[i] * growth + shares[i] * d
        self.period_end_prices.append(self.last_price)
        self.cash_hist.append(cash.copy())
        self.shares_hist.append(shares.copy())
        if self.config.clear_book_each_period:
            self.book.clear()
            for i in range(self.n_agents):
                self._held_cash[i] = 0.0
                self._held_shares[i] = 0
        self.periods_done += 1

    def _activate(self, i: int) -> None:
        book = self.book
        p = self.last_price
        view = MarketView(p, book.best_bid(), book.best_ask(), tuple(self._recent) + (p,), self._time + 1)
        strat = self.strategies[i]
        if strat is Strategy.RANDOM:
            intent = decide_random(view, self.rng)
        elif strat is Strategy.FUNDAMENTALIST:
            intent = decide_fundamentalist(self._pv[i], view, self.rng)
        else:
            intent = decide_chartist(view, self.rng)
        kind = intent.kind
        if kind == "none":
            return
        step = self._time + 1
        if kind == "market_sell":
            if self.shares[i] - self._held_shares[i] < 1:
                return
            trade = book.execute_marketable("sell", i, step)
            if trade is not None:
                self._settle(trade, maker_side="bid")
        elif kind == "market_buy":
            ask = book.best_ask()
            if ask is None or self.cash[i] - self._held_cash[i] < ask:
                return
            self._settle(book.execute_marketable("buy", i, step), maker_side="ask")
        elif kind == "limit_ask":
            if self.shares[i] - self._held_shares[i] < 1:
                return
            price = float(intent.price)
            bid = book.best_bid()
            if bid is not None and price < bid:
                # Crossing limit: marketable, fills at the resting bid's price.
                self._settle(book.execute_marketable("sell", i, step), maker_side="bid")
            else:
                book.place_limit(i, "ask", price)
                self._held_shares[i] += 1
        else:  # limit_bid
            price = float(intent.price)
            ask = book.best_ask()
            if ask is not None and price > ask:
                if self.cash[i] - self._held_cash[i] < ask:
                    return
                self._settle(book.execute_marketable("buy", i, step), maker_side="ask")
            else:
                if self.cash[i] - self._held_cash[i] < price:
                    return
                book.place_limit(i, "bid", price)
                self._held_cash[i] += price

    def _settle(self, trade, maker_side: str) -> None:
        price = float(trade.price)
        buyer, seller = trade.buyer_id, trade.seller_id
        cash, shares = self.cash, self.shares
        cash[buyer] -= price
        shares[buyer] += 1
        cash[seller] += price
        shares[seller] -= 1
        if maker_side == "bid":
            self._held_cash[buyer] -= price
        else:
            self._held_shares[seller] -= 1
        self.last_price = price
        self._trade_steps.append(trade.step)
        self._trade_prices.append(price)
        self._trade_buyers.append(buyer)
        self._trade_sellers.append(seller)

    def run(self) -> SessionResult:
        while self.periods_done < self.config.n_periods:
            self.run_period()
        return self.result()

    def result(self) -> SessionResult:
        return SessionResult(
            config=self.config,
            path=self.path,
            prices=None if self.prices is None else np.asarray(self.prices),
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
    d = result.path.values[1 : len(p)]  # D(2)..D(n_periods)
    return (p[1:] + d - p[:-1]) / p[:-1]


def export_session_csv(result: SessionResult, outdir) -> None:
    """Write the CSV bundle for one session: prices, trades, wealth, dividends."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if result.prices is not None:
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
