"""Trading rules for the three trader types.

Each rule is a pure function from the trader's view of the market (plus its
own valuation, for fundamentalists) to an action intent, and it alone decides
whether the order trades now: every priced order ends in `_order`, which
turns a quote that crosses the opposite real best into a market order. The
engine only checks that the trader can afford the intent and carries it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class Strategy(Enum):
    RANDOM = "random"
    FUNDAMENTALIST = "fundamentalist"
    CHARTIST = "chartist"


@dataclass(frozen=True)
class AgentSpec:
    """Identity of one trader: position in the market, forecast horizon, rule."""

    agent_id: int
    info_level: int
    strategy: Strategy

    def __post_init__(self) -> None:
        if not 0 <= self.info_level:
            raise ValueError(f"info_level must be >= 0, got {self.info_level}")
        if (self.info_level == 0) != (self.strategy is Strategy.RANDOM):
            raise ValueError(
                "level-0 traders must use the random rule and informed traders must not "
                f"(agent {self.agent_id}: level {self.info_level}, {self.strategy})"
            )


class MarketView(NamedTuple):
    """What a trader sees when activated.

    price_history holds the last price of up to three completed steps,
    oldest first, followed by p. time is the 1-based global step index.
    """

    p: float
    best_bid: float | None
    best_ask: float | None
    price_history: tuple
    time: int


class Intent(NamedTuple):
    kind: str  # "market_sell" | "market_buy" | "limit_ask" | "limit_bid" | "none"
    price: float | None


NO_ACTION = Intent("none", None)


def decide_random(view: MarketView, rng: np.random.Generator) -> Intent:
    """Uninformed rule: quote around the last price with Gaussian noise.

    A coin flip picks the side; the candidate price is p + 2z. It becomes a
    market order only if it crosses the existing opposite best; a missing
    quote on the comparison side means no cross.
    """
    side = "sell" if rng.random() < 0.5 else "buy"
    return _order(side, view.p + 2.0 * rng.standard_normal(), view)


def _order(side: str, price: float, view: MarketView) -> Intent:
    """The intent for an order at `price`: a market order when it crosses the
    opposite real best (and fills at that quote), a resting limit order when
    the price is positive, otherwise nothing."""
    if side == "sell":
        if view.best_bid is not None and price < view.best_bid:
            return Intent("market_sell", None)
        return Intent("limit_ask", price) if price > 0 else NO_ACTION
    if view.best_ask is not None and price > view.best_ask:
        return Intent("market_buy", None)
    return Intent("limit_bid", price) if price > 0 else NO_ACTION


def _effective_quotes(view: MarketView, anchor: float) -> tuple[float, float]:
    # Synthetic stand-ins keep the distance formulas defined right after a
    # clearing: an absent bid acts as 0, an absent ask as twice the larger of
    # the last price and the anchor value. Neither can trigger a crossing.
    bid = view.best_bid if view.best_bid is not None else 0.0
    ask = view.best_ask if view.best_ask is not None else 2.0 * max(view.p, anchor)
    return bid, ask


def _inside_limit(anchor: float, view: MarketView, rng: np.random.Generator) -> Intent:
    # Quote on the side whose best quote sits farther from the anchor value,
    # at the anchor plus noise proportional to the distance on the other side.
    bid, ask = _effective_quotes(view, anchor)
    if (ask - anchor) > (anchor - bid):
        side, price = "sell", anchor + 0.25 * rng.standard_normal() * (anchor - bid)
    else:
        side, price = "buy", anchor + 0.25 * rng.standard_normal() * (ask - anchor)
    # A non-positive quote is dropped before the crossing test, so it never
    # becomes a market order even under a real opposite quote.
    return _order(side, price, view) if price > 0 else NO_ACTION


def decide_fundamentalist(pv: float, view: MarketView, rng: np.random.Generator) -> Intent:
    """Value rule: take any quote priced on the wrong side of pv, else quote inside."""
    bid, ask = _effective_quotes(view, pv)
    if pv < bid:
        return Intent("market_sell", None)
    if pv > ask:
        return Intent("market_buy", None)
    return _inside_limit(pv, view, rng)


def decide_chartist(view: MarketView, rng: np.random.Generator) -> Intent:
    """Trend rule: sell into three strictly falling steps, buy into three rising.

    Before step 4 the trader has no usable history and flips a coin for an
    aggressive order near the last price; with no trend it quotes inside the
    spread exactly like a fundamentalist whose value equals the last price.
    """
    h = view.price_history
    if view.time > 4 and len(h) >= 4:
        if h[-1] < h[-2] < h[-3] < h[-4]:
            return _order("sell", h[-1] - abs(rng.standard_normal()), view)
        if h[-1] > h[-2] > h[-3] > h[-4]:
            return _order("buy", h[-1] + abs(rng.standard_normal()), view)
    if view.time < 4:
        if rng.random() < 0.5:
            return _order("sell", view.p - abs(rng.standard_normal()), view)
        return _order("buy", view.p + abs(rng.standard_normal()), view)
    return _inside_limit(view.p, view, rng)
