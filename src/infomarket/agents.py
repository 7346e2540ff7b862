"""Trading rules for the three trader types.

Each rule is a pure function of plain arguments (the last trade price p,
the best bid and ask, None for an empty side, plus the trader's valuation or
the session's price series where the rule needs them, and the variates it
may use: a uniform u in [0, 1) and a standard normal z, drawn for it by the
caller) to an action intent. No rule touches a random generator, and each
uses at most one u and one z. A rule alone decides whether the order trades
now: every priced order ends in `_sell` or `_buy`, which turn a quote that
crosses the opposite real best into a market order. The engine only checks
that the trader can afford the intent and carries it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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


class Intent(NamedTuple):
    kind: str  # "market_sell" | "market_buy" | "limit_ask" | "limit_bid" | "none"
    price: float | None


MARKET_SELL = Intent("market_sell", None)
MARKET_BUY = Intent("market_buy", None)
NO_ACTION = Intent("none", None)


def decide_random(p: float, bid: float | None, ask: float | None, u: float, z: float) -> Intent:
    """Uninformed rule: quote around the last price p with Gaussian noise.

    The coin u < 0.5 picks the sell side; the candidate price is p + 2z. It
    becomes a market order only if it crosses the existing opposite best; a
    missing quote on the comparison side means no cross.
    """
    if u < 0.5:
        return _sell(p + 2.0 * z, bid)
    return _buy(p + 2.0 * z, ask)


# Every priced order ends in _sell or _buy: a market order when its price
# crosses the opposite real best (it fills at that quote), a resting limit
# order when the price is positive, otherwise nothing.


def _sell(price: float, bid: float | None) -> Intent:
    if bid is not None and price < bid:
        return MARKET_SELL
    return Intent("limit_ask", price) if price > 0 else NO_ACTION


def _buy(price: float, ask: float | None) -> Intent:
    if ask is not None and price > ask:
        return MARKET_BUY
    return Intent("limit_bid", price) if price > 0 else NO_ACTION


def _effective_quotes(p: float, bid: float | None, ask: float | None, anchor: float) -> tuple[float, float]:
    # Synthetic stand-ins keep the distance formulas defined right after a
    # clearing: an absent bid acts as 0, an absent ask as twice the larger of
    # the last price and the anchor value. Neither can trigger a crossing.
    return (bid if bid is not None else 0.0,
            ask if ask is not None else 2.0 * max(p, anchor))


def _inside_limit(anchor: float, eff_bid: float, eff_ask: float, bid: float | None, ask: float | None,
                  z: float) -> Intent:
    # Quote on the side whose (effective) best quote sits farther from the
    # anchor value, at the anchor plus noise proportional to the distance on
    # the other side. A non-positive quote is dropped before the crossing
    # test, so it never becomes a market order even under a real opposite quote.
    if (eff_ask - anchor) > (anchor - eff_bid):
        price = anchor + 0.25 * z * (anchor - eff_bid)
        return _sell(price, bid) if price > 0 else NO_ACTION
    price = anchor + 0.25 * z * (eff_ask - anchor)
    return _buy(price, ask) if price > 0 else NO_ACTION


def decide_fundamentalist(pv: float, p: float, bid: float | None, ask: float | None, z: float) -> Intent:
    """Value rule: take any quote priced on the wrong side of pv, else quote inside."""
    eff_bid, eff_ask = _effective_quotes(p, bid, ask, pv)
    if pv < eff_bid:
        return MARKET_SELL
    if pv > eff_ask:
        return MARKET_BUY
    return _inside_limit(pv, eff_bid, eff_ask, bid, ask, z)


def decide_chartist(p: float, bid: float | None, ask: float | None, prices: list[float],
                    u: float, z: float) -> Intent:
    """Trend rule: sell into three strictly falling steps, buy into three rising.

    prices is the session's per-step price series so far, so the trader is
    at step len(prices) + 1 and its history is the last three step prices
    followed by p. Before step 4 it has no usable history and flips a coin
    for an aggressive order near p (u < 0.5 sells); with no trend it quotes
    inside the spread exactly like a fundamentalist whose value equals p.
    """
    n = len(prices)
    if n >= 4:
        last, before, earlier = prices[-1], prices[-2], prices[-3]
        if p < last < before < earlier:
            return _sell(p - abs(z), bid)
        if p > last > before > earlier:
            return _buy(p + abs(z), ask)
    if n < 3:
        if u < 0.5:
            return _sell(p - abs(z), bid)
        return _buy(p + abs(z), ask)
    eff_bid, eff_ask = _effective_quotes(p, bid, ask, p)
    return _inside_limit(p, eff_bid, eff_ask, bid, ask, z)
