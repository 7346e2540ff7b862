"""Price-time-priority limit order book for a unit-size double auction.

Every order is for exactly one share. Marketable executions fill against the
best resting order on the opposite side at that order's limit price (maker
price). The book itself never matches on insert; the trading rules decide
when an order is marketable.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple


class Trade(NamedTuple):
    step: int
    price: float
    buyer_id: int
    seller_id: int


class Book:
    """Two-sided book: asks ranked (price asc, seq asc), bids (price desc, seq asc)."""

    __slots__ = ("_asks", "_bids", "_seq")

    def __init__(self) -> None:
        self._asks: list[tuple[float, int, int]] = []  # (price, seq, trader_id)
        self._bids: list[tuple[float, int, int]] = []  # (-price, seq, trader_id)
        self._seq = 0

    def place_limit(self, trader_id: int, side: str, price: float) -> None:
        """Rest a one-share limit order; priority is price first, then arrival."""
        if price <= 0:
            raise ValueError(f"limit price must be positive, got {price}")
        seq = self._seq
        self._seq += 1
        if side == "ask":
            heapq.heappush(self._asks, (price, seq, trader_id))
        elif side == "bid":
            heapq.heappush(self._bids, (-price, seq, trader_id))
        else:
            raise ValueError(f"side must be 'bid' or 'ask', got {side!r}")

    def best_bid(self) -> float | None:
        return -self._bids[0][0] if self._bids else None

    def best_ask(self) -> float | None:
        return self._asks[0][0] if self._asks else None

    def execute_marketable(self, side: str, trader_id: int, step: int) -> Trade | None:
        """Fill `trader_id`'s marketable order against the best opposite quote.

        side is the aggressor's direction: "buy" consumes the best ask,
        "sell" the best bid. Returns None when the opposite side is empty.
        The trade prints at the resting order's price; the aggressor may be
        the resting order's own submitter.
        """
        if side == "buy":
            if not self._asks:
                return None
            price, _, maker = heapq.heappop(self._asks)
            return Trade(step, price, trader_id, maker)
        if side == "sell":
            if not self._bids:
                return None
            neg_price, _, maker = heapq.heappop(self._bids)
            return Trade(step, -neg_price, maker, trader_id)
        raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")

    def clear(self) -> None:
        self._asks.clear()
        self._bids.clear()

    def __len__(self) -> int:
        return len(self._asks) + len(self._bids)
