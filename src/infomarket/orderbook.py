"""Price-time-priority limit order book for a unit-size double auction.

Every order is for exactly one share. Marketable executions fill against the
best resting order on the opposite side at that order's limit price (maker
price). The book itself never matches on insert; the session engine decides
when an order is marketable.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .csvout import write_csv


class Order(NamedTuple):
    trader_id: int
    side: str  # "bid" | "ask"
    price: float
    seq: int


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

    def place_limit(self, trader_id: int, side: str, price: float) -> Order:
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
        return Order(trader_id, side, price, seq)

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

    def iter_asks(self) -> list[Order]:
        """Resting asks in execution-priority order."""
        return [Order(tid, "ask", p, seq) for p, seq, tid in sorted(self._asks)]

    def iter_bids(self) -> list[Order]:
        """Resting bids in execution-priority order."""
        return [Order(tid, "bid", -negp, seq) for negp, seq, tid in sorted(self._bids)]


def write_book_csv(book: Book, file) -> None:
    """Dump a book snapshot as `side,price,seq` rows for debugging/replay."""
    orders = book.iter_bids() + book.iter_asks()
    write_csv(file, ["side", "price", "seq"], ((o.side, repr(o.price), o.seq) for o in orders))
