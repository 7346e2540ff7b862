import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.orderbook import Book


def test_empty_book():
    book = Book()
    assert book.best_bid() is None
    assert book.best_ask() is None
    assert len(book) == 0


def test_single_ask_is_best():
    book = Book()
    book.place_limit(1, "ask", 42.0)
    assert book.best_ask() == 42.0
    assert book.best_bid() is None


def test_price_priority_on_asks():
    book = Book()
    book.place_limit(1, "ask", 41.0)
    book.place_limit(2, "ask", 43.0)
    book.place_limit(3, "ask", 42.0)
    assert book.best_ask() == 41.0


def test_time_priority_at_same_price():
    book = Book()
    book.place_limit(5, "ask", 42.0)
    book.place_limit(9, "ask", 42.0)
    trade = book.execute_marketable("buy", 7, step=1)
    assert trade.seller_id == 5
    assert trade.price == 42.0
    trade = book.execute_marketable("buy", 7, step=2)
    assert trade.seller_id == 9


def test_market_sell_hits_highest_bid():
    book = Book()
    book.place_limit(1, "bid", 35.0)
    book.place_limit(2, "bid", 33.0)
    trade = book.execute_marketable("sell", 9, step=4)
    assert trade.price == 35.0
    assert trade.buyer_id == 1
    assert trade.seller_id == 9
    assert book.best_bid() == 33.0


def test_bid_tie_broken_by_arrival():
    book = Book()
    book.place_limit(2, "bid", 35.0)
    book.place_limit(7, "bid", 35.0)
    trade = book.execute_marketable("sell", 1, step=1)
    assert trade.buyer_id == 2


def test_no_fill_on_empty_side():
    book = Book()
    assert book.execute_marketable("sell", 1, step=1) is None
    book.place_limit(1, "ask", 40.0)
    assert book.execute_marketable("sell", 1, step=1) is None


def test_self_trade_allowed():
    book = Book()
    book.place_limit(3, "bid", 40.0)
    trade = book.execute_marketable("sell", 3, step=1)
    assert trade.buyer_id == trade.seller_id == 3


def test_clear_idempotent():
    book = Book()
    book.place_limit(1, "ask", 41.0)
    book.place_limit(2, "bid", 39.0)
    book.clear()
    assert len(book) == 0
    book.clear()
    assert len(book) == 0


def test_rejects_bad_inputs():
    book = Book()
    with pytest.raises(ValueError):
        book.place_limit(1, "ask", 0.0)
    with pytest.raises(ValueError):
        book.place_limit(1, "mid", 10.0)
    with pytest.raises(ValueError):
        book.execute_marketable("hold", 1, step=1)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["bid", "ask"]),
            st.floats(0.01, 100.0),
            st.integers(0, 9),
        ),
        max_size=40,
    ),
    st.lists(st.sampled_from(["buy", "sell"]), max_size=20),
)
@settings(max_examples=80, deadline=None)
def test_book_ordering_and_conservation(placements, executions):
    book = Book()
    for side, price, trader in placements:
        book.place_limit(trader, side, price)
    fills = []
    for side in executions:
        trade = book.execute_marketable(side, 99, step=1)
        if trade is not None:
            fills.append(trade.price)
    assert len(book) == len(placements) - len(fills)
    # Draining each side fills in priority order: bids from the highest
    # price down, asks from the lowest up.
    bid_fills = []
    while (trade := book.execute_marketable("sell", 99, step=2)) is not None:
        bid_fills.append(trade.price)
    ask_fills = []
    while (trade := book.execute_marketable("buy", 99, step=2)) is not None:
        ask_fills.append(trade.price)
    assert bid_fills == sorted(bid_fills, reverse=True)
    assert ask_fills == sorted(ask_fills)
    assert len(book) == 0
    # every placed order filled exactly once, at its own price
    assert sorted(fills + bid_fills + ask_fills) == sorted(price for _, price, _ in placements)
