import numpy as np
import pytest

from infomarket.agents import (
    AgentSpec,
    MarketView,
    Strategy,
    decide_chartist,
    decide_fundamentalist,
    decide_random,
)


class ScriptedRng:
    """Returns preloaded uniform and normal draws in order."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)

    def random(self):
        return self.uniforms.pop(0)

    def standard_normal(self):
        return self.normals.pop(0)


def view(p=40.0, best_bid=None, best_ask=None, history=None, time=10):
    h = tuple(history) if history is not None else (p,)
    return MarketView(p, best_bid, best_ask, h, time)


# --- random trader -----------------------------------------------------------


def test_random_crossing_ask_becomes_market_sell():
    intent = decide_random(view(p=40, best_bid=35), ScriptedRng([0.4], [-3.0]))
    assert intent.kind == "market_sell"


def test_random_crossing_bid_becomes_market_buy():
    intent = decide_random(view(p=40, best_ask=39), ScriptedRng([0.6], [0.0]))
    assert intent.kind == "market_buy"


def test_random_nonpositive_price_is_dropped():
    intent = decide_random(view(p=1.0), ScriptedRng([0.4], [-2.0]))
    assert intent.kind == "none"


def test_random_rests_when_no_cross():
    intent = decide_random(view(p=40, best_bid=35), ScriptedRng([0.4], [0.5]))
    assert intent.kind == "limit_ask"
    assert intent.price == pytest.approx(41.0)


def test_random_missing_quote_means_no_cross():
    intent = decide_random(view(p=40), ScriptedRng([0.4], [-3.0]))
    assert intent.kind == "limit_ask"
    assert intent.price == pytest.approx(34.0)


# --- fundamentalist ----------------------------------------------------------


def test_fundamentalist_sells_when_value_below_bid():
    intent = decide_fundamentalist(50.0, view(best_bid=55.0, best_ask=60.0), ScriptedRng())
    assert intent.kind == "market_sell"


def test_fundamentalist_buys_when_value_above_ask():
    intent = decide_fundamentalist(50.0, view(best_ask=45.0), ScriptedRng())
    assert intent.kind == "market_buy"


def test_fundamentalist_quotes_wider_side_at_value():
    intent = decide_fundamentalist(
        50.0, view(best_bid=40.0, best_ask=70.0), ScriptedRng(normals=[0.0])
    )
    assert intent.kind == "limit_ask"
    assert intent.price == pytest.approx(50.0)


def test_fundamentalist_bid_side_when_ask_closer():
    intent = decide_fundamentalist(
        50.0, view(best_bid=45.0, best_ask=52.0), ScriptedRng(normals=[1.0])
    )
    assert intent.kind == "limit_bid"
    assert intent.price == pytest.approx(50.0 + 0.25 * (52.0 - 50.0))


def test_fundamentalist_partition_is_exhaustive():
    # with both quotes present exactly one of the three actions triggers
    rng_state = np.random.default_rng(4)
    for _ in range(200):
        pv = float(rng_state.uniform(10, 90))
        bid = float(rng_state.uniform(10, 50))
        ask = bid + float(rng_state.uniform(0.1, 40))
        intent = decide_fundamentalist(
            pv, view(best_bid=bid, best_ask=ask), ScriptedRng(normals=[0.0])
        )
        if pv < bid:
            assert intent.kind == "market_sell"
        elif pv > ask:
            assert intent.kind == "market_buy"
        else:
            assert intent.kind in ("limit_ask", "limit_bid")


def test_fundamentalist_empty_book_uses_synthetic_quotes():
    # missing bid acts as 0, missing ask as twice max(p, pv): never a cross;
    # both synthetic distances equal pv here, so the bid branch wins the tie
    intent = decide_fundamentalist(50.0, view(p=40.0), ScriptedRng(normals=[0.0]))
    assert intent.kind == "limit_bid"
    assert intent.price == pytest.approx(50.0)


def test_inside_quote_that_crosses_the_real_best_is_a_market_order():
    # value 50 between the quotes; noise pushes the inside quote past the
    # opposite real best, so the rule itself returns a market order
    sell = decide_fundamentalist(50.0, view(best_bid=48.0, best_ask=60.0), ScriptedRng(normals=[-5.0]))
    assert sell.kind == "market_sell"
    buy = decide_fundamentalist(50.0, view(best_bid=45.0, best_ask=52.0), ScriptedRng(normals=[5.0]))
    assert buy.kind == "market_buy"
    # no trend: the chartist quotes inside around the last price 42
    flat = (42.0, 42.0, 42.0, 42.0)
    sell = decide_chartist(view(p=42.0, best_bid=41.0, best_ask=50.0, history=flat),
                           ScriptedRng(normals=[-8.0]))
    assert sell.kind == "market_sell"
    buy = decide_chartist(view(p=42.0, best_bid=34.0, best_ask=43.0, history=flat),
                          ScriptedRng(normals=[8.0]))
    assert buy.kind == "market_buy"


def test_nonpositive_inside_quote_is_dropped_before_the_crossing_test():
    # the ask-side quote 1 + 0.25 * -10 * 0.5 = -0.25 lies below the real bid
    # of 0.5 but is not positive, so it is dropped rather than sold at market
    intent = decide_fundamentalist(1.0, view(p=1.0, best_bid=0.5, best_ask=100.0),
                                   ScriptedRng(normals=[-10.0]))
    assert intent.kind == "none"


# --- chartist ----------------------------------------------------------------


def test_chartist_sells_into_falling_prices():
    intent = decide_chartist(
        view(p=41.0, history=(44.0, 43.0, 42.0, 41.0), time=10),
        ScriptedRng(normals=[0.5]),
    )
    assert intent.kind == "limit_ask"
    assert intent.price == pytest.approx(40.5)


def test_chartist_buys_into_rising_prices():
    intent = decide_chartist(
        view(p=44.0, history=(41.0, 42.0, 43.0, 44.0), time=10),
        ScriptedRng(normals=[0.5]),
    )
    assert intent.kind == "limit_bid"
    assert intent.price == pytest.approx(44.5)


def test_chartist_trend_order_crosses_when_marketable():
    intent = decide_chartist(
        view(p=41.0, best_bid=41.0, history=(44.0, 43.0, 42.0, 41.0), time=10),
        ScriptedRng(normals=[0.5]),
    )
    assert intent.kind == "market_sell"


def test_chartist_flat_history_quotes_inside():
    intent = decide_chartist(
        view(p=42.0, history=(42.0, 42.0, 42.0, 42.0), time=10),
        ScriptedRng(normals=[0.0]),
    )
    assert intent.kind in ("limit_ask", "limit_bid")
    assert intent.price == pytest.approx(42.0)


def test_chartist_single_equal_price_breaks_trend():
    intent = decide_chartist(
        view(p=41.0, history=(44.0, 43.0, 43.0, 41.0), time=10),
        ScriptedRng(normals=[0.0]),
    )
    assert intent.kind in ("limit_ask", "limit_bid")


def test_chartist_early_session_flips_coin():
    sell = decide_chartist(view(p=40.0, time=1), ScriptedRng([0.3], [1.0]))
    assert sell.kind == "limit_ask"
    assert sell.price == pytest.approx(39.0)
    buy = decide_chartist(view(p=40.0, time=2), ScriptedRng([0.7], [1.0]))
    assert buy.kind == "limit_bid"
    assert buy.price == pytest.approx(41.0)


def test_chartist_time_four_falls_to_no_trend():
    intent = decide_chartist(
        view(p=41.0, history=(44.0, 43.0, 42.0, 41.0), time=4),
        ScriptedRng(normals=[0.0]),
    )
    assert intent.kind in ("limit_ask", "limit_bid")


def test_decisions_replay_bit_exactly():
    v = view(p=40.0, best_bid=39.0, best_ask=41.0, history=(40.0,), time=7)
    a = decide_random(v, ScriptedRng([0.25], [1.5]))
    b = decide_random(v, ScriptedRng([0.25], [1.5]))
    assert a == b


def test_agent_spec_validation():
    AgentSpec(0, 0, Strategy.RANDOM)
    AgentSpec(1, 3, Strategy.FUNDAMENTALIST)
    with pytest.raises(ValueError):
        AgentSpec(0, 0, Strategy.FUNDAMENTALIST)
    with pytest.raises(ValueError):
        AgentSpec(0, 2, Strategy.RANDOM)
