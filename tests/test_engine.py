from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket import _kernel, dividends, engine
from infomarket.agents import Strategy, decide_chartist, decide_fundamentalist, decide_random
from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.montecarlo import _new_share, _run_session_block
from infomarket.engine import (
    MarketSession,
    SessionConfig,
    default_market,
    export_session_csv,
    market_with_levels,
    relative_returns,
    run_session,
    session_net_returns,
)
from infomarket.orderbook import Book
from infomarket.rng import stream


def small_config(**kw):
    defaults = dict(
        agents=default_market(4),
        dividends=DividendParams(sigma=0.01),
        rates=RateParams(r_f=0.001, r_e=0.005),
        n_periods=6,
        steps_per_period=30,
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


def run_small(seed=3, **kw):
    cfg = small_config(**kw)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(seed, 0, 0))
    return run_session(cfg, path, stream(seed, 1, 0, 0))


def test_share_conservation_at_every_period():
    result = run_small()
    totals = result.shares_hist.sum(axis=1)
    assert (totals == 4 * 40).all()


def test_cash_recursion_closed_form():
    result = run_small()
    totals = result.cash_hist.sum(axis=1)
    r_f = result.config.rates.r_f
    shares = 4 * 40
    for k in range(1, len(totals)):
        expected = totals[k - 1] * (1 + r_f) + shares * result.path.dividend(k)
        assert totals[k] == pytest.approx(expected, rel=1e-9)


def test_no_negative_holdings_without_short():
    result = run_small(seed=9)
    assert (result.cash_hist >= 0).all()
    assert (result.shares_hist >= 0).all()


@st.composite
def strategy_mixes(draw):
    """2-6 traders: some uninformed, the rest on distinct levels, any of them chartists."""
    n = draw(st.integers(2, 6))
    n_random = draw(st.integers(0, n))
    informed = draw(st.lists(st.integers(1, 9), min_size=n - n_random, max_size=n - n_random, unique=True))
    chartists = draw(st.lists(st.sampled_from(informed), unique=True)) if informed else []
    levels = draw(st.permutations([0] * n_random + informed))
    return market_with_levels(levels, tuple(chartists))


@given(agents=strategy_mixes(), clear=st.booleans(), seed=st.integers(0, 2**32 - 1),
       cash=st.floats(0.0, 400.0), shares=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_accounting_invariants_for_any_strategy_mix(agents, clear, seed, cash, shares):
    # Small endowments make the no-margin and no-short checks bind.
    result = run_small(seed=seed, agents=agents, n_periods=5, steps_per_period=25,
                       clear_book_each_period=clear, initial_cash=cash, initial_shares=shares)
    n = len(agents)
    assert (result.shares_hist.sum(axis=1) == n * shares).all()
    totals = result.cash_hist.sum(axis=1)
    r_f = result.config.rates.r_f
    for k in range(1, len(totals)):
        expected = totals[k - 1] * (1 + r_f) + n * shares * result.path.dividend(k)
        assert totals[k] == pytest.approx(expected, rel=1e-9)
    assert (result.cash_hist >= 0).all()
    assert (result.shares_hist >= 0).all()
    assert len(result.prices) == 5 * 25


def test_price_series_shape_and_carryover():
    result = run_small()
    assert len(result.prices) == 6 * 30
    assert len(result.period_end_prices) == 6
    # every recorded price is either the previous one or a trade price
    trade_prices = set(result.trade_prices.tolist())
    prev = result.config.initial_price
    for p in result.prices.tolist():
        assert p == prev or p in trade_prices
        prev = p


def test_trade_prices_match_series_updates():
    result = run_small()
    assert (result.trade_prices > 0).all()
    assert result.trade_steps.min() >= 1
    assert result.trade_steps.max() <= 6 * 30


def test_determinism_bit_exact():
    a = run_small(seed=5)
    b = run_small(seed=5)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.trade_prices, b.trade_prices)
    assert np.array_equal(a.cash_hist, b.cash_hist)
    assert np.array_equal(a.shares_hist, b.shares_hist)


def test_relative_returns_zero_sum():
    rel = relative_returns(run_small(seed=11))
    assert abs(rel.sum()) < 1e-12 * max(1.0, np.abs(rel).max())


def test_relative_returns_two_agent_example():
    # one agent +10% absolute, the other -10%: relative returns +10pp/-10pp
    class R:
        def __init__(self):
            self.cash_hist = np.array([[100.0, 100.0], [110.0, 90.0]])
            self.shares_hist = np.zeros((2, 2), dtype=np.int64)
            self.period_end_prices = np.array([40.0])
            self.config = small_config()

        def initial_wealth(self):
            return self.cash_hist[0]

        def final_wealth(self):
            return self.cash_hist[-1]

    rel = relative_returns(R())
    assert rel == pytest.approx([10.0, -10.0])


def test_equal_final_wealth_gives_zero_relative():
    class R:
        cash_hist = np.array([[100.0, 100.0, 100.0], [130.0, 130.0, 130.0]])

        def initial_wealth(self):
            return self.cash_hist[0]

        def final_wealth(self):
            return self.cash_hist[-1]

    assert relative_returns(R()) == pytest.approx([0.0, 0.0, 0.0])


def test_net_returns_constant_market():
    # constant price and dividend: every period return equals r_e = 0.005
    class R:
        period_end_prices = np.full(6, 40.0)

        class path:
            values = np.full(15, 0.2)

    rets = session_net_returns(R())
    assert rets == pytest.approx(np.full(5, 0.005))


def test_all_random_market_is_symmetric():
    # only random traders and a flat dividend: agents are exchangeable, so
    # mean relative returns must be statistically indistinguishable from zero
    cfg = small_config(
        agents=market_with_levels([0, 0, 0, 0]),
        dividends=DividendParams(sigma=0.0),
        n_periods=5,
        steps_per_period=25,
    )
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(0, 0, 0))
    rels = np.array(
        [relative_returns(run_session(cfg, path, stream(0, 1, 0, r))) for r in range(300)]
    )
    means = rels.mean(axis=0)
    stderr = rels.std(axis=0, ddof=1) / np.sqrt(len(rels))
    assert (np.abs(means) < 4 * stderr + 1e-9).all()
    assert np.abs(means).max() < 1.5


def test_clear_book_flag_controls_persistence():
    cfg = small_config(clear_book_each_period=False)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(2, 0, 0))
    session = MarketSession(cfg, path, stream(2, 1, 0, 0))
    session.run_period()
    assert len(session.book) > 0
    cfg2 = small_config()
    session2 = MarketSession(cfg2, path, stream(2, 1, 0, 0))
    session2.run_period()
    assert len(session2.book) == 0


def test_path_too_short_rejected():
    cfg = small_config()
    short = generate_dividend_path(cfg.dividends, cfg.required_path_length - 1, stream(1))
    with pytest.raises(ValueError):
        MarketSession(cfg, short, stream(1))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(agents=(default_market(3) + default_market(3)))
    with pytest.raises(ValueError):
        small_config(n_periods=0)
    with pytest.raises(ValueError):
        small_config(initial_price=-1.0)


def test_set_strategy_guards():
    cfg = small_config()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(4, 0, 0))
    session = MarketSession(cfg, path, stream(4, 1, 0, 0))
    session.set_strategy(1, Strategy.CHARTIST)
    assert session._strategy[1] == _kernel.STRATEGY_CODES[Strategy.CHARTIST]
    with pytest.raises(ValueError):
        session.set_strategy(0, Strategy.CHARTIST)  # the uninformed trader
    with pytest.raises(ValueError):
        session.set_strategy(2, Strategy.RANDOM)


def test_market_with_levels_strategies():
    agents = market_with_levels([0, 1, 2], chartist_levels=(2,))
    assert agents[0].strategy is Strategy.RANDOM
    assert agents[1].strategy is Strategy.FUNDAMENTALIST
    assert agents[2].strategy is Strategy.CHARTIST


def test_export_session_csv(tmp_path):
    result = run_small()
    export_session_csv(result, tmp_path)
    for name in ("prices.csv", "trades.csv", "wealth.csv", "dividends.csv"):
        assert (tmp_path / name).exists()
    wealth_lines = (tmp_path / "wealth.csv").read_text().strip().splitlines()
    assert wealth_lines[0] == "agent,period,cash,shares,wealth"
    assert len(wealth_lines) == 1 + 4 * (6 + 1)


def test_default_config_is_the_reference_market():
    cfg = SessionConfig()
    assert [a.info_level for a in cfg.agents] == list(range(10))
    assert (cfg.dividends.d0, cfg.dividends.sigma) == (0.2, 0.01)
    assert (cfg.rates.r_f, cfg.rates.r_e) == (0.001, 0.005)
    assert (cfg.n_periods, cfg.steps_per_period) == (30, 100)
    assert cfg.clear_book_each_period


@pytest.mark.parametrize("n_agents, n_periods, length", [(10, 30, 39), (4, 6, 15), (11, 30, 40), (16, 5, 20)])
def test_path_length_is_periods_plus_top_level_floored_at_nine(n_agents, n_periods, length):
    cfg = SessionConfig(agents=default_market(n_agents), n_periods=n_periods)
    assert cfg.path_length == length
    assert cfg.path_length >= cfg.required_path_length


def test_rules_see_the_live_book(monkeypatch):
    # Every rule call gets the last trade price, the best resting quotes and
    # (for the trend rule) a view of the session's own price series, and the
    # kernel reaches the rules and the book through the names a tracer patches.
    calls = Counter()
    live = {}
    series_seen = []  # (the trend rule's series, a copy taken then, steps done by then)

    def check(name, p, bid, ask):
        calls[name] += 1
        session = live["session"]
        assert p == live["last_price"]
        assert bid == best_bid(session.book)
        assert ask == best_ask(session.book)
        # the period's first m activations are its seeding pass, which records no step
        live["steps"] = live["period_start"] + max(0, live["activation"] - live["m"])
        live["activation"] += 1

    def random_rule(p, bid, ask, u, z):
        check("decide_random", p, bid, ask)
        return decide_random(p, bid, ask, u, z)

    def value_rule(pv, p, bid, ask, z):
        check("decide_fundamentalist", p, bid, ask)
        return decide_fundamentalist(pv, p, bid, ask, z)

    def trend_rule(p, bid, ask, prices, u, z):
        check("decide_chartist", p, bid, ask)
        series_seen.append((prices, prices.copy(), live["steps"]))
        return decide_chartist(p, bid, ask, prices, u, z)

    place_limit, execute_marketable = Book.place_limit, Book.execute_marketable
    best_bid, best_ask = Book.best_bid, Book.best_ask

    def counted_best_bid(self):
        calls["best_bid"] += 1
        return best_bid(self)

    def counted_best_ask(self):
        calls["best_ask"] += 1
        return best_ask(self)

    def counted_place(self, *args):
        calls["place_limit"] += 1
        return place_limit(self, *args)

    def counted_execute(self, *args):
        calls["execute_marketable"] += 1
        trade = execute_marketable(self, *args)
        if trade is not None:
            live["last_price"] = trade.price
        return trade

    monkeypatch.setattr(engine, "decide_random", random_rule)
    monkeypatch.setattr(engine, "decide_fundamentalist", value_rule)
    monkeypatch.setattr(engine, "decide_chartist", trend_rule)
    monkeypatch.setattr(Book, "place_limit", counted_place)
    monkeypatch.setattr(Book, "execute_marketable", counted_execute)
    monkeypatch.setattr(Book, "best_bid", counted_best_bid)
    monkeypatch.setattr(Book, "best_ask", counted_best_ask)
    for agents in (default_market(), market_with_levels(range(4), chartist_levels=(2, 3))):
        cfg = SessionConfig(agents=agents, n_periods=4)
        path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(7, 0, 0))
        session = live["session"] = MarketSession(cfg, path, stream(7, 1, 0, 0))
        live["last_price"] = cfg.initial_price
        live["m"] = sum(a.info_level > 0 for a in agents)
        for k in range(cfg.n_periods):
            live["period_start"], live["activation"] = k * cfg.steps_per_period, 0
            session.run_period()
        assert len(session.result().trade_prices) > 0
        # The trend rule reads a view of the session's own price buffer, not
        # a copy, and it holds exactly the steps done before the call.
        for series, then, steps in series_seen:
            assert series.ctypes.data == session.prices.ctypes.data
            assert np.array_equal(then, session.prices[:steps])
        series_seen.clear()
    assert set(calls) == {"decide_random", "decide_fundamentalist", "decide_chartist",
                          "place_limit", "execute_marketable", "best_bid", "best_ask"}
    # one read of each quote per activation
    activations = calls["decide_random"] + calls["decide_fundamentalist"] + calls["decide_chartist"]
    assert calls["best_bid"] == calls["best_ask"] == activations


def test_run_period_draws_in_the_documented_layout(monkeypatch):
    # Per pass: the order, then random(m) and standard_normal(m) for its m
    # activations, each handed to the rule as plain floats.
    agents = market_with_levels((0, 3, 1, 0, 2), chartist_levels=(2,))
    cfg = small_config(agents=agents, steps_per_period=17)
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(5, 0, 0))
    session = MarketSession(cfg, path, stream(5, 1, 0, 0))
    seen = []

    def record(rule):
        def recorded(*args):
            seen.append(args[-2:] if rule is not decide_fundamentalist else args[-1:])
            return rule(*args)
        return recorded

    for name, rule in (("decide_random", decide_random), ("decide_fundamentalist", decide_fundamentalist),
                       ("decide_chartist", decide_chartist)):
        monkeypatch.setattr(engine, name, record(rule))
    session.run_period()
    fresh = stream(5, 1, 0, 0)
    seeding = [i for i in fresh.permutation(5).tolist() if agents[i].info_level > 0]
    variates = [(seeding, fresh.random(3).tolist(), fresh.standard_normal(3).tolist())]
    steps = fresh.integers(0, 5, size=17).tolist()
    variates.append((steps, fresh.random(17).tolist(), fresh.standard_normal(17).tolist()))
    assert session.rng.bit_generator.state == fresh.bit_generator.state
    expected = [(z,) if agents[i].strategy is Strategy.FUNDAMENTALIST else (u, z)
                for order, us, zs in variates for i, u, z in zip(order, us, zs)]
    assert seen == expected


def test_sessions_on_one_path_share_one_present_value_table():
    # The table holds each trader's conditional present value per period
    # (0.0 for the uninformed), bit for bit; every session on the path
    # copies it, and its periods read their rows in place without writing.
    cfg = small_config(agents=market_with_levels((2, 0, 3, 1)))
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(4, 0, 0))
    sessions = [MarketSession(cfg, path, stream(4, 1, 0, r)) for r in range(2)]
    (table,) = path.present_value_tables.values()
    r_e = cfg.rates.r_e
    assert table.shape == (cfg.n_periods, 4) and not table.flags.writeable
    for k in range(1, cfg.n_periods + 1):
        assert [pv.hex() for pv in table[k - 1].tolist()] == [
            (0.0 if lvl == 0 else dividends.conditional_present_value(path, lvl, k, r_e)).hex()
            for lvl in (2, 0, 3, 1)]
    for session in sessions:
        session.run()
        assert session._pv_table.tolist() == table.tolist()
    assert len(path.present_value_tables) == 1


def test_a_session_block_computes_each_present_value_once(monkeypatch):
    # The runs of a block share their dividend path and so its cached
    # table: the patched engine name sees one computation per (level, period).
    calls = Counter()
    paths = set()

    def counted(path, level, period, r_e):
        calls[level, period] += 1
        paths.add(path)
        return dividends.conditional_present_value(path, level, period, r_e)

    monkeypatch.setattr(engine, "conditional_present_value", counted)
    cfg = small_config()
    _run_session_block(_new_share(cfg, 3, 1, 4))
    (path,) = paths
    assert calls == Counter({(lvl, k): 1 for lvl in range(1, 4) for k in range(1, cfg.n_periods + 1)})
    assert len(path.present_value_tables) == 1
