"""Where a traced iteration hooks into each infomarket layer, and the
per-layer metrics derived from what the tracer recorded.

Each function is patched at the module that looks it up when the package
runs (``engine`` calls ``decide_random``, ``montecarlo`` calls ``stream``),
so the package code itself is untouched.
"""

from __future__ import annotations

from infomarket import analytics, cli, engine, montecarlo, switching
from infomarket.engine import MarketSession
from infomarket.orderbook import Book
from infomarket.switching import SwitchingConfig

from tracer import Tracer

DECIDE = ("agents.decide_random", "agents.decide_fundamentalist", "agents.decide_chartist")
WRITERS = (
    "montecarlo.write_runs_csv",
    "analytics.write_jcurve_csv",
    "analytics.write_pvalues_csv",
    "analytics.write_acf_csv",
    "analytics.write_moments_csv",
    "switching.write_states_csv",
    "switching.write_tmatrix_csv",
    "switching.write_freqs_csv",
)


def _trade(result):
    return ("orderbook.trades", 1) if result is not None else None


def _intent_none(result):
    return ("agents.intent_none", 1) if result.kind == "none" else None


def _tick_rows(result):
    return ("analytics.load_ticks.rows", len(result.times))


# (owner, attribute, trace name, kind, tally)
PATCHES = [
    (Book, "place_limit", "orderbook.place_limit", "leaf", None),
    (Book, "execute_marketable", "orderbook.execute_marketable", "leaf", _trade),
    (Book, "best_bid", "orderbook.best_bid", "leaf", None),
    (Book, "best_ask", "orderbook.best_ask", "leaf", None),
    (engine, "decide_random", "agents.decide_random", "leaf", _intent_none),
    (engine, "decide_fundamentalist", "agents.decide_fundamentalist", "leaf", _intent_none),
    (engine, "decide_chartist", "agents.decide_chartist", "leaf", _intent_none),
    (engine, "conditional_present_value", "dividends.conditional_present_value", "leaf", None),
    (switching, "conditional_present_value", "dividends.conditional_present_value", "leaf", None),
    (montecarlo, "generate_dividend_path", "dividends.generate_dividend_path", "leaf", None),
    (switching, "generate_dividend_path", "dividends.generate_dividend_path", "leaf", None),
    (montecarlo, "stream", "rng.stream", "leaf", None),
    (switching, "stream", "rng.stream", "leaf", None),
    (MarketSession, "run_period", "engine.run_period", "span", None),
    (MarketSession, "set_strategy", "engine.set_strategy", "leaf", None),
    (montecarlo, "run_session", "engine.run_session", "span", None),
    (switching, "MarketSession", "engine.MarketSession", "leaf", None),
    (SwitchingConfig, "session_config", "switching.session_config", "leaf", None),
    (cli, "main", "cli.main", "span", None),
    (cli, "run_batch", "montecarlo.run_batch", "span", None),
    (montecarlo, "_run_session_block", "montecarlo.session_block", "task", None),
    (cli, "run_switching_ensemble", "switching.run_switching_ensemble", "span", None),
    (switching, "_one_switching_run", "switching.chain_task", "task", None),
    (switching, "run_switching_sim", "switching.run_switching_sim", "span", None),
    (cli, "aggregate_runs", "switching.aggregate_runs", "span", None),
    (switching, "stationarity_gap", "switching.stationarity_gap", "leaf", None),
    (analytics, "wilcoxon_rank_sum", "analytics.wilcoxon_rank_sum", "leaf", None),
    (cli, "jcurve_table", "analytics.jcurve_table", "span", None),
    (analytics, "jcurve_table", "analytics.jcurve_table", "span", None),
    (cli, "load_ticks", "analytics.load_ticks", "span", _tick_rows),
    (analytics, "log_returns", "analytics.log_returns", "leaf", None),
    (cli, "acf", "analytics.acf", "span", None),
    (cli, "moments", "analytics.moments", "span", None),
    (analytics, "moments", "analytics.moments", "span", None),
    (cli, "jarque_bera", "analytics.jarque_bera", "span", None),
    (cli, "write_runs_csv", "montecarlo.write_runs_csv", "span", None),
    (montecarlo, "write_runs_csv", "montecarlo.write_runs_csv", "span", None),
    (cli, "write_jcurve_csv", "analytics.write_jcurve_csv", "span", None),
    (cli, "write_pvalues_csv", "analytics.write_pvalues_csv", "span", None),
    (cli, "write_acf_csv", "analytics.write_acf_csv", "span", None),
    (cli, "write_moments_csv", "analytics.write_moments_csv", "span", None),
    (cli, "write_states_csv", "switching.write_states_csv", "span", None),
    (cli, "write_tmatrix_csv", "switching.write_tmatrix_csv", "span", None),
    (cli, "write_freqs_csv", "switching.write_freqs_csv", "span", None),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, kind, tally in PATCHES:
        tracer.patch(owner, attr, name, kind, tally)


def _ratio(num: float, den: float) -> float:
    # An undefined ratio (its base is 0 on this workload) reads 0.
    return num / den if den else 0.0


def _tail_s(spans: list[tuple]) -> float:
    """Time from the first worker going idle to the last worker finishing."""
    last_end: dict[int, float] = {}
    for _, _, _, end, _, pid, _ in spans:
        last_end[pid] = max(end, last_end.get(pid, end))
    return max(last_end.values()) - min(last_end.values()) if len(last_end) > 1 else 0.0


def jobs1_session_ms(tracer: Tracer) -> list[float]:
    """Durations of the sessions run in this process, i.e. the jobs-1 batch."""
    return [(s[3] - s[2]) * 1e3 for s in tracer.spans
            if s[1] == "engine.run_session" and s[5] == tracer.main_pid]


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced iteration.

    Every name is present on every workload; a layer the workload does not
    reach reads 0. ``jobs`` is the worker count of the parallel phase.
    """
    totals = tracer.totals()
    tallies = tracer.tallies

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def spans_named(name: str, in_workers: bool | None = None) -> list[tuple]:
        main = tracer.main_pid
        return [
            s for s in tracer.spans
            if s[1] == name and (in_workers is None or (s[5] != main) == in_workers)
        ]

    m: dict[str, float] = {}
    for name in ("orderbook.place_limit", "orderbook.execute_marketable"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["orderbook.best_quote.calls"] = calls("orderbook.best_bid") + calls("orderbook.best_ask")
    m["orderbook.best_quote.self_s"] = self_s("orderbook.best_bid") + self_s("orderbook.best_ask")
    m["orderbook.fill_frac"] = _ratio(tallies["orderbook.trades"], calls("orderbook.execute_marketable"))

    decisions = sum(calls(name) for name in DECIDE)
    for name in DECIDE:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["agents.intent_none_frac"] = _ratio(tallies["agents.intent_none"], decisions)

    m["engine.run_period.calls"] = calls("engine.run_period")
    m["engine.run_period.self_s"] = self_s("engine.run_period")
    m["engine.steps_per_s"] = _ratio(decisions, total_s("engine.run_period"))
    accepted = calls("orderbook.place_limit") + calls("orderbook.execute_marketable")
    m["engine.order_accept_frac"] = _ratio(accepted, decisions - tallies["agents.intent_none"])

    for name in ("dividends.conditional_present_value", "dividends.generate_dividend_path", "rng.stream"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    batch_wall = sum(s[3] - s[2] for s in spans_named("montecarlo.run_batch") if s[6].endswith(f"jobs{jobs}"))
    worker_sessions = sum(s[3] - s[2] for s in spans_named("engine.run_session", in_workers=True))
    m["montecarlo.worker_busy_frac"] = _ratio(worker_sessions, jobs * batch_wall)
    m["montecarlo.tail_s"] = _tail_s(spans_named("montecarlo.session_block", in_workers=True))

    m["switching.run_switching_sim.calls"] = calls("switching.run_switching_sim")
    m["switching.run_switching_sim.self_s"] = self_s("switching.run_switching_sim")
    m["switching.segments"] = calls("engine.MarketSession")
    m["switching.flips"] = calls("engine.set_strategy")
    ensemble_wall = total_s("switching.run_switching_ensemble")
    worker_chains = sum(s[3] - s[2] for s in spans_named("switching.run_switching_sim", in_workers=True))
    m["switching.worker_busy_frac"] = _ratio(worker_chains, jobs * ensemble_wall)
    m["switching.tail_s"] = _tail_s(spans_named("switching.chain_task", in_workers=True))
    m["switching.aggregate_runs.self_s"] = self_s("switching.aggregate_runs")

    m["analytics.wilcoxon_rank_sum.calls"] = calls("analytics.wilcoxon_rank_sum")
    m["analytics.wilcoxon_rank_sum.self_s"] = self_s("analytics.wilcoxon_rank_sum")
    m["analytics.jcurve_table.self_s"] = self_s("analytics.jcurve_table")
    m["analytics.load_ticks.self_s"] = self_s("analytics.load_ticks")
    m["analytics.load_ticks.rows_per_s"] = _ratio(
        tallies["analytics.load_ticks.rows"], total_s("analytics.load_ticks")
    )
    for name in ("analytics.acf", "analytics.moments", "analytics.jarque_bera"):
        m[f"{name}.self_s"] = self_s(name)

    m["cli.main.self_s"] = self_s("cli.main")
    for name in WRITERS:
        m[f"{name}.self_s"] = self_s(name)
    return m
