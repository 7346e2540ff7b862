"""Named experiment presets binding the standard parameter sets.

Every preset fixes the market and batch parameters for one of the packaged
experiments on top of the reference market, which is `SessionConfig()`;
command-line flags can override individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import SessionConfig, default_market, market_with_levels
from .montecarlo import BatchConfig
from .switching import SwitchingConfig


def reference_session(n_agents: int = 10, *, levels=None) -> SessionConfig:
    """The reference market for a batch: one trader per listed level (default
    0..n_agents-1), no per-step price series."""
    agents = default_market(n_agents) if levels is None else market_with_levels(levels)
    return replace(SessionConfig(), agents=agents, record_series=False)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str


PRESETS: dict[str, ExperimentPreset] = {
    p.name: p
    for p in (
        ExperimentPreset(
            "jcurve10",
            "10-trader batch (100 sessions x 100 runs): relative-return curve "
            "across information levels with the pairwise rank-sum matrix",
        ),
        ExperimentPreset(
            "jcurve3",
            "3-trader market (levels 0, 4, 9; 100 runs): the same curve with "
            "only an uninformed, a mid-informed and a well-informed trader",
        ),
        ExperimentPreset(
            "tradercount_sweep",
            "markets with 3/5/7/9/10 traders (least-informed always present): "
            "how the uninformed trader's relative return approaches zero",
        ),
        ExperimentPreset(
            "efficiency",
            "default batch collecting every per-period net simple return on "
            "the asset for the efficiency histogram against r_e",
        ),
        ExperimentPreset(
            "stylized",
            "one full session recording the trade-by-trade price series for "
            "autocorrelation/moment/normality analysis of its log-returns",
        ),
        ExperimentPreset(
            "markov3",
            "3 informed traders switching value/trend rules every period for "
            "100000 periods from all 8 initial profiles; chain estimates",
        ),
        ExperimentPreset(
            "markov5",
            "5 informed traders, 600000 periods, all 32 initial profiles; "
            "structural check that the best informed stays on the value rule",
        ),
    )
}

SWEEP_TRADER_COUNTS = (3, 5, 7, 9, 10)


def batch_for_preset(name: str, master_seed: int, jobs: int | None = None) -> BatchConfig:
    if name == "jcurve10":
        return BatchConfig(session=reference_session(10), n_sessions=100,
                           runs_per_session=100, master_seed=master_seed, jobs=jobs)
    if name == "jcurve3":
        return BatchConfig(session=reference_session(levels=(0, 4, 9)), n_sessions=1,
                           runs_per_session=100, master_seed=master_seed, jobs=jobs)
    if name == "efficiency":
        return BatchConfig(session=reference_session(10), n_sessions=100,
                           runs_per_session=100, master_seed=master_seed, jobs=jobs,
                           collect_period_returns=True)
    raise KeyError(f"not a batch preset: {name}")


def sweep_batch(n_traders: int, master_seed: int, jobs: int | None = None) -> BatchConfig:
    return BatchConfig(session=reference_session(n_traders), n_sessions=40,
                       runs_per_session=50, master_seed=master_seed, jobs=jobs)


def switching_for_preset(name: str) -> tuple[SwitchingConfig, tuple[int, ...]]:
    if name == "markov3":
        cfg = SwitchingConfig(n_traders=3, n_periods=100_000)
        return cfg, tuple(range(1, 9))
    if name == "markov5":
        cfg = SwitchingConfig(n_traders=5, n_periods=600_000)
        return cfg, tuple(range(1, 33))
    raise KeyError(f"not a switching preset: {name}")
