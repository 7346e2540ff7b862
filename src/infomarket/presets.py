"""Named experiment presets: one table entry per packaged experiment.

Each entry's config names only the fields that differ from the defaults of
`BatchConfig` (whose session is the reference market, `SessionConfig()`) or
`SwitchingConfig`; command-line flags override individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import SessionConfig, market_with_levels
from .montecarlo import BatchConfig
from .switching import SwitchingConfig


@dataclass(frozen=True)
class ExperimentPreset:
    command: str  # the subcommand that runs it
    description: str
    config: BatchConfig | SwitchingConfig


PRESETS: dict[str, ExperimentPreset] = {
    "jcurve10": ExperimentPreset(
        "batch",
        "10-trader batch (100 sessions x 100 runs): relative-return curve "
        "across information levels with the pairwise rank-sum matrix",
        BatchConfig(),
    ),
    "jcurve3": ExperimentPreset(
        "batch",
        "3-trader market (levels 0, 4, 9; 100 runs): the same curve with "
        "only an uninformed, a mid-informed and a well-informed trader",
        BatchConfig(session=replace(SessionConfig(), agents=market_with_levels((0, 4, 9))), n_sessions=1),
    ),
    # The batch shape for each count in SWEEP_TRADER_COUNTS, whose market
    # is `default_market(count)`.
    "tradercount_sweep": ExperimentPreset(
        "batch",
        "markets with 3/5/7/9/10 traders (least-informed always present): "
        "how the uninformed trader's relative return approaches zero",
        BatchConfig(n_sessions=40, runs_per_session=50),
    ),
    "efficiency": ExperimentPreset(
        "batch",
        "default batch collecting every per-period net simple return on "
        "the asset for the efficiency histogram against r_e",
        BatchConfig(collect_period_returns=True),
    ),
    "markov3": ExperimentPreset(
        "markov",
        "3 informed traders switching value/trend rules every period for "
        "100000 periods from all 8 initial profiles; chain estimates",
        SwitchingConfig(),
    ),
    "markov5": ExperimentPreset(
        "markov",
        "5 informed traders, 600000 periods, all 32 initial profiles; "
        "structural check that the best informed stays on the value rule",
        SwitchingConfig(n_traders=5, n_periods=600_000),
    ),
}

SWEEP_TRADER_COUNTS = (3, 5, 7, 9, 10)


def presets_for(command: str) -> list[str]:
    """Names of the presets `command` runs, sorted."""
    return sorted(name for name, p in PRESETS.items() if p.command == command)


def _config(name: str, command: str):
    preset = PRESETS.get(name)
    if preset is None or preset.command != command:
        raise KeyError(f"not a {command} preset: {name}")
    return preset.config


def batch_for_preset(name: str, master_seed: int, jobs: int | None = None) -> BatchConfig:
    return replace(_config(name, "batch"), master_seed=master_seed, jobs=jobs)


def switching_for_preset(name: str) -> SwitchingConfig:
    return _config(name, "markov")
