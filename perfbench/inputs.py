"""Workload sizes and seeded input generation.

Imports numpy only, so input generation can run in the orchestrating process
without loading infomarket or inflating the workload process's memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Sized so one iteration takes about a second on a 2-core machine and a run
# holds tens of iterations, whose best one is reported; see README.md.
SIZES = {
    "jcurve": {"sessions": 6, "runs": 5},
    "markov": {"chains": 8, "periods": 300},
    "analytics": {"ticks": 500_000, "levels": 10, "samples": 10_000,
                  "runs_csv_sessions": 100, "runs_csv_runs": 100},
}

# Tiny sizes for the benchmark's own tests: every code path, a second or two.
# Only smoke mode shortens the jcurve sessions (--periods).
SMOKE_SIZES = {
    "jcurve": {"sessions": 2, "runs": 3, "periods": 5},
    "markov": {"chains": 8, "periods": 60},
    "analytics": {"ticks": 5_000, "levels": 10, "samples": 300,
                  "runs_csv_sessions": 10, "runs_csv_runs": 20},
}

# A J-shaped mean relative return per level (percentage points), after the
# 30x30 reference batch: the mid-informed lose, the best informed win.
_LEVEL_SHAPE = np.array([-0.8, -8.7, -7.4, -5.6, -3.9, -0.5, 4.0, 5.8, 7.6, 9.0])


def sizes_for(workload: str, smoke: bool) -> dict:
    return dict((SMOKE_SIZES if smoke else SIZES)[workload])


def write_analytics_inputs(outdir: Path, seed: int, sizes: dict) -> None:
    """Write ticks.csv, ticks_cents.npy and samples.npy for the analytics workload.

    Ticks: heavy-tailed (Student-t, 3 dof) log-price steps, prices rounded to
    cents so that ties and zero returns occur as in real ticks, strictly
    increasing integer millisecond times. Samples: a (samples, levels) matrix
    of relative returns around a J-shaped mean; each row sums to zero like a
    run's relative returns.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    n = sizes["ticks"]
    steps = rng.standard_t(3, size=n - 1) * 4e-4
    log_price = np.log(50.0) + np.concatenate(([0.0], np.cumsum(steps)))
    cents = np.maximum(np.rint(np.exp(log_price) * 100.0).astype(np.int64), 1)
    times = np.cumsum(rng.integers(1, 2000, size=n))
    with open(outdir / "ticks.csv", "w") as f:
        f.write("time,price\n")
        f.writelines(f"{t},{c // 100}.{c % 100:02d}\n" for t, c in zip(times.tolist(), cents.tolist()))
    np.save(outdir / "ticks_cents.npy", cents)

    levels = sizes["levels"]
    shape = _LEVEL_SHAPE[:levels]
    samples = shape + rng.standard_t(4, size=(sizes["samples"], levels)) * 6.0
    samples -= samples.mean(axis=1, keepdims=True)
    np.save(outdir / "samples.npy", samples)
