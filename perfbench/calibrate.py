"""Machine-speed calibration for the benchmark's timings.

On a 2-vCPU virtual machine (2.1 GHz Xeon) the benchmark's wall times moved
by up to a third with other tenants' load, for tens of seconds at a time and
mostly invisibly to the guest (little or no steal time is reported). Every
timed operation is therefore bracketed by short runs of a fixed piece of
Python work, and its wall time is rescaled to a machine on which one such
run takes ``REFERENCE_S``:

    normalized = wall * REFERENCE_S / mean(calibration samples around it)

The calibration work imitates the package's hot loop (a heap-based book of
tuples, a dict, Gaussian draws, float arithmetic), because a plain integer
loop tracked the simulator's slowdowns less than half as well. It belongs to
the benchmark and must never change with the package. Raw wall times are
kept next to the normalized ones in the results file.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

REFERENCE_S = 0.02  # nominal time of one calibration sample
SAMPLES = 3  # per calibration block, about 50 ms on a 2.1 GHz Xeon vCPU


def _work() -> float:
    rnd = random.Random(12345)
    bids: list[tuple] = []
    asks: list[tuple] = []
    owner: dict[int, tuple] = {}
    total = 0.0
    for seq in range(12_000):
        price = 40.0 + 2.0 * rnd.gauss(0.0, 1.0)
        if rnd.random() < 0.5:
            heapq.heappush(asks, (price, seq, seq % 10))
        else:
            heapq.heappush(bids, (-price, seq, seq % 10))
        owner[seq] = (seq % 10, price)
        if asks and bids and -bids[0][0] >= asks[0][0]:
            ask, bid = heapq.heappop(asks), heapq.heappop(bids)
            total += ask[0] + bid[0]
            del owner[ask[1]], owner[bid[1]]
    return total


def block(samples: int = SAMPLES) -> list[float]:
    """Time ``samples`` runs of the calibration work, in seconds each.

    The cyclic garbage collector is paused meanwhile: a collection would
    scan the package's live objects, which would make the calibration depend
    on the heap the package leaves behind.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return times


def scale(samples: list[float]) -> float:
    """Factor that turns a wall time taken among ``samples`` into reference seconds."""
    return REFERENCE_S * len(samples) / sum(samples)
