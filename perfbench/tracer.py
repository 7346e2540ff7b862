"""Tracer for the benchmark's traced iterations.

It wraps public functions of the infomarket layers at the names where they
are looked up (``engine.decide_random``, ``montecarlo.stream``,
``cli.run_batch`` and so on) and restores the originals afterwards; nothing
in ``src/`` knows about it.

Two kinds of wrapper:

* span: coarse boundaries (CLI call, batch, session, period, writers). Each
  call records ``(span_id, name, start, end, parent_id, pid, run_id)``.
* leaf: hot calls such as ``best_bid``. Only a per-(function, parent) count,
  total time and self time are kept, so the trace does not grow per call.

Every wrapped call also charges its duration to the enclosing wrapped call,
which gives each name a self time. Records stay in memory. Work done in pool
workers (the package forks them) is written per process after each task and
merged by the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter
_ROOT_NAME = "<root>"


class Tracer:
    def __init__(self, trace_dir: Path, run_id: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.run_id = run_id
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._flushes = 0
        self._next_id = 0
        # Open wrapped calls: [name, span_id, child_time]. Forked workers
        # inherit the parent's open frames, so their spans keep a parent.
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.tallies: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, kind: str = "leaf", tally=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; kind is leaf, span or task.

        A task is a span that runs as one pool task: in a worker process it
        flushes that process's records to the trace directory when it ends.
        ``tally(result)`` may return a ``(counter, amount)`` pair to add.
        """
        original = getattr(owner, attr)
        wrapper = self._make_wrapper(original, name, kind, tally)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _make_wrapper(self, fn, name: str, kind: str, tally):
        stack, agg, spans, tallies = self._stack, self.agg, self.spans, self.tallies
        root = [_ROOT_NAME, None, 0.0]
        record_span = kind != "leaf"
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if kind == "task" and os.getpid() != tracer._pid:
                tracer._enter_child()
            parent = stack[-1] if stack else root
            span_id = None
            if record_span:
                span_id = f"{tracer._pid}:{tracer._next_id}"
                tracer._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if record_span:
                    spans.append((span_id, name, t0, t1, parent[1], tracer._pid, tracer.run_id))
            if tally is not None:
                counted = tally(result)
                if counted is not None:
                    tallies[counted[0]] += counted[1]
            if kind == "task" and tracer._pid != tracer.main_pid:
                tracer._flush_worker()
            return result

        return wrapper

    # -- worker processes ---------------------------------------------------

    def _enter_child(self) -> None:
        # First task in a freshly forked worker: drop the parent's records.
        self._pid = os.getpid()
        self._next_id = 0
        self._flushes = 0
        self.spans.clear()
        self.agg.clear()
        self.tallies.clear()

    def _flush_worker(self) -> None:
        self._flushes += 1
        path = self.trace_dir / f"worker-{self._pid}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as f:
            json.dump(self.records(), f)
        os.replace(tmp, path)
        self.spans.clear()
        self.agg.clear()
        self.tallies.clear()

    def records(self) -> dict:
        return {
            "spans": self.spans,
            "agg": [[n, p, *rec] for (n, p), rec in self.agg.items()],
            "tallies": dict(self.tallies),
        }

    def merge_workers(self) -> None:
        """Fold the per-process worker files into this tracer's records."""
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            with open(path) as f:
                data = json.load(f)
            path.unlink()
            self.spans.extend(tuple(s) for s in data["spans"])
            for name, parent, calls, total, self_s in data["agg"]:
                rec = self.agg.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for label, count in data["tallies"].items():
                self.tallies[label] += count

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over parents and processes."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out
