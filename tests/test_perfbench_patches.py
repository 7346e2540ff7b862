"""The benchmark's tracer wraps package functions by name; every name it
wraps must still exist, or a traced run fails only in the slow bench tests."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_patch_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.PATCHES if not callable(getattr(owner, attr, None))]
    assert missing == []
