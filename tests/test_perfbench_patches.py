"""The benchmark calls package functions by name: its tracer wraps them and
its set-up probe builds preset configs. Every such name must still exist, or
a run fails only in the slow bench tests or inside the benchmark itself."""

import importlib
import importlib.util
from pathlib import Path

from infomarket import presets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_patch_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.PATCHES if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_setup_probe_builds_its_preset():
    # run.py's top level imports only the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run._SETUP_CODE
    for code in run._SETUP_CODE.values():
        exec(code, {"presets": presets})
