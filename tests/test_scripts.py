"""Smoke tests: every experiment script in scripts/ runs at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from infomarket import _kernel

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_profile_session_tiny():
    # The script reports the kernel it resolves: exactly one of its timing
    # lines or the reason it is unavailable, and the ratios only with the
    # timings, for the reference session and for the markov3 chain. Where
    # this process resolves the kernel under the same environment, so does
    # the script.
    proc = run_script("profile_session.py", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "= 3270 activations" in proc.stdout
    assert "markov3 chain: 300 periods x (100 steps + 3 seeding), 3 traders" in lines
    unavailable = [line for line in lines if line.startswith("c kernel unavailable: ")]
    assert len(unavailable) <= 1
    compiled = not unavailable
    for label, unit, per in (("kernel", "session", "activation"), ("chain", "chain", "period")):
        timed = {kernel: [line for line in lines if line.startswith(f"{kernel} {label}, median of 2:")]
                 for kernel in ("python", "c")}
        for line in timed["python"] + timed["c"]:
            assert f"ms per {unit}" in line and f"us per {per}" in line
        assert len(timed["python"]) == 1
        assert len(timed["c"]) == compiled
    for ratio in ("python / c median ratio: ", "python / c chain median ratio: "):
        assert sum(line.startswith(ratio) for line in lines) == compiled
    library = [line for line in lines if line.startswith("c kernel library: ")]
    assert len(library) == compiled
    if compiled:
        assert f"built against numpy {np.__version__}" in library[0]
    if _kernel.resolve() is not None:
        assert compiled, proc.stdout
