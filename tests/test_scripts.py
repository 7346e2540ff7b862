"""Smoke tests: every experiment script in scripts/ runs at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

from infomarket._kernel import find_compiler

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_profile_session_tiny():
    proc = run_script("profile_session.py", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    assert "= 3270 activations" in proc.stdout
    compiled = find_compiler() is not None
    for kernel in ("python", "c") if compiled else ("python",):
        line = next(line for line in proc.stdout.splitlines() if line.startswith(f"{kernel} kernel, median of 2:"))
        assert "ms per session" in line and "us per activation" in line
    assert ("python / c median ratio: " in proc.stdout) == compiled
