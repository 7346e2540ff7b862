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
    # timings, for the reference run, for that run with no clearing and for
    # the markov3 chain. The reference share and seeding its generators are
    # timed only with the compiled kernel, both of their lines then, and so
    # is `write_runs_csv` on 100,000 rows. Where this process resolves the
    # kernel under the same environment, so does the script. The markov3
    # ensemble and the reference batch get one median line per worker
    # count, whichever kernel ran them, and one line with the CPUs their
    # jobs-2 shares started on. The markov3 post-run is timed under each
    # kernel, and the chains each ensemble share took and the sessions each
    # batch share took are listed at jobs 1 and 2. With the compiled kernel,
    # the two passes that run on share threads are timed at one share and at
    # all of them.
    proc = run_script("profile_session.py", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "reference run: 30 periods x (100 steps + 9 seeding) = 3270 activations" in lines
    assert "no-clearing reference run: the same run, its book kept across periods" in lines
    assert "markov3 chain: 300 periods x (100 steps + 3 seeding), 3 traders" in lines
    unavailable = [line for line in lines if line.startswith("c kernel unavailable: ")]
    assert len(unavailable) <= 1
    compiled = not unavailable
    for label, unit, per in (("kernel", "run", "activation"), ("no-clearing", "run", "activation"),
                             ("chain", "chain", "period")):
        timed = {kernel: [line for line in lines if line.startswith(f"{kernel} {label}, median of 2:")]
                 for kernel in ("python", "c")}
        for line in timed["python"] + timed["c"]:
            assert f"ms per {unit}" in line and f"us per {per}" in line
        assert len(timed["python"]) == 1
        assert len(timed["c"]) == compiled
    for label, per in (("block", "run"), ("seeding", "generator")):
        timed = [line for line in lines if f" {label}, median of 2:" in line]
        assert [line.split()[0] for line in timed] == ["python", "c"] * compiled
        for line in timed:
            assert "ms per share" in line and f"us per {per}" in line
    assert not [line for line in lines if " share, median of 2:" in line or line.startswith("markov3 share")]
    assert lines.count("reference share: 6 sessions x 5 runs, python block against c block") == compiled
    assert lines.count("seeding: the share's 36 generators, rng.stream against im_seed_pcg64") == compiled
    timed = [line for line in lines if " write_runs_csv, median of 2:" in line]
    assert [line.split()[0] for line in timed] == ["python", "c"] * compiled
    for line in timed:
        assert "ms per file" in line and "us per row" in line
    assert lines.count("runs.csv: 10000 runs x 10 levels = 100000 rows") == compiled
    for ratio in ("python / c median ratio: ", "python / c no-clearing median ratio: ",
                  "python / c chain median ratio: ",
                  "python / c block median ratio: ", "python / c write_runs_csv median ratio: "):
        assert sum(line.startswith(ratio) for line in lines) == compiled
    # The tick parse and the per-run rows at one share and at all of
    # default_jobs(), with the compiled kernel.
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert lines.count(f"share passes: 500000 ticks, 100000 runs.csv rows; one share against all {jobs} of "
                       "default_jobs()") == compiled
    for label, per in (("tick parse", "tick"), ("per-run rows", "row")):
        timed = [line for line in lines if f" {label}, median of 2:" in line]
        assert [line.split(" share")[0] for line in timed] == ["one", "all"] * compiled
        for line in timed:
            assert "ms per pass" in line and f"us per {per}" in line
        assert sum(line.startswith(f"one share / all shares {label} median ratio: ") for line in lines) == compiled
    assert not [line for line in lines if "one-call" in line]
    kernel = "c" if compiled else "python"
    assert f"markov3 ensemble: 8 chains x 300 periods, {kernel} kernel" in lines
    assert f"reference batch: 6 sessions x 5 runs, {kernel} kernel" in lines
    for label, per in (("ensemble", "period"), ("batch", "run")):
        for jobs in (1, 2):
            timed = [line for line in lines if line.startswith(f"jobs {jobs} {label}, median of 2:")]
            assert len(timed) == 1
            assert f"ms per {label}" in timed[0] and f"us per {per}" in timed[0]
    placed = {"ensemble": "jobs 2 ensemble shares started on ",
              "batch": "jobs 2 batch shares started on "}
    for label, head in placed.items():
        (line,) = [line for line in lines if line.startswith(head)]
        cpus = line[len(head):]
        if cpus != "CPUs unknown: no sched_getcpu in the C library":
            # One group per thread; a compiled batch or ensemble runs two
            # shares, the Python loop one, in this thread.
            groups = cpus.removeprefix("CPUs ").split(" | ")
            assert len(groups) == (2 if compiled else 1), line
            assert all(cpu.isdigit() for group in groups for cpu in group.split()), line
    assert ("markov3 post-run: aggregate_runs and the three writers on 8 runs, 2408 states.csv rows "
            "(4096 per write)") in lines
    timed = [line for line in lines if " post-run, median of 2:" in line]
    assert [line.split()[0] for line in timed] == ["python", "c"][:1 + compiled]
    for line in timed:
        assert "ms per ensemble" in line and "us per row" in line
    assert sum(line.startswith("python / c post-run median ratio: ") for line in lines) == compiled
    for jobs in (1, 2):
        for head, items in ((f"jobs {jobs} ensemble shares took chains ", 8),
                            (f"jobs {jobs} batch shares took sessions ", 6)):
            (line,) = [line for line in lines if line.startswith(head)]
            # One count per thread: two compiled shares at jobs 2, one thread otherwise.
            counts = [int(count) for count in line[len(head):].split(" | ")]
            assert sum(counts) == items and len(counts) == (2 if compiled and jobs == 2 else 1), line
    library = [line for line in lines if line.startswith("c kernel library: ")]
    assert len(library) == compiled
    if compiled:
        assert f"checked against numpy {np.__version__}" in library[0]
    if _kernel.resolve() is not None:
        assert compiled, proc.stdout
