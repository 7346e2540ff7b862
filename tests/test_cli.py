import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from infomarket import cli
from infomarket.cli import build_parser, main
from infomarket.presets import PRESETS, presets_for

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def run_cli(*argv):
    return main(list(argv))


def read(path: Path) -> bytes:
    return path.read_bytes()


def test_simulate_bundle(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--seed", "3", "--periods", "4", "--steps", "20",
                   "--agents", "4", "--out", str(out)) == 0
    for name in ("prices.csv", "trades.csv", "wealth.csv", "dividends.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["params"]["seed"] == 3


def test_batch_outputs_and_jobs_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    common = ["batch", "--preset", "jcurve10", "--seed", "7", "--sessions", "4",
              "--runs", "3", "--periods", "6", "--steps", "25"]
    assert run_cli(*common, "--jobs", "1", "--out", str(a)) == 0
    assert run_cli(*common, "--jobs", "4", "--out", str(b)) == 0
    for name in ("runs.csv", "jcurve.csv", "pvalues.csv"):
        assert (a / name).exists()
        assert read(a / name) == read(b / name)


def test_replay_reproduces_batch(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_cli("batch", "--seed", "5", "--sessions", "2", "--runs", "2",
                   "--periods", "5", "--steps", "20", "--jobs", "2",
                   "--out", str(first)) == 0
    assert run_cli("replay", "--manifest", str(first / "manifest.json"),
                   "--out", str(again)) == 0
    for name in ("runs.csv", "jcurve.csv", "pvalues.csv"):
        assert read(first / name) == read(again / name)


def test_replay_refuses_a_schema_1_manifest(tmp_path, capsys):
    # Schema 1 manifests were written before the rules took pre-drawn
    # variates; replaying one now would not reproduce its outputs.
    first = tmp_path / "first"
    assert run_cli("simulate", "--seed", "2", "--periods", "4", "--steps", "15",
                   "--out", str(first)) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["schema_version"] == 2
    manifest["schema_version"] = 1
    (first / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    again = tmp_path / "again"
    assert run_cli("replay", "--manifest", str(first), "--out", str(again)) == 2
    assert "error: unsupported manifest schema_version 1" in capsys.readouterr().err
    assert not again.exists()


@pytest.mark.parametrize("manifest, message", [
    pytest.param([], "manifest must hold a JSON object", id="array"),
    pytest.param({"schema_version": 2, "command": "simulate", "params": ["--seed", "1"]},
                 "manifest params must be a JSON object", id="params array"),
])
def test_replay_refuses_a_malformed_manifest(tmp_path, capsys, manifest, message):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    again = tmp_path / "again"
    assert run_cli("replay", "--manifest", str(tmp_path), "--out", str(again)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not again.exists()


def test_replay_accepts_directory(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_cli("simulate", "--seed", "2", "--periods", "4", "--steps", "15",
                   "--out", str(first)) == 0
    assert run_cli("replay", "--manifest", str(first), "--out", str(again)) == 0
    assert read(first / "prices.csv") == read(again / "prices.csv")


def test_stats_on_ticks(tmp_path):
    ticks = tmp_path / "ticks.csv"
    rows = ["time,price"] + [f"{t},{40 + (t % 7) * 0.1}" for t in range(1, 200)]
    ticks.write_text("\n".join(rows) + "\n")
    out = tmp_path / "stats"
    assert run_cli("stats", "--ticks", str(ticks), "--out", str(out)) == 0
    assert (out / "moments.csv").exists()
    assert (out / "acf.csv").exists()
    header = (out / "acf.csv").read_text().splitlines()[0]
    assert header == "lag,acf_ret,acf_absret,band"


def test_stats_on_ticks_saved_with_a_byte_order_mark(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    text = "time,price\n" + "".join(f"{t},{40 + (t % 7) * 0.1}\n" for t in range(1, 200))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert run_cli("stats", "--ticks", str(plain), "--out", str(tmp_path / "a")) == 0
    assert run_cli("stats", "--ticks", str(marked), "--out", str(tmp_path / "b")) == 0
    for name in ("acf.csv", "moments.csv"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_stats_on_ticks_refuses_a_seed_and_replays_seed_0(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("time,price\n" + "".join(f"{t},{40 + (t % 7) * 0.1}\n" for t in range(1, 200)))
    seeded = tmp_path / "seeded"
    assert run_cli("stats", "--ticks", str(ticks), "--seed", "5", "--out", str(seeded)) == 2
    assert "--seed cannot be used with --ticks" in capsys.readouterr().err
    assert not seeded.exists()
    # A --ticks manifest records the default seed, 0, and replays.
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli("stats", "--ticks", str(ticks), "--seed", "0", "--out", str(first)) == 0
    assert json.loads((first / "manifest.json").read_text())["params"]["seed"] == 0
    assert run_cli("replay", "--manifest", str(first), "--out", str(again)) == 0
    assert read(first / "acf.csv") == read(again / "acf.csv")


def test_stats_on_simulated_run(tmp_path):
    out = tmp_path / "stats"
    assert run_cli("stats", "--seed", "4", "--periods", "8", "--steps", "40",
                   "--out", str(out)) == 0
    assert (out / "efficiency.csv").exists()
    assert (out / "moments.csv").exists()


def tick_file(*prices):
    return lambda p: p.write_text("time,price\n" + "".join(f"{t},{v}\n" for t, v in enumerate(prices, 1)))


@pytest.mark.parametrize("make, message, flags", [
    (lambda p: p.write_text("time,price\n1,40\n1,41\n"), "line 3: time 1.0 not increasing", ()),
    (lambda p: None, "No such file or directory", ()),
    (lambda p: p.mkdir(), "Is a directory", ()),
    (lambda p: p.write_bytes(b"time,price\n1,40\n2,4\xff1\n"), "codec can't decode byte 0xff", ()),
    (lambda p: p.write_text("time,price\n1,40\n2,4" + "0" * 200_000 + "\n"), "line 3: non-finite value", ()),
    (lambda p: p.write_text("time,price\n1,40\n2,41\n"), "stats needs at least 3 ticks, two returns for one lag",
     ()),
    (tick_file(40, 40, 40), "the returns of {ticks} are constant", ("--max-lag", "1")),
    (tick_file(40, 41, 40, 41, 40), "the absolute returns of {ticks} are constant", ("--max-lag", "1")),
], ids=["bad row", "missing file", "directory", "not UTF-8", "field over the csv limit", "two ticks",
        "constant returns", "constant absolute returns"])
def test_stats_tick_errors_exit_3_before_the_output_directory(tmp_path, capsys, make, message, flags):
    ticks = tmp_path / "ticks.csv"
    make(ticks)
    message = message.format(ticks=ticks)
    out = tmp_path / "o"
    assert run_cli("stats", "--ticks", str(ticks), *flags, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert not out.exists()


def test_markov_outputs(tmp_path):
    out = tmp_path / "mk"
    assert run_cli("markov", "--preset", "markov3", "--periods", "50",
                   "--seed", "9", "--states", "1,2", "--jobs", "2",
                   "--out", str(out)) == 0
    for name in ("states.csv", "tmatrix.csv", "freqs.csv", "manifest.json"):
        assert (out / name).exists()
    lines = (out / "states.csv").read_text().strip().splitlines()
    assert lines[0] == "initial,interval,code"
    assert len(lines) == 1 + 2 * 51


def test_markov_jobs_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["markov", "--periods", "40", "--seed", "3", "--states", "1,5,8"]
    assert run_cli(*args, "--jobs", "1", "--out", str(a)) == 0
    assert run_cli(*args, "--jobs", "3", "--out", str(b)) == 0
    for name in ("states.csv", "tmatrix.csv", "freqs.csv"):
        assert read(a / name) == read(b / name)


def test_markov_single_run_stderr_is_nan(tmp_path):
    out = tmp_path / "mk"
    assert run_cli("markov", "--periods", "20", "--steps", "20", "--interval", "5",
                   "--seed", "1", "--states", "3", "--jobs", "1", "--out", str(out)) == 0
    rows = [line.split(",") for line in (out / "tmatrix.csv").read_text().splitlines()[1:]]
    assert len(rows) == 64
    assert {row[3] for row in rows} == {"nan"}
    freqs = [line.split(",") for line in (out / "freqs.csv").read_text().splitlines()]
    assert freqs[0] == ["code", "pi", "pi_T", "stderr"]
    assert {row[3] for row in freqs[1:]} == {"nan"}


def test_markov_reports_ties_the_stationarity_gap_and_frequency_stderrs(tmp_path, capsys):
    out = tmp_path / "mk"
    assert run_cli("markov", "--periods", "30", "--jobs", "1", "--out", str(out)) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    assert printed.startswith("runs: 8  tie intervals: ")
    rows = [[float(v) for v in line.split(",")] for line in (out / "freqs.csv").read_text().splitlines()[1:]]
    gaps = [abs(pi_t - pi) for _, pi, pi_t, _ in rows]
    assert printed.endswith(f"stationarity gap: max {max(gaps):.4f}, total {sum(gaps):.4f}")
    # the spread of each state's frequency over the 8 runs, over sqrt(8)
    runs = {}
    for line in (out / "states.csv").read_text().splitlines()[1:]:
        initial, _, code = map(int, line.split(","))
        runs.setdefault(initial, []).append(code)
    for code, _, _, stderr in rows:
        shares = [codes.count(code) / len(codes) for codes in runs.values()]
        assert stderr == pytest.approx(statistics.stdev(shares) / math.sqrt(len(shares)), rel=1e-12)


def test_markov_stderr_counts_only_the_runs_that_visited_the_row(tmp_path):
    # 8 runs of 5 codes each; a cell's stderr is the spread of the per-run
    # estimates over the runs that visited its row / sqrt(their count), and
    # nan where only one run did
    out = tmp_path / "mk"
    assert run_cli("markov", "--periods", "20", "--steps", "20", "--interval", "5",
                   "--seed", "1", "--jobs", "1", "--out", str(out)) == 0
    runs = {}
    for line in (out / "states.csv").read_text().splitlines()[1:]:
        initial, _, code = map(int, line.split(","))
        runs.setdefault(initial, []).append(code)
    stderr = {}
    for line in (out / "tmatrix.csv").read_text().splitlines()[1:]:
        a, b, _, err = line.split(",")
        stderr[int(a), int(b)] = float(err)
    visitors = {row: [codes for codes in runs.values() if row in codes[:-1]] for row in range(1, 9)}
    counts = {len(v) for v in visitors.values()}
    assert len(runs) == 8 and 1 in counts and counts & {2, 3, 4, 5, 6, 7}
    for row, visiting in visitors.items():
        for to in range(1, 9):
            if len(visiting) < 2:
                assert math.isnan(stderr[row, to])
                continue
            probs = []
            for codes in visiting:
                moves = [nxt for cur, nxt in zip(codes, codes[1:]) if cur == row]
                probs.append(moves.count(to) / len(moves))
            expected = statistics.stdev(probs) / math.sqrt(len(visiting))
            assert stderr[row, to] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_missing_out_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("INFOMARKET_OUT", raising=False)
    assert run_cli("simulate", "--seed", "1") == 2
    assert "output directory" in capsys.readouterr().err


def test_out_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOMARKET_OUT", str(tmp_path / "envout"))
    assert run_cli("simulate", "--seed", "1", "--periods", "3", "--steps", "10") == 0
    assert (tmp_path / "envout" / "prices.csv").exists()


@pytest.mark.parametrize("name, via_env", [
    pytest.param("taken", False, id="a file"),
    pytest.param("taken/sub", False, id="a path under a file"),
    pytest.param("taken", True, id="INFOMARKET_OUT names a file"),
])
def test_unusable_out_is_config_error(tmp_path, monkeypatch, capsys, name, via_env):
    (tmp_path / "taken").write_text("x")
    out = tmp_path / name
    argv = ["simulate", "--seed", "1", "--periods", "3", "--steps", "10"]
    if via_env:
        monkeypatch.setenv("INFOMARKET_OUT", str(out))
    else:
        argv += ["--out", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""
    assert (tmp_path / "taken").read_text() == "x"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 11, "periods": 4, "steps": 12}))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "12", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["seed"] == 12  # flag beats file
    assert manifest["params"]["periods"] == 4


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"sessions_count": 5}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"preset": "stylized"}, "argument --preset: invalid choice: 'stylized'"),
    ({"sessions": "abc"}, "argument --sessions: invalid int value: 'abc'"),
], ids=["bad choice", "bad type"])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, config, message):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli("batch", "--config", str(cfg), "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_bad_schema_version(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"schema_version": 99}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_help_lists_presets(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for preset in ("jcurve10", "jcurve3", "tradercount_sweep", "efficiency",
                   "markov3", "markov5"):
        assert preset in text
    assert "stylized" not in text  # `stats` takes no preset


def test_help_follows_the_terminal_after_the_parser_is_built(monkeypatch, capsys):
    def help_text(argv):
        with pytest.raises(SystemExit):
            main(argv)
        return capsys.readouterr().out

    def widest_line(text, start, end=None):
        # The usage's --preset choices are one token argparse cannot break,
        # so only the usage may stay wider.
        return max(map(len, text[text.index(start):end and text.index(end)].splitlines()))

    def listed_presets(text):
        # A preset's name starts its line; its description's continuations
        # are indented further.
        section = text[text.index("presets:"):].splitlines()[1:]
        return [line.split()[0] for line in section if not line.startswith(" " * 3)]

    for command, presets in (("batch", presets_for("batch")), ("markov", presets_for("markov")),
                             (None, list(PRESETS))):
        argv = [command, "--help"] if command else ["--help"]
        monkeypatch.setenv("COLUMNS", "200")
        wide = help_text(argv)  # the parser is built by now
        monkeypatch.setenv("COLUMNS", "60")
        narrow = help_text(argv)
        assert widest_line(wide, "presets:") > 60 >= widest_line(narrow, "presets:"), command
        if command:
            assert widest_line(wide, "options:", "presets:") > 60 >= widest_line(narrow, "options:", "presets:")
        assert listed_presets(narrow) == listed_presets(wide), command
        assert sorted(listed_presets(narrow)) == sorted(presets), command
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr().out == narrow


def test_in_process_calls_stay_independent(tmp_path, monkeypatch):
    """Calls in one process share one parser and nothing else: each writes
    what it writes alone, in a fresh interpreter."""
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 11, "periods": 5}))
    simulate = ["simulate", "--seed", "3", "--periods", "4", "--steps", "12"]
    batch = ["batch", "--seed", "3", "--sessions", "2", "--runs", "2", "--periods", "4", "--steps", "12",
             "--jobs", "1"]
    markov = ["markov", "--seed", "3", "--periods", "20", "--steps", "20", "--jobs", "1"]
    calls = {
        "batch --no-clearing": [*batch, "--no-clearing"],
        "batch": batch,
        "markov --states": [*markov, "--states", "1,2"],
        "markov": markov,
        "simulate --config": ["simulate", "--config", str(config), "--steps", "12"],
        "simulate": simulate,
    }
    added = []
    add_action = argparse._ActionsContainer._add_action
    monkeypatch.setattr(argparse._ActionsContainer, "_add_action",
                        lambda self, action: added.append(action) or add_action(self, action))
    cli._parser.cache_clear()
    for i, (name, argv) in enumerate(calls.items()):
        assert main([*argv, "--out", str(tmp_path / "together" / name)]) == 0
        if i == 0:
            assert added, "the first call builds the parser"
            added.clear()
    replayed = tmp_path / "together" / "replay"
    assert main(["replay", "--manifest", str(tmp_path / "together" / "batch --no-clearing"),
                 "--out", str(replayed)]) == 0
    assert added == []

    for name, argv in calls.items():
        proc = run_python("-c", "import sys; from infomarket.cli import main; sys.exit(main())",
                          *argv, "--out", str(tmp_path / "alone" / name))
        assert proc.returncode == 0, proc.stderr
    for name, expected in [*((name, name) for name in calls), ("replay", "batch --no-clearing")]:
        together, alone = tmp_path / "together" / name, tmp_path / "alone" / expected
        files = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in together.iterdir()) == files
        for file in files:
            assert read(together / file) == read(alone / file), (name, file)
    params = {name: json.loads((tmp_path / "together" / name / "manifest.json").read_text())["params"]
              for name in calls}
    assert params["batch --no-clearing"]["no_clearing"] and not params["batch"]["no_clearing"]
    assert params["markov --states"]["states"] == "1,2" and "states" not in params["markov"]
    assert (params["simulate --config"]["seed"], params["simulate"]["seed"]) == (11, 3)
    for name, chains in (("markov --states", 2), ("markov", 8)):
        rows = (tmp_path / "together" / name / "states.csv").read_text().splitlines()[1:]
        assert len({row.split(",")[0] for row in rows}) == chains


def test_importing_the_cli_builds_no_parser():
    # The parser is built on the first `main` call, so an import stays as
    # cheap as the modules it loads.
    code = ("import argparse\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a parser was built at import')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import infomarket.cli, infomarket.presets\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects unknown flags by exiting
        return e.code


@pytest.mark.parametrize("command, preset", [("batch", "stylized"), ("batch", "markov3"),
                                             ("markov", "jcurve10")])
def test_preset_must_be_one_the_subcommand_runs(tmp_path, capsys, command, preset):
    out = tmp_path / "o"
    assert exit_code([command, "--preset", preset, "--out", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_jcurve3_keeps_its_levels_under_session_flags(tmp_path):
    out = tmp_path / "j3"
    assert run_cli("batch", "--preset", "jcurve3", "--seed", "2", "--runs", "3",
                   "--periods", "4", "--steps", "10", "--out", str(out)) == 0
    rows = (out / "jcurve.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "4", "9"]


SWEEP = ["batch", "--preset", "tradercount_sweep", "--seed", "1", "--sessions", "1",
         "--runs", "2", "--periods", "3", "--steps", "10", "--jobs", "1"]
MARKOV = ["markov", "--seed", "1", "--periods", "20", "--steps", "20", "--jobs", "1"]
TICKS = ["stats", "--ticks", "{ticks}"]
SIMULATE = ["simulate", "--seed", "1", "--periods", "3", "--steps", "10"]
STATS = ["stats", "--seed", "1", "--periods", "3", "--steps", "10"]
BATCH = ["batch", "--seed", "1", "--sessions", "1", "--runs", "2", "--periods", "3",
         "--steps", "10", "--jobs", "1"]


@pytest.mark.parametrize(
    "base, flag, expected_rc, output",
    [
        pytest.param(SWEEP, ["--periods", "4"], 0, "runs_3.csv", id="sweep --periods"),
        pytest.param(SWEEP, ["--steps", "12"], 0, "runs_3.csv", id="sweep --steps"),
        pytest.param(SWEEP, ["--no-clearing"], 0, "runs_3.csv", id="sweep --no-clearing"),
        pytest.param(SWEEP, ["--agents", "4"], 2, None, id="sweep --agents"),
        pytest.param(MARKOV, ["--steps", "100"], 0, "states.csv", id="markov --steps"),
        pytest.param(MARKOV, ["--agents", "3"], 2, None, id="markov --agents"),
        pytest.param(MARKOV, ["--no-clearing"], 2, None, id="markov --no-clearing"),
        pytest.param(MARKOV, ["--interval", "5"], 0, "states.csv", id="markov --interval"),
        pytest.param(TICKS, ["--agents", "4"], 2, None, id="stats --ticks --agents"),
        pytest.param(TICKS, ["--periods", "5"], 2, None, id="stats --ticks --periods"),
        pytest.param(TICKS, ["--steps", "5"], 2, None, id="stats --ticks --steps"),
        pytest.param(TICKS, ["--no-clearing"], 2, None, id="stats --ticks --no-clearing"),
        pytest.param(TICKS, ["--per-step"], 2, None, id="stats --ticks --per-step"),
        pytest.param(TICKS, ["--seed", "5"], 2, None, id="stats --ticks --seed"),
        pytest.param(TICKS, ["--config", "{config}"], 0, "acf.csv", id="stats --ticks --config"),
        pytest.param(SIMULATE, ["--jobs", "2"], 2, None, id="simulate --jobs"),
        pytest.param(STATS, ["--jobs", "2"], 2, None, id="stats --jobs"),
        pytest.param(SIMULATE, ["--agents", "12"], 0, "dividends.csv", id="simulate --agents 12"),
        pytest.param(BATCH, ["--agents", "12"], 0, "runs.csv", id="batch --agents 12"),
        pytest.param(STATS, ["--agents", "12"], 0, "moments.csv", id="stats --agents 12"),
        pytest.param(BATCH, ["--jobs", "0"], 2, None, id="batch --jobs 0"),
        pytest.param(SWEEP, ["--jobs", "0"], 2, None, id="sweep --jobs 0"),
        pytest.param(MARKOV, ["--jobs", "0"], 2, None, id="markov --jobs 0"),
    ],
)
def test_cli_never_silently_drops_a_flag(tmp_path, base, flag, expected_rc, output):
    """Adding the flag either changes the output or is rejected with exit 2."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("time,price\n" + "".join(f"{t},{40 + (t * 7 % 11) * 0.1}\n" for t in range(1, 200)))
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"max_lag": 5}))

    def argv(args, out):
        return [a.format(ticks=ticks, config=config) for a in args] + ["--out", str(tmp_path / out)]

    assert exit_code(argv(base, "without")) == 0
    assert exit_code(argv(base + flag, "with")) == expected_rc
    if output is not None:
        assert read(tmp_path / "without" / output) != read(tmp_path / "with" / output)


def test_markov_interval_error_names_the_flag_and_the_segment(tmp_path, capsys):
    assert run_cli(*MARKOV, "--interval", "4", "--out", str(tmp_path / "mk")) == 2
    err = capsys.readouterr().err
    assert "--interval" in err and "30-period segment" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param([*MARKOV, "--states", "a,b"],
                 "argument --states: expected comma-separated state codes, got 'a,b'", id="markov not ints"),
    pytest.param([*MARKOV, "--states", "0,2"], "argument --states: state codes start at 1, got '0,2'",
                 id="markov zero"),
    pytest.param([*MARKOV, "--states", "99"], "--states: code 99 outside 1..8", id="markov outside markov3"),
    pytest.param([*MARKOV, "--traders", "2", "--states", "1,5"], "--states: code 5 outside 1..4",
                 id="markov outside --traders 2"),
    pytest.param([*MARKOV, "--states", "2,2"], "argument --states: state codes must be distinct, got '2,2'",
                 id="markov repeated"),
    pytest.param([*MARKOV, "--traders", "9"], "n_traders must be in 1..8, got 9", id="markov --traders 9"),
    pytest.param([*MARKOV, "--jobs", "0"], "argument --jobs: expected a worker count >= 1, got '0'",
                 id="markov --jobs 0"),
    pytest.param([*MARKOV, "--steps", "0"], "n_periods and steps_per_period must be >= 1", id="markov --steps 0"),
    pytest.param([*MARKOV, "--seed", "-1"], "argument --seed: expected a master seed >= 0, got '-1'",
                 id="markov --seed -1"),
    pytest.param([*SIMULATE, "--seed", "-1"], "argument --seed: expected a master seed >= 0, got '-1'",
                 id="simulate --seed -1"),
    pytest.param([*STATS, "--seed", "-1"], "argument --seed: expected a master seed >= 0, got '-1'",
                 id="stats --seed -1"),
    pytest.param([*SIMULATE, "--agents", "0"], "a session needs at least one trader", id="simulate --agents 0"),
    pytest.param([*SIMULATE, "--periods", "0"], "n_periods and steps_per_period must be >= 1",
                 id="simulate --periods 0"),
    pytest.param([*BATCH, "--sessions", "0", "--runs", "1"], "n_sessions and runs_per_session must be >= 1",
                 id="batch --sessions 0"),
    pytest.param([*BATCH, "--steps", "0"], "n_periods and steps_per_period must be >= 1", id="batch --steps 0"),
    pytest.param([*BATCH, "--jobs", "0"], "argument --jobs: expected a worker count >= 1, got '0'",
                 id="batch --jobs 0"),
    pytest.param([*SWEEP, "--periods", "0"], "n_periods and steps_per_period must be >= 1",
                 id="sweep --periods 0"),
    pytest.param([*SWEEP, "--agents", "4"], "--agents does not apply to tradercount_sweep", id="sweep --agents"),
    pytest.param([*STATS, "--periods", "0"], "n_periods and steps_per_period must be >= 1",
                 id="stats --periods 0"),
    pytest.param([*TICKS, "--max-lag", "5"], "error: --max-lag 5 needs at least 6 returns; {ticks} has 2\n",
                 id="stats --ticks --max-lag 5"),
    # The flag is checked as argparse reads it, and against the run's returns before the output directory.
    pytest.param([*STATS, "--max-lag", "0"], "argument --max-lag: expected a lag >= 1, got '0'",
                 id="stats --max-lag 0"),
    pytest.param(["stats", "--periods", "2", "--steps", "1"],
                 "error: --max-lag 20 needs at least 21 returns; the simulated run has 8\n",
                 id="stats --max-lag over the run's returns"),
    # One trader cannot trade, so the run has only its opening price.
    pytest.param(["stats", "--agents", "1", "--periods", "2", "--steps", "3"],
                 "stats needs at least 3 trade prices, two returns for one lag; the simulated run has 1",
                 id="stats without trades"),
    # A net return needs two closing prices.
    pytest.param([*STATS, "--periods", "1"], "stats needs --periods >= 2", id="stats --periods 1"),
    # Two traders who never trade in one-step periods leave the opening price.
    pytest.param(["stats", "--seed", "0", "--agents", "2", "--periods", "3", "--steps", "1", "--per-step",
                  "--max-lag", "1"], "the returns of the simulated run are constant", id="stats constant returns"),
    pytest.param([*BATCH, "--preset", "efficiency", "--periods", "1"],
                 "collecting net returns needs n_periods >= 2", id="efficiency --periods 1"),
])
def test_bad_flags_exit_2_before_the_output_directory(tmp_path, capsys, argv, message):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("time,price\n1,40\n2,41\n3,40\n")
    out = tmp_path / "o"
    assert exit_code([a.format(ticks=ticks) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message.format(ticks=ticks) in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_simulate_path_runs_past_the_top_reader(tmp_path):
    # 11 traders: the level-10 trader reads D(k)..D(k+9) in period k = 1..30
    out = tmp_path / "sim"
    assert run_cli("simulate", "--agents", "11", "--seed", "2", "--steps", "10", "--out", str(out)) == 0
    rows = (out / "dividends.csv").read_text().splitlines()
    assert len(rows) == 1 + 30 + 10


def test_one_run_sweep_writes_a_nan_stderr_without_a_warning(tmp_path):
    # One sample per trader count has no spread, as a one-run level in jcurve.csv.
    out = tmp_path / "sw"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*SWEEP, "--runs", "1", "--out", str(out)) == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()]
    assert rows[0][2] == "stderr_pp" and len(rows) == 6
    assert [row[2] for row in rows[1:]] == ["nan"] * 5


def test_one_period_batch_writes_runs_without_a_warning(tmp_path):
    # No net return exists, so the run's mean net return is nan, not the
    # mean of an empty slice.
    out = tmp_path / "b"
    assert run_cli(*BATCH, "--periods", "1", "--out", str(out)) == 0
    rows = (out / "runs.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 10
