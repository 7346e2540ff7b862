import json
import math
import statistics
from pathlib import Path

import pytest

from infomarket.cli import main


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


def test_stats_on_simulated_run(tmp_path):
    out = tmp_path / "stats"
    assert run_cli("stats", "--seed", "4", "--periods", "8", "--steps", "40",
                   "--out", str(out)) == 0
    assert (out / "efficiency.csv").exists()
    assert (out / "moments.csv").exists()


@pytest.mark.parametrize("make, message", [
    (lambda p: p.write_text("time,price\n1,40\n1,41\n"), "line 3: time 1.0 not increasing"),
    (lambda p: None, "No such file or directory"),
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_bytes(b"time,price\n1,40\n2,4\xff1\n"), "codec can't decode byte 0xff"),
], ids=["bad row", "missing file", "directory", "not UTF-8"])
def test_stats_tick_errors_exit_3_before_the_output_directory(tmp_path, capsys, make, message):
    ticks = tmp_path / "ticks.csv"
    make(ticks)
    out = tmp_path / "o"
    assert run_cli("stats", "--ticks", str(ticks), "--out", str(out)) == 3
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


def test_markov_stderr_counts_only_the_runs_that_visited_the_row(tmp_path):
    # 8 runs of 5 codes each; row 5 is visited by one run and row 2 by three,
    # so their cells' stderr is the spread over those runs / sqrt(1 or 3)
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
    visitors = {row: [codes for codes in runs.values() if row in codes[:-1]] for row in (2, 5)}
    assert (len(runs), len(visitors[2]), len(visitors[5])) == (8, 3, 1)
    for to in range(1, 9):
        assert math.isnan(stderr[5, to])
        probs = []
        for codes in visitors[2]:
            moves = [nxt for cur, nxt in zip(codes, codes[1:]) if cur == 2]
            probs.append(moves.count(to) / len(moves))
        assert stderr[2, to] == pytest.approx(statistics.stdev(probs) / math.sqrt(3), rel=1e-12, abs=1e-15)


def test_missing_out_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("INFOMARKET_OUT", raising=False)
    assert run_cli("simulate", "--seed", "1") == 2
    assert "output directory" in capsys.readouterr().err


def test_out_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOMARKET_OUT", str(tmp_path / "envout"))
    assert run_cli("simulate", "--seed", "1", "--periods", "3", "--steps", "10") == 0
    assert (tmp_path / "envout" / "prices.csv").exists()


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
                   "stylized", "markov3", "markov5"):
        assert preset in text


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
        pytest.param(TICKS, ["--config", "{config}"], 0, "acf.csv", id="stats --ticks --config"),
        pytest.param(SIMULATE, ["--jobs", "2"], 2, None, id="simulate --jobs"),
        pytest.param(STATS, ["--jobs", "2"], 2, None, id="stats --jobs"),
        pytest.param(SIMULATE, ["--agents", "12"], 0, "dividends.csv", id="simulate --agents 12"),
        pytest.param(BATCH, ["--agents", "12"], 0, "runs.csv", id="batch --agents 12"),
        pytest.param(STATS, ["--agents", "12"], 0, "moments.csv", id="stats --agents 12"),
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


@pytest.mark.parametrize("flags, message", [
    (["--states", "a,b"], "argument --states: expected comma-separated state codes, got 'a,b'"),
    (["--states", "0,2"], "argument --states: state codes start at 1, got '0,2'"),
    (["--states", "99"], "--states: code 99 outside 1..8"),
    (["--traders", "2", "--states", "1,5"], "--states: code 5 outside 1..4"),
], ids=["not ints", "zero", "outside markov3", "outside --traders 2"])
def test_markov_bad_states_exit_2_before_the_output_directory(tmp_path, capsys, flags, message):
    out = tmp_path / "mk"
    assert exit_code([*MARKOV, *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_path_runs_past_the_top_reader(tmp_path):
    # 11 traders: the level-10 trader reads D(k)..D(k+9) in period k = 1..30
    out = tmp_path / "sim"
    assert run_cli("simulate", "--agents", "11", "--seed", "2", "--steps", "10", "--out", str(out)) == 0
    rows = (out / "dividends.csv").read_text().splitlines()
    assert len(rows) == 1 + 30 + 10
