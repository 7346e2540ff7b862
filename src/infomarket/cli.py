"""Command-line front end: run experiments, emit CSV bundles, replay manifests.

Subcommands:
  simulate  one session, full CSV bundle (prices, trades, wealth, dividends)
  batch     Monte Carlo batch (or trader-count sweep) with curve outputs
  stats     analytics over a simulated run or an external tick CSV
  markov    strategy-switching experiments and chain estimates
  replay    re-run a stored manifest bit-exactly

Every run writes a manifest.json sufficient for exact replay and prints the
effective configuration including the master seed. Exit codes: 0 success,
2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    TickDataError,
    acf,
    jarque_bera,
    jcurve_table,
    load_ticks,
    log_returns,
    moments,
    random_trader_sweep,
    write_acf_csv,
    write_efficiency_summary_csv,
    write_jcurve_csv,
    write_moments_csv,
    write_pvalues_csv,
    write_sweep_csv,
)
from .dividends import generate_dividend_path
from .engine import SessionConfig, default_market, export_session_csv, run_session, session_net_returns
from .montecarlo import BatchConfig, run_batch, write_efficiency_csv, write_runs_csv
from .presets import (
    PRESETS,
    SWEEP_TRADER_COUNTS,
    batch_for_preset,
    presets_for,
    switching_for_preset,
)
from .rng import PATH_DOMAIN, RUN_DOMAIN, stream
from .switching import (
    aggregate_runs,
    run_switching_ensemble,
    stationarity_gap,
    write_freqs_csv,
    write_states_csv,
    write_tmatrix_csv,
)

MANIFEST_SCHEMA = 2
CONFIG_SCHEMA = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(Exception):
    pass


def _preset_help(command: str | None = None) -> str:
    """The preset list for `command`'s help, or every preset for the top level."""
    lines = ["presets:"]
    for name, p in PRESETS.items():
        if command in (None, p.command):
            lines.append(f"  {name:<18} {p.description}")
    return "\n".join(lines)


def _state_codes(text: str) -> str:
    """`--states` checked as comma-separated distinct positive ints and kept
    as given, which is how the manifest records it. A repeated code would
    rerun the same chain, since a run's streams are keyed by its code."""
    try:
        codes = [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated state codes, got {text!r}") from None
    if min(codes) < 1:
        raise argparse.ArgumentTypeError(f"state codes start at 1, got {text!r}")
    if len(set(codes)) < len(codes):
        raise argparse.ArgumentTypeError(f"state codes must be distinct, got {text!r}")
    return text


def _jobs(text: str) -> int:
    """`--jobs` checked as a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a worker count >= 1, got {text!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomarket",
        description="Double-auction market simulator with heterogeneously informed traders.",
        epilog=_preset_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"infomarket {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, preset=False, batch=False, markov=False) -> None:
        p.add_argument("--config", help="JSON file with defaults for these flags (flags win)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
        p.add_argument("--out", default=None,
                       help="output directory (default: $INFOMARKET_OUT)")
        if preset:
            p.add_argument("--jobs", type=_jobs, default=None,
                           help="worker processes (default: one per CPU this process may run on)")
            p.add_argument("--preset", choices=presets_for("batch" if batch else "markov"),
                           default="jcurve10" if batch else "markov3", help="(default %(default)s)")
        if not markov:
            p.add_argument("--agents", type=int, default=None, help="number of traders")
        p.add_argument("--periods", type=int, default=None, help="trading periods")
        p.add_argument("--steps", type=int, default=None, help="steps per period")
        if not markov:
            p.add_argument("--no-clearing", action="store_true",
                           help="keep the book across period boundaries")
        if batch:
            p.add_argument("--sessions", type=int, default=None, help="dividend paths")
            p.add_argument("--runs", type=int, default=None, help="runs per session")
        if markov:
            p.add_argument("--traders", type=int, default=None, help="informed traders")
            p.add_argument("--interval", type=int, default=None,
                           help="periods between strategy updates")
            p.add_argument("--states", type=_state_codes, default=None,
                           help="comma-separated initial state codes (default: all)")

    p = sub.add_parser("simulate", help="run one session and export its CSV bundle")
    common(p)
    p = sub.add_parser("batch", help="run a Monte Carlo batch or sweep",
                       epilog=_preset_help("batch"),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    common(p, preset=True, batch=True)
    p = sub.add_parser("stats", help="analytics over a simulated run or tick CSV")
    common(p)
    p.add_argument("--ticks", default=None, help="external time,price CSV to analyse")
    p.add_argument("--max-lag", type=int, default=20, help="autocorrelation horizon (default %(default)s)")
    p.add_argument("--per-step", action="store_true",
                   help="use per-step prices instead of per-trade prices")
    p = sub.add_parser("markov", help="strategy-switching experiments",
                       epilog=_preset_help("markov"),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    common(p, preset=True, markov=True)
    p = sub.add_parser("replay", help="re-run a stored manifest bit-exactly")
    p.add_argument("--manifest", required=True, help="path to a manifest.json")
    p.add_argument("--out", default=None, help="output directory (default: $INFOMARKET_OUT)")
    return parser


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The `--config` file's values as flag tokens, for argparse to check."""
    try:
        with open(args.config) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    version = data.pop("schema_version", CONFIG_SCHEMA)
    if version != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema_version {version}")
    known = vars(args).keys() - {"command", "config"}
    for key in data:
        if key.replace("-", "_") not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return _flag_tokens(data)


def _flag_tokens(params: dict) -> list[str]:
    """`{"no_clearing": True, "seed": 3}` -> `["--no-clearing", "--seed=3"]`."""
    argv = []
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _outdir(args) -> Path:
    out = args.out or os.environ.get("INFOMARKET_OUT")
    if not out:
        raise ConfigError("no output directory: pass --out or set INFOMARKET_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _effective(args) -> dict:
    skip = {"command", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _announce(command: str, eff: dict, out: Path) -> None:
    print(f"infomarket {command} -> {out}")
    print(json.dumps(eff, sort_keys=True, default=str))


def _write_manifest(out: Path, command: str, eff: dict) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "package_version": __version__,
        "command": command,
        "params": eff,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _override_session(session: SessionConfig, args) -> SessionConfig:
    """The session flags applied to a preset's session config."""
    kw = {}
    if args.agents is not None:
        kw["agents"] = default_market(args.agents)
    if args.periods is not None:
        kw["n_periods"] = args.periods
    if args.steps is not None:
        kw["steps_per_period"] = args.steps
    if args.no_clearing:
        kw["clear_book_each_period"] = False
    return replace(session, **kw)


def _override_batch(cfg: BatchConfig, args) -> BatchConfig:
    """The session and batch-size flags applied to a preset's batch config."""
    kw = {}
    if args.sessions is not None:
        kw["n_sessions"] = args.sessions
    if args.runs is not None:
        kw["runs_per_session"] = args.runs
    return replace(cfg, session=_override_session(cfg.session, args), **kw)


def cmd_simulate(args) -> int:
    scfg = _override_session(SessionConfig(), args)
    out = _outdir(args)
    eff = _effective(args)
    _announce("simulate", eff, out)
    path = generate_dividend_path(scfg.dividends, scfg.path_length, stream(args.seed, PATH_DOMAIN, 0))
    result = run_session(scfg, path, stream(args.seed, RUN_DOMAIN, 0, 0))
    export_session_csv(result, out)
    _write_manifest(out, "simulate", eff)
    print(f"trades: {len(result.trade_prices)}")
    return EXIT_OK


def _emit_batch_outputs(batch, out: Path) -> None:
    write_runs_csv(batch, out / "runs.csv")
    table = jcurve_table(batch.samples_by_level())
    write_jcurve_csv(table, out / "jcurve.csv")
    write_pvalues_csv(table, out / "pvalues.csv")
    if batch.period_returns is not None:
        write_efficiency_csv(batch, out / "efficiency.csv")
        print(f"mean net simple return: {batch.mean_net_return():.6f} "
              f"(r_e = {batch.config.session.rates.r_e})")


def cmd_batch(args) -> int:
    counts = SWEEP_TRADER_COUNTS if args.preset == "tradercount_sweep" else ()
    if counts and args.agents is not None:
        raise ConfigError("--agents does not apply to tradercount_sweep, which sets its own trader counts")
    cfg = _override_batch(batch_for_preset(args.preset, args.seed, jobs=args.jobs), args)
    sweep = {n: replace(cfg, session=replace(cfg.session, agents=default_market(n))) for n in counts}
    out = _outdir(args)
    eff = _effective(args)
    _announce("batch", eff, out)
    if sweep:
        samples = {}
        for n, n_cfg in sweep.items():
            batch = run_batch(n_cfg)
            write_runs_csv(batch, out / f"runs_{n}.csv")
            samples[n] = batch.samples_by_level()[0]
        write_sweep_csv(random_trader_sweep(samples), out / "sweep.csv")
    else:
        _emit_batch_outputs(run_batch(cfg), out)
    _write_manifest(out, "batch", eff)
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.ticks:
        simulation_flags = {"--agents": args.agents, "--periods": args.periods, "--steps": args.steps,
                            "--no-clearing": args.no_clearing, "--per-step": args.per_step}
        given = [flag for flag, value in simulation_flags.items() if value is not None and value is not False]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be used with --ticks: they set up a simulated run")
        try:
            returns = log_returns(load_ticks(args.ticks).prices)
        except (OSError, UnicodeDecodeError) as e:
            raise TickDataError(f"cannot read {args.ticks}: {e}") from None
    else:
        scfg = _override_session(SessionConfig(), args)
        if scfg.n_periods < 2:
            raise ConfigError("stats needs --periods >= 2: a net return spans two closing prices")
        path = generate_dividend_path(scfg.dividends, scfg.path_length, stream(args.seed, PATH_DOMAIN, 0))
        result = run_session(scfg, path, stream(args.seed, RUN_DOMAIN, 0, 0))
        returns = log_returns(result.prices if args.per_step else result.trade_prices)
        net_returns = session_net_returns(result)
    ret_acf = acf(returns, args.max_lag)
    abs_acf = acf(np.abs(returns), args.max_lag)
    out = _outdir(args)
    eff = _effective(args)
    _announce("stats", eff, out)
    if not args.ticks:
        write_efficiency_summary_csv(net_returns, out / "efficiency.csv")
        print(f"mean net simple return: {net_returns.mean():.6f} (r_e = {scfg.rates.r_e}, r_f = {scfg.rates.r_f})")
    write_acf_csv(ret_acf, abs_acf, out / "acf.csv")
    mom = moments(returns)
    jb = jarque_bera(mom, len(returns))
    write_moments_csv(mom, jb, len(returns), out / "moments.csv")
    _write_manifest(out, "stats", eff)
    print(f"n={len(returns)} kurtosis={mom.kurtosis:.3f} JB p={jb[1]:.3g}")
    return EXIT_OK


def cmd_markov(args) -> int:
    cfg = switching_for_preset(args.preset)
    kw = {}
    if args.traders is not None:
        kw["n_traders"] = args.traders
    if args.periods is not None:
        kw["n_periods"] = args.periods
    if args.steps is not None:
        kw["steps_per_period"] = args.steps
    cfg = replace(cfg, **kw)
    if args.interval is not None:
        try:
            cfg = replace(cfg, interval=args.interval)
        except ValueError as e:
            raise ConfigError(f"--interval {args.interval}: {e}") from None
    codes = range(1, cfg.n_states + 1)
    if args.states:
        codes = [int(c) for c in args.states.split(",")]
        outside = [c for c in codes if c > cfg.n_states]
        if outside:
            raise ConfigError(f"--states: code {outside[0]} outside 1..{cfg.n_states}")
    out = _outdir(args)
    eff = _effective(args)
    _announce("markov", eff, out)
    runs = run_switching_ensemble(cfg, codes, args.seed, jobs=args.jobs)
    est = aggregate_runs(runs, cfg.n_states)
    write_states_csv(runs, out / "states.csv")
    write_tmatrix_csv(est, out / "tmatrix.csv")
    write_freqs_csv(est, out / "freqs.csv")
    _write_manifest(out, "markov", eff)
    ties = sum(r.tie_events for r in runs)
    all_eq = sum(r.all_equal_events for r in runs)
    _, gap_max, gap_total = stationarity_gap(est.mean_pi, est.mean_probs)
    print(f"runs: {len(runs)}  tie intervals: {ties}  all-equal intervals: {all_eq}  "
          f"stationarity gap: max {gap_max:.4f}, total {gap_total:.4f}")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read manifest: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"manifest is not valid JSON: {e}") from None
    if manifest.get("schema_version") != MANIFEST_SCHEMA:
        raise ConfigError(f"unsupported manifest schema_version {manifest.get('schema_version')}")
    command = manifest.get("command")
    params = manifest.get("params", {})
    if command not in ("simulate", "batch", "stats", "markov"):
        raise ConfigError(f"manifest has unknown command {command!r}")
    argv = [command, *_flag_tokens(params)]
    if args.out:
        argv.extend(["--out", args.out])
    print(f"replaying {command} from {manifest_path}")
    return main(argv)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "batch": cmd_batch,
        "stats": cmd_stats,
        "markov": cmd_markov,
        "replay": cmd_replay,
    }
    try:
        if getattr(args, "config", None) is not None:
            # The file's values go before the command line's, so argparse
            # checks them like flags and the command line wins.
            i = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:i], *_config_argv(args), *argv[i:]])
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TickDataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
