#!/usr/bin/env python3
"""Run the 10-trader batch and print the relative-return curve.

Writes runs.csv / jcurve.csv / pvalues.csv into --out (default out/jcurve10).
Seed, batch size and worker count default to the jcurve10 preset's; only the
flags given here are passed on.
"""

import argparse
import sys
from pathlib import Path

from infomarket.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    for flag in ("--seed", "--sessions", "--runs", "--jobs"):
        ap.add_argument(flag, type=int, default=None)
    ap.add_argument("--out", default="out/jcurve10")
    args = ap.parse_args()
    argv = ["batch", "--preset", "jcurve10", "--out", args.out]
    for flag in ("seed", "sessions", "runs", "jobs"):
        value = getattr(args, flag)
        if value is not None:
            argv += [f"--{flag}", str(value)]
    rc = cli_main(argv)
    if rc == 0:
        print(Path(args.out, "jcurve.csv").read_text())
    return rc


if __name__ == "__main__":
    sys.exit(main())
