#!/usr/bin/env python3
"""Single-run stylized-facts check: autocorrelations, moments, normality.

Simulates one full session, takes log-returns of the trade-price series and
prints whether signed-return autocorrelation dies inside the noise band
while absolute-return autocorrelation stays above it.
"""

import argparse
import sys

import numpy as np

from infomarket.analytics import acf, jarque_bera, log_returns, moments
from infomarket.dividends import generate_dividend_path
from infomarket.engine import SessionConfig, run_session
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-lag", type=int, default=20)
    args = ap.parse_args()

    cfg = SessionConfig()
    path = generate_dividend_path(cfg.dividends, cfg.path_length, stream(args.seed, PATH_DOMAIN, 0))
    result = run_session(cfg, path, stream(args.seed, RUN_DOMAIN, 0, 0))
    returns = log_returns(result.trade_prices)
    ret = acf(returns, args.max_lag)
    absret = acf(np.abs(returns), args.max_lag)
    mom = moments(returns)
    jb, p = jarque_bera(mom, len(returns))

    print(f"trades: {len(result.trade_prices)}  returns: {len(returns)}")
    print(f"moments: mean={mom.mean:.3e} std={mom.std:.4f} "
          f"skew={mom.skewness:.3f} kurt={mom.kurtosis:.3f}")
    print(f"jarque-bera: {jb:.1f} (p = {p:.3g})")
    print(f"noise band: +-{ret.band:.4f}")
    print(" lag  acf(ret)  acf(|ret|)")
    for lag in range(1, args.max_lag + 1):
        flag_r = " " if abs(ret.values[lag]) < ret.band else "*"
        flag_a = "*" if absret.values[lag] > absret.band else " "
        print(f"  {lag:3d}  {ret.values[lag]:+.4f}{flag_r}  {absret.values[lag]:+.4f}{flag_a}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
