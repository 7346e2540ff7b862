import io

import numpy as np
import pytest

from infomarket.dividends import DividendParams, RateParams, generate_dividend_path
from infomarket.engine import SessionConfig, default_market, relative_returns, run_session
from infomarket.montecarlo import BatchConfig, run_batch, write_efficiency_csv, write_runs_csv
from infomarket.rng import PATH_DOMAIN, RUN_DOMAIN, stream


def tiny_session():
    return SessionConfig(
        agents=default_market(4),
        dividends=DividendParams(sigma=0.01),
        rates=RateParams(r_f=0.001, r_e=0.005),
        n_periods=5,
        steps_per_period=20,
    )


def tiny_batch(**kw):
    defaults = dict(session=tiny_session(), n_sessions=3, runs_per_session=4, master_seed=99)
    defaults.update(kw)
    return BatchConfig(**defaults)


def test_single_run_batch_equals_direct_call():
    cfg = tiny_batch(n_sessions=1, runs_per_session=1)
    batch = run_batch(cfg)
    path = generate_dividend_path(cfg.session.dividends, cfg.session.path_length, stream(99, PATH_DOMAIN, 0))
    direct = relative_returns(run_session(cfg.session, path, stream(99, RUN_DOMAIN, 0, 0)))
    assert np.array_equal(batch.rel_returns[0], direct)


def test_parallelism_does_not_change_results():
    a = run_batch(tiny_batch(jobs=1))
    b = run_batch(tiny_batch(jobs=4))
    assert np.array_equal(a.rel_returns, b.rel_returns)
    assert np.array_equal(a.asset_mean_returns, b.asset_mean_returns)


def test_sessions_share_path_runs_do_not_share_streams():
    batch = run_batch(tiny_batch())
    rel = batch.rel_returns
    # different runs of one session differ, and so do sessions
    assert not np.array_equal(rel[0], rel[1])
    assert not np.array_equal(rel[0], rel[4])


def test_seed_key_injectivity():
    keys = set()
    draws = set()
    for s in range(15):
        for r in range(15):
            key = (3, RUN_DOMAIN, s, r)
            assert key not in keys
            keys.add(key)
            draws.add(stream(*key).integers(0, 2**63).item())
    assert len(draws) == 225


def test_aggregates_match_raw_rows():
    batch = run_batch(tiny_batch())
    means = batch.level_means()
    for i, lvl in enumerate(batch.levels):
        assert means[lvl] == pytest.approx(batch.rel_returns[:, i].mean(), abs=1e-12)
    by_level = batch.samples_by_level()
    assert set(by_level) == {0, 1, 2, 3}
    assert len(by_level[0]) == batch.config.n_runs


def test_period_returns_collection():
    batch = run_batch(tiny_batch(collect_period_returns=True))
    assert batch.period_returns.shape == (12, 4)
    assert batch.asset_mean_returns == pytest.approx(batch.period_returns.mean(axis=1))


def test_runs_csv_layout():
    batch = run_batch(tiny_batch(n_sessions=2, runs_per_session=2))
    buf = io.StringIO()
    write_runs_csv(batch, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "session,run,agent_level,relative_return_pp"
    assert len(lines) == 1 + 2 * 2 * 4
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    last = lines[-1].split(",")
    assert last[:3] == ["1", "1", "3"]


def test_efficiency_csv_requires_collection():
    batch = run_batch(tiny_batch())
    with pytest.raises(ValueError):
        write_efficiency_csv(batch, io.StringIO())


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_batch(n_sessions=0)
    with pytest.raises(ValueError):
        tiny_batch(master_seed=-1)


def test_session_run_index():
    batch = run_batch(tiny_batch(n_sessions=2, runs_per_session=3))
    idx = batch.session_run_index()
    assert idx.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
