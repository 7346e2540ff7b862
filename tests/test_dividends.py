import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.dividends import (
    DividendParams,
    DividendPath,
    RateParams,
    conditional_present_value,
    generate_dividend_path,
)
from infomarket.rng import stream


class FakeRng:
    """Feeds a fixed list of 'standard normal' draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, n=None):
        if n is None:
            return self.draws.pop(0)
        out = self.draws[:n]
        del self.draws[:n]
        return np.asarray(out)


def test_zero_noise_path_is_constant():
    params = DividendParams(d0=0.2, sigma=0.0)
    path = generate_dividend_path(params, 5, stream(1, 0, 0))
    assert np.allclose(path.values, 0.2)


def test_single_step_arithmetic():
    params = DividendParams(d0=0.2, sigma=0.1)
    path = generate_dividend_path(params, 2, FakeRng([-0.5]))
    assert path.dividend(1) == 0.2
    assert path.dividend(2) == pytest.approx(0.15)


def test_reflection_applied_per_step():
    params = DividendParams(d0=0.02, sigma=0.1)
    path = generate_dividend_path(params, 2, FakeRng([-1.0]))
    assert path.dividend(2) == pytest.approx(0.08)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_paths_never_negative(seed, sigma):
    params = DividendParams(d0=0.2, sigma=sigma)
    path = generate_dividend_path(params, 49, stream(seed))
    assert min(path.values) >= 0
    assert len(path) == 49


def test_seed_determinism():
    params = DividendParams()
    a = generate_dividend_path(params, 39, stream(7, 0, 3))
    b = generate_dividend_path(params, 39, stream(7, 0, 3))
    assert np.array_equal(a.values, b.values)
    c = generate_dividend_path(params, 39, stream(7, 0, 4))
    assert not np.array_equal(a.values, c.values)
    # a longer path from the same stream extends the shorter one
    longer = generate_dividend_path(params, 45, stream(7, 0, 3))
    assert np.array_equal(longer.values[:39], a.values)


def test_pv_level_one_direct_value():
    path = DividendPath([0.2])
    assert conditional_present_value(path, 1, 1, 0.005) == pytest.approx(40.2)


def test_pv_level_two_direct_value():
    path = DividendPath([0.2, 0.3])
    assert conditional_present_value(path, 2, 1, 0.005) == pytest.approx(60.2)


@pytest.mark.parametrize("level", range(1, 10))
def test_constant_path_pv_independent_of_level(level):
    path = DividendPath([0.2] * 20)
    pv = conditional_present_value(path, level, 1, 0.005)
    assert pv == pytest.approx(40.2, rel=1e-9)


@given(st.floats(0.1, 10.0), st.integers(1, 9), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_pv_scales_linearly(scale, level, period):
    base = generate_dividend_path(DividendParams(), 29, stream(3))
    scaled = DividendPath(np.array(base.values) * scale)
    pv1 = conditional_present_value(base, level, period, 0.005)
    pv2 = conditional_present_value(scaled, level, period, 0.005)
    assert pv2 == pytest.approx(pv1 * scale, rel=1e-12)


def test_pv_oracle_brute_force():
    # independent recomputation: perpetuity of the last known dividend plus
    # individually discounted known dividends
    path = generate_dividend_path(DividendParams(), 21, stream(11))
    r_e = 0.005
    for level in (1, 3, 9):
        for period in (1, 5, 12):
            last = period + level - 1
            expected = path.dividend(last) / (r_e * (1 + r_e) ** (level - 2))
            expected += sum(
                path.dividend(i) / (1 + r_e) ** (i - period) for i in range(period, last)
            )
            got = conditional_present_value(path, level, period, r_e)
            assert got == pytest.approx(expected, rel=1e-12)


def test_pv_out_of_range_raises():
    path = DividendPath([0.2, 0.2])
    with pytest.raises(IndexError):
        conditional_present_value(path, 2, 2, 0.005)


def test_param_validation():
    with pytest.raises(ValueError):
        DividendParams(sigma=-0.1)
    # NaN fails every comparison, so a check written `x < 0` would let it through.
    for params, name, value in ((DividendParams, "d0", -0.5), (DividendParams, "d0", float("nan")),
                                (DividendParams, "sigma", float("nan")), (RateParams, "r_f", float("nan")),
                                (RateParams, "r_e", float("nan"))):
        with pytest.raises(ValueError, match=f"{name} must be"):
            params(**{name: value})
    assert DividendParams(d0=0.0, sigma=0.0).d0 == 0.0
    with pytest.raises(ValueError):
        generate_dividend_path(DividendParams(), 0, stream(1))
    with pytest.raises(ValueError):
        RateParams(r_e=0.0)
    with pytest.raises(ValueError):
        DividendPath([0.1, -0.2])

