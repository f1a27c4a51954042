import numpy as np
import pytest
from scipy import stats

from shiftlab.gauss import normal_cdf, normal_cdf_array, normal_quantile, normal_quantile_array


def test_cdf_absolute_error_bound():
    xs = np.linspace(-10, 10, 4001)
    err = np.abs(normal_cdf_array(xs) - stats.norm.cdf(xs))
    assert err.max() <= 1e-7


def test_cdf_scalar_matches_array():
    for x in (-3.7, -1.0, 0.0, 0.5, 2.25, 8.0):
        assert normal_cdf(x) == normal_cdf_array(np.array([x]))[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cdf_array_equals_scalar_at_extremes_without_warnings():
    xs = np.concatenate([[1e200, -1e200, np.inf, -np.inf, np.nan, 1.4e154, -1.4e154],
                         np.linspace(-42.0, 42.0, 8401)])
    got = normal_cdf_array(xs)
    # repr equates the two nans, which == does not
    assert [repr(v) for v in got.tolist()] == [repr(normal_cdf(x)) for x in xs.tolist()]
    assert got[:4].tolist() == [1.0, 0.0, 1.0, 0.0]


def test_cdf_reflection_exact():
    for x in (0.1, 0.7, 1.3, 2.9, 5.0):
        assert normal_cdf(-x) == 1.0 - normal_cdf(x)


def test_cdf_limits():
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0


def test_quantile_inverts_cdf():
    # The bisection inverts our own CDF, so the round trip is tight away from
    # the p = 0.5 shortcut (which returns 0 exactly; the approximate CDF at 0
    # carries the usual approximation error).
    for p in (0.001, 0.05, 0.25, 0.75, 0.95, 0.999):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-12
    assert abs(normal_cdf(normal_quantile(0.5)) - 0.5) < 1e-7


def test_quantile_against_scipy_in_working_range():
    # Approximation error of the CDF translates to ~cdf_err/pdf in quantile
    # space; inside the clamped probit range that stays below 1e-4.
    for p in np.linspace(1e-3, 1 - 1e-3, 201):
        assert abs(normal_quantile(float(p)) - stats.norm.ppf(p)) < 1e-4


def test_quantile_median_and_known_point():
    assert normal_quantile(0.5) == 0.0
    assert abs(normal_quantile(0.841345) - 1.0) < 1e-4


def test_quantile_antisymmetry_exact():
    for p in (0.001, 0.1, 0.3, 0.42, 0.49999):
        assert normal_quantile(p) + normal_quantile(1.0 - p) == 0.0


def test_quantile_monotone():
    ps = np.linspace(0.001, 0.999, 500)
    qs = [normal_quantile(float(p)) for p in ps]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_quantile_rejects_boundary():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_cdf_array_equals_scalar_bitwise():
    # The array form takes its exponential from libm, as the scalar form does,
    # so the two agree in every bit, not just to within rounding.
    rng = np.random.default_rng(2024)
    magnitudes = 10.0 ** rng.uniform(-320, 2, 20_000)
    xs = np.concatenate([
        rng.normal(0.0, 3.0, 60_000),
        rng.uniform(-40.0, 40.0, 30_000),
        magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
        [0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1e-310, -1e-310],
    ])
    expected = np.array([normal_cdf(x) for x in xs.tolist()])
    got = normal_cdf_array(xs)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(normal_cdf_array(xs.reshape(-1, 10)), got.reshape(-1, 10))


def test_cdf_array_with_numpy_exp_stays_within_bisect_margin():
    # bisect decides a comparison on the numpy-exp CDF when it lies further
    # than 2**-44 from the target, which is sound while the two CDFs differ
    # by less than 2**-48
    xs = np.linspace(-40.0, 40.0, 800_001)
    fast = normal_cdf_array(xs, np.exp)
    assert np.abs(fast - normal_cdf_array(xs)).max() < 2.0**-48


def test_quantile_array_equals_scalar_bitwise():
    rng = np.random.default_rng(7)
    ps = np.concatenate([rng.uniform(0.0, 1.0, 20_000), 10.0 ** rng.uniform(-300, 0, 2_000),
                         [0.5, 0.001, 0.999, 1e-300, 1.0 - 2.0**-53]])
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    expected = np.array([normal_quantile(p) for p in ps.tolist()])
    assert np.array_equal(normal_quantile_array(ps).view(np.int64), expected.view(np.int64))
