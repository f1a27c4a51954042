import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from shiftlab.analysis import probit
from shiftlab.gauss import normal_cdf, normal_cdf_array, normal_quantile, normal_quantile_array


def _reference_cdf(x: float) -> float:
    """The scalar CDF this module once had: Abramowitz & Stegun 26.2.17 in
    Python floats, with libm's ``exp``."""
    def upper(x):
        t = 1.0 / (1.0 + 0.2316419 * x)
        poly = t * (0.319381530 + t * (-0.356563782 + t * (1.781477937
                                                           + t * (-1.821255978 + t * 1.330274429))))
        return 1.0 - 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * x * x) * poly

    return upper(x) if x >= 0.0 else 1.0 - upper(-x)


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
    # The scalar form is a one-element call of the array form, so a value's
    # bits do not depend on the array it is evaluated in.
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


def test_cdf_array_within_2_pow_48_of_the_libm_formula():
    # np.exp may round differently from libm's exp in the last bit; the formula
    # amplifies that to no more than 2**-48, far inside scipy's 1e-7 check above
    xs = np.linspace(-40.0, 40.0, 800_001)
    reference = np.fromiter(map(_reference_cdf, xs.tolist()), np.float64, xs.size)
    assert np.abs(normal_cdf_array(xs) - reference).max() < 2.0**-48


def test_quantile_array_equals_scalar_bitwise():
    # normal_quantile is a one-element call of the array form, so this checks
    # that an element's bits do not depend on its neighbours: on the whole draw
    # reversed, and one element at a time on the edges and every 40th draw
    rng = np.random.default_rng(7)
    edges = np.array([0.5, 0.001, 0.999, 1e-300, 1.0 - 2.0**-53])
    ps = np.concatenate([edges, rng.uniform(0.0, 1.0, 20_000), 10.0 ** rng.uniform(-300, 0, 2_000)])
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    got = normal_quantile_array(ps).view(np.int64)
    assert np.array_equal(normal_quantile_array(ps[::-1])[::-1].view(np.int64), got)
    alone = np.concatenate([edges, ps[edges.size::40]])
    expected = np.array([normal_quantile(p) for p in alone.tolist()])
    assert np.array_equal(normal_quantile_array(alone).view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=40))
def test_quantile_array_antisymmetric_and_increasing(ps):
    p = np.sort(np.array(ps))
    x = normal_quantile_array(p)
    # exact wherever 1 - p is: its complement is p again
    c = 1.0 - p
    exact = (c < 1.0) & (1.0 - c == p)
    assert np.array_equal(normal_quantile_array(c[exact]), -x[exact])
    # probabilities closer than 2**-40 may share their target's rounding or
    # the CDF's last bits, and tie
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(np.diff(x)[np.diff(p) > 2.0**-40] > 0.0)


def test_quantile_antisymmetric_where_the_complement_rounds_to_half():
    # 1 - p rounds to 0.5, whose quantile is exactly 0, so q(p) must be 0 too
    p = 0.5 - 2.0**-54
    assert 1.0 - p == 0.5
    assert normal_quantile(1.0 - p) == -normal_quantile(p) == 0.0
    assert np.array_equal(normal_quantile_array(np.array([p, 1.0 - p])), [0.0, 0.0])
    assert probit(1.0 - p) == -probit(p)
