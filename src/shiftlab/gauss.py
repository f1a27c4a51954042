"""Standard normal CDF and quantile from arithmetic and libm's ``exp`` alone, so
results are identical on one machine.  The array CDF calls libm's ``exp`` per
element (numpy's SIMD ``np.exp`` can differ in the last bit), so it equals the
scalar CDF bit for bit, and the array quantile, which bisects with it, equals
the scalar quantile bit for bit.

The CDF uses the Zelen & Severo rational approximation (Abramowitz & Stegun
26.2.17), whose absolute error is below 7.5e-8.  The quantile is a bisection
inversion of that CDF, reflected about 0.5 so that
``quantile(1 - p) == -quantile(p)`` holds exactly.
"""

from __future__ import annotations

import math

import numpy as np

_P = 0.2316419
_B1 = 0.319381530
_B2 = -0.356563782
_B3 = 1.781477937
_B4 = -1.821255978
_B5 = 1.330274429
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _cdf_upper(x: float) -> float:
    """CDF for x >= 0."""
    t = 1.0 / (1.0 + _P * x)
    poly = t * (_B1 + t * (_B2 + t * (_B3 + t * (_B4 + t * _B5))))
    return 1.0 - _INV_SQRT_2PI * math.exp(-0.5 * x * x) * poly


def normal_cdf(x: float) -> float:
    """P(N(0,1) <= x), absolute error <= 7.5e-8."""
    if x >= 0.0:
        return _cdf_upper(x)
    return 1.0 - _cdf_upper(-x)


def normal_cdf_array(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _P * ax)
    poly = t * (_B1 + t * (_B2 + t * (_B3 + t * (_B4 + t * _B5))))
    # exp(-0.5 x^2) is 0.0 from x = 38.7 on, so capping x at 40 changes no
    # value and keeps x^2 from overflowing.
    cap = np.minimum(ax, 40.0)
    e = np.fromiter(map(math.exp, (-0.5 * cap * cap).ravel().tolist()), np.float64, x.size)
    upper = 1.0 - _INV_SQRT_2PI * e.reshape(x.shape) * poly
    return np.where(x >= 0.0, upper, 1.0 - upper)


def _quantile_upper(p: float) -> float:
    """Bisection solve of normal_cdf(x) = p for p in [0.5, 1)."""
    lo, hi = 0.0, 13.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _cdf_upper(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    """Inverse CDF on (0, 1); antisymmetric about p = 0.5 by construction."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return _quantile_upper(p)
    return -_quantile_upper(1.0 - p)


def bisect(cdf, targets: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Solve ``cdf(x) = target`` on [lo, hi] for each element of a 1-D array by
    one bisection over the array, in which an element freezes once its
    midpoint no longer splits its bracket; ``cdf`` maps an array of points to
    their increasing CDF values."""
    lo, hi = np.full(targets.shape, lo), np.full(targets.shape, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((mid != lo) & (mid != hi))
        if live.size == 0:
            break
        m = mid[live]
        below = cdf(m) < targets[live]
        lo[live[below]] = m[below]
        hi[live[~below]] = m[~below]
    return 0.5 * (lo + hi)


def normal_quantile_array(p: np.ndarray) -> np.ndarray:
    """``normal_quantile`` of each element of a 1-D array, all in (0, 1), by
    one ``bisect`` over the array."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("quantile requires every p in (0, 1)")
    upper = p > 0.5
    x = bisect(normal_cdf_array, np.where(upper, p, 1.0 - p), 0.0, 13.0)
    return np.where(p == 0.5, 0.0, np.where(upper, x, -x))
