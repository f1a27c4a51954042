"""Standard normal CDF and quantile, one array kernel each.

The CDF uses the Zelen & Severo rational approximation (Abramowitz & Stegun
26.2.17), whose absolute error is below 7.5e-8, with its exponential from
``np.exp``.  The quantile is a bisection inversion of that CDF, reflected
about 0.5 so that ``quantile(1 - p) == -quantile(p)`` holds exactly.  The
scalar functions are one-element calls of the array kernels, so the two agree
bit for bit; the last bit of ``np.exp``, and so of every value here, is
promised per machine only.
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


def normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """P(N(0,1) <= x) of each element, absolute error <= 7.5e-8."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _P * ax)
    poly = t * (_B1 + t * (_B2 + t * (_B3 + t * (_B4 + t * _B5))))
    # exp(-0.5 x^2) is 0.0 from x = 38.7 on, so capping x at 40 changes no
    # value and keeps x^2 from overflowing.
    cap = np.minimum(ax, 40.0)
    upper = 1.0 - _INV_SQRT_2PI * np.exp(-0.5 * cap * cap) * poly
    return np.where(x >= 0.0, upper, 1.0 - upper)


def normal_cdf(x: float) -> float:
    """``normal_cdf_array`` of one value."""
    return float(normal_cdf_array(np.array([x]))[0])


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
    """Inverse CDF of each element of a 1-D array, all in (0, 1), by one
    ``bisect`` over the array; antisymmetric about p = 0.5 by construction."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("quantile requires every p in (0, 1)")
    upper = p > 0.5
    target = np.where(upper, p, 1.0 - p)
    x = bisect(normal_cdf_array, target, 0.0, 13.0)
    # a p just below 0.5 reflects onto target 0.5, whose quantile is exactly 0
    return np.where(target == 0.5, 0.0, np.where(upper, x, -x))


def normal_quantile(p: float) -> float:
    """``normal_quantile_array`` of one value."""
    return float(normal_quantile_array(np.array([p]))[0])
