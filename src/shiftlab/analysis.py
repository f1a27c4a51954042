"""Curve analysis for (majority, minority) accuracy clouds.

Quantifies how far a sweep's point cloud departs from a straight line:

* ordinary least squares on the raw pairs,
* the same after a probit transform of both axes (the scale on which prior
  accuracy-correlation studies report near-perfect lines),
* a quadratic fit whose x^2 coefficient serves as the curvature scalar,
* a natural cubic smoothing spline, penalized by lambda * integral(f'')^2,
  with generalized cross-validation when no lambda is given.

All fits are unweighted: every model in a sweep counts once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import format_sig
from .errors import AnalysisError
from .gauss import normal_quantile, normal_quantile_array

PROBIT_EPS_DEFAULT = 1e-3
GCV_GRID = tuple(np.logspace(-6.0, 3.0, 25))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 0.5:
        raise AnalysisError(f"probit eps must be in (0, 0.5), got {eps}")


def probit(p: float, eps: float = PROBIT_EPS_DEFAULT) -> float:
    """Inverse standard normal CDF with clamping to [eps, 1-eps].

    Accuracies of 0 or 1 would map to infinity; clamping keeps finite test
    sets finite.  probit(1-p) == -probit(p) holds exactly.
    """
    _check_eps(eps)
    return normal_quantile(min(max(p, eps), 1.0 - eps))


def _probit_clamped(values: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """``probit`` of every value, bit for bit, and the number clamped."""
    _check_eps(eps)
    clamped = int(np.sum((values < eps) | (values > 1.0 - eps)))
    return normal_quantile_array(np.clip(values, eps, 1.0 - eps)), clamped


def _r2(y: np.ndarray, fitted: np.ndarray) -> float:
    ssr = float(np.sum((y - fitted) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    if sst == 0.0:
        return 1.0 if ssr <= 1e-24 else 0.0
    return min(1.0, max(0.0, 1.0 - ssr / sst))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class ProbitFit:
    slope: float
    intercept: float
    r2: float
    eps: float
    n_clamped: int


@dataclass(frozen=True)
class QuadFit:
    beta0: float
    beta1: float
    beta2: float
    r2: float
    se_beta2: float


def _knot_index(x: np.ndarray) -> np.ndarray:
    """Knot number of each sorted x: x closer than 1e-5 of the span share one.

    A gap h puts entries of order 1/h^2 into the penalty system next to ones
    of order 1/mean-gap^2, and its factorization keeps only the larger, so
    gaps below about 1e-6 of the span spoil the fit at large lambda; merging
    them moves the fitted values by about 1e-7.
    """
    return np.concatenate([[0], np.cumsum(np.diff(x) > (x[-1] - x[0]) * 1e-5)])


def spline_shortfall(x: np.ndarray) -> str | None:
    """Why no smoothing spline can be fitted on ``x``, or None: it needs
    5 knots (``_knot_index``)."""
    n_knots = int(_knot_index(np.sort(x))[-1]) + 1 if x.size else 0
    return f"smoothing spline needs >= 5 distinct x values, got {n_knots}" if n_knots < 5 else None


def _reinsch(h: np.ndarray, w: np.ndarray, y: np.ndarray, lams: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Natural cubic smoothing splines for every penalty in ``lams`` at once.

    Knot gaps ``h``, knot weights ``w`` and knot responses ``y`` define Q
    (m x m-2, three bands) and R (m-2 x m-2, tridiagonal); the interior second
    derivatives gamma solve the pentadiagonal system A gamma = Q^T y with
    A = R + lam B and B = Q^T W^-1 Q (Reinsch, Numer. Math. 1967).  One
    forward pass factors A = L D L^T and solves L z = Q^T y; one backward pass
    solves L^T gamma = D^-1 z and takes the central five bands of S = A^-1
    (Hutchinson & de Hoog, Numer. Math. 1985).  Each pass runs once over the
    knots with every penalty as one vector.  Returns, one row per penalty,
    the fitted knot values, gamma, the weighted residual sum of squares,
    m - tr H and tr H.
    """
    q0, q2 = 1.0 / h[:-1], 1.0 / h[1:]
    q1 = -q0 - q2
    n, lam = q0.size, lams[None, :]
    # Bands of R and B, zero-padded to n rows so that the passes need no
    # boundary cases.
    r0 = (h[:-1] + h[1:]) / 3.0
    r1 = np.zeros(n)
    r1[:-1] = h[1:-1] / 6.0
    b0 = q0 * q0 / w[:-2] + q1 * q1 / w[1:-1] + q2 * q2 / w[2:]
    b1 = np.zeros(n)
    b1[:-1] = q1[:-1] * q0[1:] / w[1:-2] + q2[:-1] * q1[1:] / w[2:-1]
    b2 = np.zeros(n)
    b2[:-2] = q2[:-2] * q0[2:] / w[2:-2]
    # Q^T y is repeated across the penalties: a numpy op on a Python float
    # costs about twice one on two arrays of equal length.
    rhs = np.repeat((q0 * y[:-2] + q1 * y[1:-1] + q2 * y[2:])[:, None], lams.size, axis=1)

    # Forward: 1/D and the negated sub-diagonals -L[k+1, k], -L[k+2, k] of
    # the factor, with L z = Q^T y alongside.  Since u = L[k+1, k] d_k and
    # L[k+2, k] d_k = A[k+2, k], d_k and u need only the last two steps'
    # -L[k+1, k], u, A[k+2, k] and p = -A[k+2, k]^2 / d.
    zero, minus_one = np.zeros(lams.size), np.full(lams.size, -1.0)
    ne1 = u1 = c1 = nf1 = nf2 = p1 = p2 = z1 = z2 = zero
    ninvs, nes, nfs, zs = [], [], [], []
    for a0k, a1k, a2k, bk in zip(r0[:, None] + b0[:, None] * lam, r1[:, None] + b1[:, None] * lam,
                                 b2[:, None] * lam, rhs):
        d = a0k + ne1 * u1 + p2
        u = a1k + ne1 * c1
        ninv = minus_one / d
        ne = u * ninv
        nf = a2k * ninv
        z = bk + ne1 * z1 + nf2 * z2
        ninvs.append(ninv)
        nes.append(ne)
        nfs.append(nf)
        zs.append(z)
        ne1, u1, c1 = ne, u, a2k
        nf2, nf1 = nf1, nf
        p2, p1 = p1, a2k * nf
        z2, z1 = z1, z
    inv = -np.array(ninvs)
    zd = np.array(zs) * inv
    del ninvs, zs, rhs

    # Backward: L^T gamma = D^-1 z, and S[k, k], S[k, k+1], S[k, k+2] from
    # L^T S = D^-1 L^-1.
    g1 = g2 = s0_1 = s0_2 = s1_1 = zero
    gs, s0s, s1s, s2s = [], [], [], []
    for ne, nf, zdk, invk in zip(reversed(nes), reversed(nfs), zd[::-1], inv[::-1]):
        g = zdk + ne * g1 + nf * g2
        s2 = ne * s1_1 + nf * s0_2
        s1 = ne * s0_1 + nf * s1_1
        s0 = invk + ne * s1 + nf * s2
        gs.append(g)
        s0s.append(s0)
        s1s.append(s1)
        s2s.append(s2)
        g2, g1 = g1, g
        s0_2, s0_1, s1_1 = s0_1, s0, s1
    del nes, nfs
    gamma = np.array(gs[::-1])
    s0, s1, s2 = np.array(s0s[::-1]), np.array(s1s[::-1]), np.array(s2s[::-1])
    del gs, s0s, s1s, s2s
    # tr H = 2 + tr(S R) = m - lam tr(S B); each is taken from the sum that
    # does not cancel where it is small.
    tr_h = 2.0 + r0 @ s0 + 2.0 * (r1 @ s1)
    dfree = lams * (b0 @ s0 + 2.0 * (b1 @ s1 + b2 @ s2))

    # The residuals y - f = lam W^-1 Q gamma give the residual sum of squares;
    # they scale with lam, so an exact fit stays exact.  The knot values come
    # from gamma instead: Q^T f = R gamma fixes the secant slopes up to a
    # constant, so f is R gamma integrated twice plus a line, and W (y - f)
    # is orthogonal to the lines, which makes that line the weighted least
    # squares line of what is left.  At large lam, y - lam W^-1 Q gamma would
    # leave rounding noise of order 1/h in f, which its penalty magnifies.
    qg = np.zeros((n + 2, lams.size))
    qg[:-2] += q0[:, None] * gamma
    qg[1:-1] += q1[:, None] * gamma
    qg[2:] += q2[:, None] * gamma
    resid = lam * qg / w[:, None]
    rss = w @ (resid * resid)
    rg = r0[:, None] * gamma
    rg[:-1] += r1[:-1, None] * gamma[1:]
    rg[1:] += r1[:-1, None] * gamma[:-1]
    slopes = np.zeros((n + 1, lams.size))
    np.cumsum(rg, axis=0, out=slopes[1:])
    fitted = np.zeros((n + 2, lams.size))
    np.cumsum(slopes * h[:, None], axis=0, out=fitted[1:])
    t = np.concatenate([[0.0], np.cumsum(h)])
    t -= (w @ t) / w.sum()
    resid = y[:, None] - fitted
    fitted += (w @ resid) / w.sum() + np.outer(t, (w * t) @ resid / ((w * t) @ t))
    return fitted.T, gamma.T, rss, dfree, tr_h


class SmoothingSpline:
    """Natural cubic smoothing spline on distinct knots.

    Minimizes sum_i (y_i - f(x_i))^2 + lam * integral f''(t)^2 dt over
    natural cubic splines with knots at the distinct x values (x closer than
    1e-5 of the span are one knot, at their mean x and mean y, weighted by
    their count: ``_knot_index``).  The fit is Reinsch's banded algorithm on a unit-span axis
    (``_reinsch``), O(m) in time and memory for m knots; with lam="gcv",
    every value of ``GCV_GRID`` is fitted in the same passes and the one with
    the least GCV score is kept.

    Tolerance, measured against scipy's ``make_smoothing_spline`` on sorted
    uniform x over [0.5, 0.9] with 5 to 2,000 points and lam from 1e-6 to 1:
    the penalized objective of the fitted values never exceeds the smaller of
    scipy's and the least-squares line's by more than 1e-9 of it, and the
    fitted values agree with scipy's to 1e-6 while lam * m^4 <= 1e6, to 1e-5
    while it is <= 1e8 and to 3e-4 while it is <= 1e10; beyond that scipy's
    fit is the less accurate one.

    ``effective_df`` is tr H, the trace of the hat matrix at the chosen lam;
    ``lambda_at_grid_edge`` says whether GCV chose an end of ``GCV_GRID``
    (None for a given lam).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, lam: float | str = "gcv"):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise AnalysisError("spline inputs must be matching 1-D arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise AnalysisError("spline inputs must be finite")

        if shortfall := spline_shortfall(x):
            raise AnalysisError(shortfall)

        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
        idx = _knot_index(x)
        n_knots = int(idx[-1]) + 1
        w = np.bincount(idx).astype(np.float64)
        xbar = np.bincount(idx, weights=x) / w
        ybar = np.bincount(idx, weights=y) / w
        self.knots = xbar

        if lam == "gcv":
            lams = GCV_GRID
        else:
            lam = float(lam)
            if lam <= 0:
                raise AnalysisError("lambda must be positive")
            lams = (lam,)
        # Solve on a unit-span axis for conditioning; an affine change of
        # variable multiplies integral(f'')^2 by span^-3, so lambda is mapped
        # exactly and the fitted function is unchanged.
        scale = float(xbar[-1] - xbar[0])
        values, gamma, rss, dfree, tr_h = _reinsch(np.diff(xbar) / scale, w, ybar,
                                                   np.array(lams) / scale ** 3)
        scores = n_knots * rss / dfree ** 2
        best = int(np.argmin(scores))
        self.lam = lams[best]
        self.gcv_score = float(scores[best])
        self.effective_df = float(tr_h[best])
        self.lambda_at_grid_edge = best in (0, len(lams) - 1) if lam == "gcv" else None
        self.values = values[best].copy()
        # Second derivatives in original units: d2/dx2 = scale^-2 * d2/dx'2.
        self.second_derivs = np.zeros(n_knots)
        self.second_derivs[1:-1] = gamma[best] / scale ** 2

    # -- public ------------------------------------------------------------

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the spline; linear (natural) extrapolation outside the knots."""
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        t, f, g = self.knots, self.values, self.second_derivs
        j = np.clip(np.searchsorted(t, x) - 1, 0, t.size - 2)
        h = t[j + 1] - t[j]
        a = (t[j + 1] - x) / h
        b = (x - t[j]) / h
        inside = (f[j] * a + f[j + 1] * b
                  + (a ** 3 - a) * h * h / 6.0 * g[j]
                  + (b ** 3 - b) * h * h / 6.0 * g[j + 1])
        # Natural boundary: f'' = 0 outside, so extend the end slopes.
        slope_lo = (f[1] - f[0]) / (t[1] - t[0]) - (t[1] - t[0]) * g[1] / 6.0
        slope_hi = (f[-1] - f[-2]) / (t[-1] - t[-2]) + (t[-1] - t[-2]) * g[-2] / 6.0
        out = np.where(x < t[0], f[0] + slope_lo * (x - t[0]),
                       np.where(x > t[-1], f[-1] + slope_hi * (x - t[-1]), inside))
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "gcv_score": self.gcv_score,
            "effective_df": self.effective_df,
            "lambda_at_grid_edge": self.lambda_at_grid_edge,
            "knots": [float(v) for v in self.knots],
            "values": [float(v) for v in self.values],
            "second_derivs": [float(v) for v in self.second_derivs],
        }


@dataclass(frozen=True)
class CurveReport:
    n_points: int
    linear_fit: LinearFit
    probit_fit: ProbitFit
    quad_fit: QuadFit
    curvature: float
    phase_transition: float | None
    spline: SmoothingSpline | None

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "linear_fit": vars(self.linear_fit) | {},
            "probit_fit": vars(self.probit_fit) | {},
            "quad_fit": vars(self.quad_fit) | {},
            "curvature": self.curvature,
            "phase_transition": self.phase_transition,
            "spline": self.spline.to_dict() if self.spline is not None else None,
        }


def _ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta


def fit_curves(points: list[tuple[float, float]] | np.ndarray,
               probit_eps: float = PROBIT_EPS_DEFAULT,
               spline_lambda: float | str = "gcv") -> CurveReport:
    """Fit line, probit line, quadratic, and smoothing spline to a point cloud.

    ``points`` are (majority accuracy, minority accuracy) pairs.  The
    quadratic's x^2 coefficient is reported as the curvature scalar; its
    vertex is reported as the phase-transition point when the fitted slope
    turns from negative to positive inside the observed range.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise AnalysisError("expected a sequence of (maj, min) pairs")
    if pts.shape[0] < 4:
        raise AnalysisError(f"need at least 4 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise AnalysisError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    n = x.size
    if np.all(x == x[0]):
        raise AnalysisError("all majority values identical; fits are undefined")

    ones = np.ones(n)
    b_lin = _ols(np.column_stack([ones, x]), y)
    lin = LinearFit(slope=float(b_lin[1]), intercept=float(b_lin[0]),
                    r2=_r2(y, b_lin[0] + b_lin[1] * x))

    px, cx = _probit_clamped(x, probit_eps)
    py, cy = _probit_clamped(y, probit_eps)
    if np.all(px == px[0]):
        pro = ProbitFit(slope=0.0, intercept=float(np.mean(py)), r2=0.0,
                        eps=probit_eps, n_clamped=cx + cy)
    else:
        b_pro = _ols(np.column_stack([np.ones(n), px]), py)
        pro = ProbitFit(slope=float(b_pro[1]), intercept=float(b_pro[0]),
                        r2=_r2(py, b_pro[0] + b_pro[1] * px),
                        eps=probit_eps, n_clamped=cx + cy)

    design = np.column_stack([ones, x, x * x])
    b_quad = _ols(design, y)
    quad_fitted = design @ b_quad
    ssr = float(np.sum((y - quad_fitted) ** 2))
    cov = np.linalg.pinv(design.T @ design) * (ssr / (n - 3))  # n >= 4, checked above
    se_beta2 = float(np.sqrt(max(cov[2, 2], 0.0)))
    quad = QuadFit(beta0=float(b_quad[0]), beta1=float(b_quad[1]),
                   beta2=float(b_quad[2]), r2=_r2(y, quad_fitted), se_beta2=se_beta2)

    phase = None
    if quad.beta2 > 0.0:
        vertex = -quad.beta1 / (2.0 * quad.beta2)
        if float(np.min(x)) < vertex < float(np.max(x)):
            phase = float(vertex)

    spline = None
    if spline_shortfall(x) is None:
        spline = SmoothingSpline(x, y, lam=spline_lambda)

    return CurveReport(n_points=n, linear_fit=lin, probit_fit=pro, quad_fit=quad,
                       curvature=quad.beta2, phase_transition=phase, spline=spline)


# ---------------------------------------------------------------------------
# Deterministic JSON with 12-significant-digit floats
# ---------------------------------------------------------------------------

def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_render_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render_json(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return json.dumps(None)
        return format_sig(float(obj))
    return json.dumps(obj)


def dump_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(_render_json(obj) + "\n")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
