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


class SmoothingSpline:
    """Natural cubic smoothing spline on distinct knots.

    Minimizes sum_i (y_i - f(x_i))^2 + lam * integral f''(t)^2 dt over
    natural cubic splines with knots at the distinct x values (duplicates are
    collapsed to their mean, weighted by their count).  The fit is computed
    through the Reinsch system (R + lam * Q^T W^-1 Q) gamma = Q^T y, which
    stays well conditioned for every lambda, including the straight-line limit
    lam -> infinity.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, lam: float | str = "gcv"):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise AnalysisError("spline inputs must be matching 1-D arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise AnalysisError("spline inputs must be finite")

        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
        # Collapse exact and near-duplicate x (closer than ~1e-9 of the span)
        # into single knots with mean responses, weighted by count; knot gaps
        # at machine epsilon would make the penalty system singular.
        span = float(x[-1] - x[0])
        tol = max(span, 1.0) * 1e-9
        idx = np.concatenate([[0], np.cumsum(np.diff(x) > tol)])
        n_knots = int(idx[-1]) + 1
        if n_knots < 5:
            raise AnalysisError(f"smoothing spline needs >= 5 distinct x values, got {n_knots}")
        w = np.zeros(n_knots)
        xbar = np.zeros(n_knots)
        ybar = np.zeros(n_knots)
        np.add.at(w, idx, 1.0)
        np.add.at(xbar, idx, x)
        np.add.at(ybar, idx, y)
        xbar /= w
        ybar /= w

        self.knots = xbar
        self._w = w
        self._ybar = ybar
        # Solve on a unit-span axis for conditioning; an affine change of
        # variable multiplies integral(f'')^2 by span^-3, so lambda is mapped
        # exactly and the fitted function is unchanged.
        self._scale = float(self.knots[-1] - self.knots[0])
        self._decompose()

        if lam == "gcv":
            self.lam, self.gcv_score = self._select_gcv()
        else:
            lam = float(lam)
            if lam <= 0:
                raise AnalysisError("lambda must be positive")
            self.lam = lam
            self.gcv_score = self._gcv(lam)
        self.values, self.second_derivs = self._fit(self.lam)

    # -- internals ---------------------------------------------------------

    def _decompose(self) -> None:
        h = np.diff(self.knots) / self._scale
        m = self.knots.size
        Q = np.zeros((m, m - 2))
        R = np.zeros((m - 2, m - 2))
        for j in range(1, m - 1):
            k = j - 1
            Q[j - 1, k] = 1.0 / h[j - 1]
            Q[j, k] = -1.0 / h[j - 1] - 1.0 / h[j]
            Q[j + 1, k] = 1.0 / h[j]
            R[k, k] = (h[j - 1] + h[j]) / 3.0
            if k + 1 < m - 2:
                R[k, k + 1] = R[k + 1, k] = h[j] / 6.0
        self._Q = Q
        B = (Q.T / self._w) @ Q  # Q^T W^-1 Q
        L = np.linalg.cholesky(R)
        C = np.linalg.solve(L, np.linalg.solve(L, B).T).T  # L^-1 B L^-T
        mu, V = np.linalg.eigh((C + C.T) / 2.0)
        self._mu = np.maximum(mu, 0.0)
        self._LtV = np.linalg.solve(L.T, V)  # L^-T V, maps eig basis to gamma
        self._c = V.T @ np.linalg.solve(L, self._Q.T @ self._ybar)

    def _scaled_lambda(self, lam: float) -> float:
        return lam / self._scale ** 3

    def _fit(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        lam_s = self._scaled_lambda(lam)
        shrink = self._c / (1.0 + lam_s * self._mu)
        gamma = self._LtV @ shrink
        fitted = self._ybar - lam_s * (self._Q @ gamma) / self._w
        # Second derivatives in original units: d2/dx2 = scale^-2 * d2/dx'2.
        full_gamma = np.zeros(self.knots.size)
        full_gamma[1:-1] = gamma / self._scale ** 2
        return fitted, full_gamma

    def _gcv(self, lam: float) -> float:
        m = self.knots.size
        lam_s = self._scaled_lambda(lam)
        denom = 1.0 + lam_s * self._mu
        rss = lam_s * lam_s * float(np.sum(self._mu * (self._c / denom) ** 2))
        tr_h = 2.0 + float(np.sum(1.0 / denom))
        return m * rss / (m - tr_h) ** 2

    def _select_gcv(self) -> tuple[float, float]:
        scores = [(self._gcv(lam), lam) for lam in GCV_GRID]
        best = min(scores, key=lambda t: t[0])
        return best[1], best[0]

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
    dof = n - 3
    if dof > 0:
        cov = np.linalg.pinv(design.T @ design) * (ssr / dof)
        se_beta2 = float(np.sqrt(max(cov[2, 2], 0.0)))
    else:
        se_beta2 = float("nan")
    quad = QuadFit(beta0=float(b_quad[0]), beta1=float(b_quad[1]),
                   beta2=float(b_quad[2]), r2=_r2(y, quad_fitted), se_beta2=se_beta2)

    phase = None
    if quad.beta2 > 0.0:
        vertex = -quad.beta1 / (2.0 * quad.beta2)
        if float(np.min(x)) < vertex < float(np.max(x)):
            phase = float(vertex)

    spline = None
    if np.unique(x).size >= 5:
        spline = SmoothingSpline(x, y, lam=spline_lambda)

    return CurveReport(n_points=n, linear_fit=lin, probit_fit=pro, quad_fit=quad,
                       curvature=quad.beta2, phase_transition=phase, spline=spline)


@dataclass(frozen=True)
class NonlinearityComparison:
    delta_probit_r2: float
    delta_curvature: float
    margin: float
    verdict: str

    def to_dict(self) -> dict:
        return vars(self) | {}


def compare_nonlinearity(report_a: CurveReport, report_b: CurveReport,
                         margin: float = 0.02) -> NonlinearityComparison:
    """Compare two sweeps' departure from a probit-scale line.

    Lower probit-space R^2 means more nonlinear; ``margin`` is the minimum
    R^2 difference before the verdict leaves "comparable".
    """
    d_r2 = report_a.probit_fit.r2 - report_b.probit_fit.r2
    d_curv = report_a.curvature - report_b.curvature
    if d_r2 < -margin:
        verdict = "a more nonlinear"
    elif d_r2 > margin:
        verdict = "b more nonlinear"
    else:
        verdict = "comparable"
    return NonlinearityComparison(delta_probit_r2=d_r2, delta_curvature=d_curv,
                                  margin=margin, verdict=verdict)


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


def write_report(report: CurveReport, path: str | Path) -> None:
    dump_json(report.to_dict(), path)
