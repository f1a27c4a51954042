import json
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import make_smoothing_spline
from scipy.linalg import solveh_banded

from shiftlab.analysis import (GCV_GRID, SmoothingSpline, _probit_clamped, dump_json,
                               fit_curves, load_json, probit)
from shiftlab.errors import AnalysisError


# ---------------------------------------------------------------------------
# probit
# ---------------------------------------------------------------------------

def test_probit_median():
    assert probit(0.5) == 0.0


def test_probit_known_point():
    assert abs(probit(0.841345) - 1.0) < 1e-4


def test_probit_symmetry_exact():
    for p in (0.01, 0.2, 0.35, 0.499):
        assert probit(p) + probit(1.0 - p) == 0.0


def test_probit_clamps_instead_of_diverging():
    assert probit(0.0) == probit(1e-3)
    assert probit(1.0) == probit(1 - 1e-3)
    assert probit(0.0, eps=1e-4) < probit(0.0, eps=1e-3)


def test_probit_monotone():
    ps = np.linspace(0.01, 0.99, 99)
    vals = [probit(float(p)) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_probit_rejects_bad_eps():
    with pytest.raises(AnalysisError):
        probit(0.5, eps=0.6)


@pytest.mark.parametrize("eps", [1e-3, 0.25])
def test_probit_clamped_array_equals_scalar(eps):
    edges = [0.0, 1.0, 0.5, eps, 1.0 - eps, np.nextafter(eps, 0), np.nextafter(eps, 1),
             np.nextafter(1.0 - eps, 0), np.nextafter(1.0 - eps, 1),
             np.nextafter(0.5, 0), np.nextafter(0.5, 1), 0.5 - 1e-12, 0.5 + 1e-12]
    values = np.concatenate([edges, np.random.default_rng(6).random(10_000)])
    got, clamped = _probit_clamped(values, eps)
    ref = np.array([probit(float(v), eps) for v in values])
    assert got.tobytes() == ref.tobytes()
    assert clamped == int(np.sum((values < eps) | (values > 1.0 - eps)))
    with pytest.raises(AnalysisError):
        _probit_clamped(values, 0.6)


# ---------------------------------------------------------------------------
# fit_curves
# ---------------------------------------------------------------------------

def test_exact_line_recovered():
    maj = np.linspace(0.5, 0.9, 12)
    pts = np.column_stack([maj, 0.2 + 0.5 * maj])
    rep = fit_curves(pts)
    assert abs(rep.curvature) < 1e-9
    assert rep.linear_fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert rep.linear_fit.slope == pytest.approx(0.5, abs=1e-9)
    assert rep.linear_fit.intercept == pytest.approx(0.2, abs=1e-9)
    assert rep.quad_fit.r2 >= rep.linear_fit.r2 - 1e-12


def test_exact_parabola_recovered():
    maj = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
    pts = np.column_stack([maj, -0.5 + 2 * maj - 1 * maj * maj])
    rep = fit_curves(pts)
    assert rep.quad_fit.beta0 == pytest.approx(-0.5, abs=1e-9)
    assert rep.quad_fit.beta1 == pytest.approx(2.0, abs=1e-9)
    assert rep.quad_fit.beta2 == pytest.approx(-1.0, abs=1e-9)
    assert rep.quad_fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_quad_r2_dominates_linear_on_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(5, 60)
        x = rng.random(n)
        y = rng.random(n)
        rep = fit_curves(np.column_stack([x, y]))
        assert rep.quad_fit.r2 >= rep.linear_fit.r2 - 1e-12


def test_phase_transition_inside_range_when_convex():
    maj = np.linspace(0.4, 0.9, 40)
    rng = np.random.default_rng(3)
    minority = 0.9 - 2.2 * maj + 1.8 * maj**2 + 0.001 * rng.standard_normal(40)
    rep = fit_curves(np.column_stack([maj, minority]))
    assert rep.phase_transition is not None
    m_star = rep.phase_transition
    assert 0.4 < m_star < 0.9
    q = rep.quad_fit
    # fitted slope changes sign from negative to positive across the vertex
    assert q.beta1 + 2 * q.beta2 * (m_star - 0.01) < 0
    assert q.beta1 + 2 * q.beta2 * (m_star + 0.01) > 0


def test_phase_transition_absent_for_concave_or_outside():
    maj = np.linspace(0.4, 0.9, 30)
    concave = np.column_stack([maj, -(maj - 0.6) ** 2])
    assert fit_curves(concave).phase_transition is None
    # convex but vertex left of the observed range
    convex_out = np.column_stack([maj, (maj + 0.5) ** 2])
    assert fit_curves(convex_out).phase_transition is None


def test_probit_eps_continuity():
    # Halving eps barely moves the probit R^2 when nothing saturates.
    rng = np.random.default_rng(11)
    maj = 0.5 + 0.4 * rng.random(200)
    minority = np.clip(maj - 0.2 + 0.05 * rng.standard_normal(200), 0.05, 0.95)
    pts = np.column_stack([maj, minority])
    r_a = fit_curves(pts, probit_eps=1e-3).probit_fit.r2
    r_b = fit_curves(pts, probit_eps=5e-4).probit_fit.r2
    assert abs(r_a - r_b) < 0.005


def test_probit_clamp_counting():
    pts = np.array([[0.9999, 0.5], [0.8, 0.6], [0.7, 0.4], [0.6, 0.00001]])
    rep = fit_curves(pts)
    assert rep.probit_fit.n_clamped == 2


def test_fit_curves_input_validation():
    with pytest.raises(AnalysisError):
        fit_curves([(0.5, 0.5), (0.6, 0.6), (0.7, 0.7)])
    with pytest.raises(AnalysisError):
        fit_curves([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3), (0.5, 0.4)])
    with pytest.raises(AnalysisError):
        fit_curves([(0.5, np.nan), (0.6, 0.6), (0.7, 0.7), (0.8, 0.8)])


# ---------------------------------------------------------------------------
# Smoothing spline
# ---------------------------------------------------------------------------

def test_spline_large_lambda_converges_to_ols_line():
    rng = np.random.default_rng(5)
    x = np.sort(rng.random(40))
    y = 0.3 + 0.5 * x + 0.05 * rng.standard_normal(40)
    sp = SmoothingSpline(x, y, lam=1e9)
    design = np.column_stack([np.ones_like(x), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.max(np.abs(sp.predict(x) - design @ beta)) < 1e-4


def test_spline_small_lambda_interpolates():
    rng = np.random.default_rng(6)
    x = np.linspace(0, 1, 25)
    y = np.sin(3 * x) + 0.1 * rng.standard_normal(25)
    sp = SmoothingSpline(x, y, lam=1e-12)
    assert np.max(np.abs(sp.predict(x) - y)) < 1e-6


def test_spline_reproduces_fitted_values_at_knots():
    rng = np.random.default_rng(7)
    x = np.sort(rng.random(60))
    y = x**2 + 0.02 * rng.standard_normal(60)
    sp = SmoothingSpline(x, y, lam="gcv")
    assert np.max(np.abs(sp.predict(sp.knots) - sp.values)) < 1e-9


def test_spline_gcv_recovers_known_parabola():
    rng = np.random.default_rng(8)
    x = np.sort(rng.random(200))
    truth = 0.2 + 0.8 * x - 0.6 * x**2
    y = truth + 0.01 * rng.standard_normal(200)
    sp = SmoothingSpline(x, y, lam="gcv")
    rmse = float(np.sqrt(np.mean((sp.predict(x) - truth) ** 2)))
    assert rmse <= 0.01


def _penalized_objective(x, y, f, lam):
    """sum (y - f)^2 + lam * integral g''^2 for the natural spline g through (x, f)."""
    h = np.diff(x)
    q0, q2 = 1.0 / h[:-1], 1.0 / h[1:]
    qtf = q0 * f[:-2] - (q0 + q2) * f[1:-1] + q2 * f[2:]
    bands = np.zeros((2, h.size - 1))
    bands[0, 1:] = h[1:-1] / 6.0
    bands[1] = (h[:-1] + h[1:]) / 3.0
    gamma = solveh_banded(bands, qtf)  # R gamma = Q^T f
    return float(np.sum((y - f) ** 2) + lam * gamma @ qtf)


def _scipy_value_tolerance(lam, m):
    """The stated agreement with scipy's fitted values; None where scipy is the
    less accurate fit (its objective exceeds ours there)."""
    stiffness = lam * m ** 4
    for bound, tol in ((1e6, 1e-6), (1e8, 1e-5), (1e10, 3e-4)):
        if stiffness <= bound:
            return tol
    return None


def test_spline_matches_scipy_reference():
    # scipy.interpolate.make_smoothing_spline minimizes the same
    # sum-of-squares plus lam * integral(f'')^2 objective.
    rng = np.random.default_rng(9)
    x = np.sort(rng.random(80))
    y = np.cos(4 * x) + 0.05 * rng.standard_normal(80)
    for lam in (1e-6, 1e-3, 1e-1):
        ours = SmoothingSpline(x, y, lam=lam)
        ref = make_smoothing_spline(x, y, lam=lam)
        assert np.max(np.abs(ours.predict(x) - ref(x))) < 1e-6
        grid = np.linspace(x[0], x[-1], 333)
        assert np.max(np.abs(ours.predict(grid) - ref(grid))) < 1e-6
    # Sorted uniform x on [0.5, 0.9], y = x^2 + N(0, 0.01^2): from a few
    # knots to the sizes where a dense solve drifts off the minimizer.  The
    # objective is taken from each fit's values at x, so it scores the
    # values, not the fit's own second derivatives.
    for m in (5, 31, 232, 500, 700, 2000):
        rng = np.random.default_rng(m)
        x = np.sort(0.5 + 0.4 * rng.random(m))
        y = x ** 2 + 0.01 * rng.standard_normal(m)
        line = np.polyval(np.polyfit(x, y, 1), x)
        for lam in (1e-6, 1e-4, 1e-2, 1.0):
            ours = SmoothingSpline(x, y, lam=lam).predict(x)
            ref = make_smoothing_spline(x, y, lam=lam)(x)
            best_other = min(_penalized_objective(x, y, ref, lam),
                             _penalized_objective(x, y, line, lam))
            assert _penalized_objective(x, y, ours, lam) <= best_other * (1 + 1e-9), (m, lam)
            tol = _scipy_value_tolerance(lam, m)
            if tol is not None:
                assert np.max(np.abs(ours - ref)) <= tol, (m, lam)


def test_spline_matches_dense_reinsch_solve():
    # The textbook dense form of the same fit: A = R + lam Q^T W^-1 Q,
    # A gamma = Q^T ybar, f = ybar - lam W^-1 Q gamma, H = I - lam W^-1 Q A^-1 Q^T.
    x = np.array([0.1, 0.15, 0.15, 0.3, 0.42, 0.5, 0.5, 0.5, 0.61, 0.7, 0.85, 0.9])
    y = np.cos(4 * x) + np.linspace(-0.05, 0.05, x.size) ** 2
    t, w = np.unique(x, return_counts=True)
    ybar = np.array([y[x == k].mean() for k in t])
    m, h = t.size, np.diff(t)
    Q, R = np.zeros((m, m - 2)), np.zeros((m - 2, m - 2))
    for k in range(m - 2):
        Q[k:k + 3, k] = 1 / h[k], -1 / h[k] - 1 / h[k + 1], 1 / h[k + 1]
        R[k, k] = (h[k] + h[k + 1]) / 3
        if k + 1 < m - 2:
            R[k, k + 1] = R[k + 1, k] = h[k + 1] / 6
    for lam in (1e-6, 1e-3, 1.0):
        A = R + lam * (Q.T / w) @ Q
        gamma = np.linalg.solve(A, Q.T @ ybar)
        f = ybar - lam * (Q @ gamma) / w
        hat = np.eye(m) - lam * (Q / w[:, None]) @ np.linalg.solve(A, Q.T)
        sp = SmoothingSpline(x, y, lam=lam)
        assert np.allclose(sp.values, f, rtol=0, atol=1e-12)
        assert np.allclose(sp.second_derivs[1:-1], gamma, rtol=1e-9, atol=1e-9)
        assert sp.effective_df == pytest.approx(np.trace(hat), rel=1e-10)
        rss = np.sum(w * (ybar - f) ** 2)
        assert sp.gcv_score == pytest.approx(m * rss / (m - np.trace(hat)) ** 2, rel=1e-8)
        assert sp.lambda_at_grid_edge is None
    # tr H runs from the line's 2 to the knot count.
    assert SmoothingSpline(x, y, lam=1e9).effective_df == pytest.approx(2.0, abs=1e-6)
    assert SmoothingSpline(x, y, lam=1e-12).effective_df == pytest.approx(m, abs=1e-6)


def test_spline_gcv_fit_memory_is_linear_in_knots():
    # One dense 2,000 x 2,000 float64 matrix alone is 32 MB.
    x = np.linspace(0.5, 0.9, 2000)
    y = x ** 2 + 0.01 * np.random.default_rng(11).standard_normal(2000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sp = SmoothingSpline(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.knots.size == 2000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_spline_reports_whether_gcv_chose_a_grid_edge():
    rng = np.random.default_rng(12)
    x = np.sort(rng.random(200))
    noise = SmoothingSpline(x, rng.standard_normal(200))
    assert noise.lam == GCV_GRID[-1] and noise.lambda_at_grid_edge is True
    parabola = SmoothingSpline(x, x - x ** 2 + 0.01 * rng.standard_normal(200))
    assert GCV_GRID[0] < parabola.lam < GCV_GRID[-1]
    assert parabola.lambda_at_grid_edge is False
    exact = SmoothingSpline(x, np.sin(6 * x))
    assert exact.lam == GCV_GRID[0] and exact.lambda_at_grid_edge is True
    assert exact.effective_df == pytest.approx(
        SmoothingSpline(x, np.sin(6 * x), lam=GCV_GRID[0]).effective_df, rel=1e-12)


def test_spline_collapses_duplicate_x_to_weighted_mean():
    x = np.array([0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 0.9])
    y = np.array([0.0, 1.0, 0.4, 0.5, 0.6, 0.2, 0.8])
    sp = SmoothingSpline(x, y, lam=1e-12)
    assert sp.knots.size == 5
    assert sp.predict(0.1) == pytest.approx(0.5, abs=1e-6)
    assert sp.predict(0.9) == pytest.approx(0.5, abs=1e-6)
    # x closer than 1e-5 of the span are one knot too; farther ones are not.
    near = np.array([0.1, 0.1 + 7e-6, 0.3, 0.5, 0.7, 0.9, 0.9 - 9e-6 * 0.8])
    assert SmoothingSpline(near, y, lam=1e-12).knots.size == 5
    near[1] = 0.1 + 9e-6
    assert SmoothingSpline(near, y, lam=1e-12).knots.size == 6


def test_fit_curves_skips_spline_below_five_knots():
    # Five distinct x, two of them within 1e-5 of the span: four knots.
    rep = fit_curves([(0.5, 0.1), (0.5 + 1e-7, 0.2), (0.6, 0.4), (0.7, 0.3), (0.8, 0.6)])
    assert rep.spline is None
    assert fit_curves([(0.5, 0.1), (0.55, 0.2), (0.6, 0.4), (0.7, 0.3),
                       (0.8, 0.6)]).spline is not None


def test_spline_requires_five_distinct_x():
    with pytest.raises(AnalysisError):
        SmoothingSpline(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 2.0, 1.5, 2.5]))


def test_spline_rejects_nonfinite():
    with pytest.raises(AnalysisError):
        SmoothingSpline(np.array([0.1, 0.2, 0.3, 0.4, np.inf]), np.ones(5), lam=1.0)


def test_spline_linear_extrapolation():
    x = np.linspace(0, 1, 20)
    y = 2 * x + 1
    sp = SmoothingSpline(x, y, lam=1e-9)
    assert sp.predict(-0.5) == pytest.approx(0.0, abs=1e-5)
    assert sp.predict(1.5) == pytest.approx(4.0, abs=1e-5)


# ---------------------------------------------------------------------------
# Report JSON
# ---------------------------------------------------------------------------

def test_report_json_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    maj = np.sort(0.5 + 0.4 * rng.random(50))
    minority = 0.8 - (maj - 0.7) ** 2 + 0.01 * rng.standard_normal(50)
    rep = fit_curves(np.column_stack([maj, minority]))
    p1 = tmp_path / "report.json"
    dump_json(rep.to_dict(), p1)
    data = load_json(p1)
    assert data["n_points"] == 50
    assert set(data["linear_fit"]) == {"slope", "intercept", "r2"}
    assert set(data["quad_fit"]) == {"beta0", "beta1", "beta2", "r2", "se_beta2"}
    assert data["spline"]["lambda"] > 0
    assert data["spline"]["effective_df"] == pytest.approx(rep.spline.effective_df, rel=1e-11)
    assert 2.0 < data["spline"]["effective_df"] < 50.0
    assert data["spline"]["lambda_at_grid_edge"] is rep.spline.lambda_at_grid_edge
    # byte-identical re-emission after a parse round trip
    p2 = tmp_path / "again.json"
    dump_json(data, p2)
    data2 = json.loads(p2.read_text())
    p3 = tmp_path / "third.json"
    dump_json(data2, p3)
    assert p2.read_bytes() == p3.read_bytes()
