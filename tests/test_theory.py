import csv
import re
import tracemalloc
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shiftlab import theory
from shiftlab.analysis import fit_curves
from shiftlab.datagen import ShiftSpec, format_sig, generate
from shiftlab.errors import DegeneratePopulationError, EmptyGroupError, InvalidSpecError
from shiftlab.evaluator import evaluate
from shiftlab.gauss import bisect, normal_cdf
from shiftlab.theory import (PopulationSpec, RocPoint, ScoreModel, accuracy_gap,
                             gap_summary, monte_carlo_gap, moon_arm,
                             roc_traverse, subpop_accuracy, write_traversal_csv)
from shiftlab.trainer import HyperParams, ModelRecord

EXAMPLE_POP = PopulationSpec(p_y1=0.5, pi1=0.9, pi0=0.3)


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_gap_zero_when_independent():
    for p_y1 in (0.2, 0.5, 0.8):
        pop = PopulationSpec(p_y1=p_y1, pi1=0.6, pi0=0.6)
        assert accuracy_gap(pop, 0.9, 0.4) == 0.0


def test_gap_zero_when_rates_equal():
    assert accuracy_gap(EXAMPLE_POP, 0.8, 0.8) == 0.0


def test_gap_example_value():
    # p_z1 = 0.6, so the scale factor is 0.25/0.24 and the gap is
    # (0.25/0.24) * 0.6 * 0.2 = 0.125.
    assert accuracy_gap(EXAMPLE_POP, 0.9, 0.7) == pytest.approx(0.125, abs=1e-15)


def test_subpop_example_values():
    assert subpop_accuracy(EXAMPLE_POP, 0.9, 0.7, 1) == pytest.approx(0.85, abs=1e-15)
    assert subpop_accuracy(EXAMPLE_POP, 0.9, 0.7, 0) == pytest.approx(0.725, abs=1e-15)


def test_subpop_equal_when_independent():
    pop = PopulationSpec(p_y1=0.4, pi1=0.7, pi0=0.7)
    assert subpop_accuracy(pop, 0.85, 0.55, 1) == subpop_accuracy(pop, 0.85, 0.55, 0)


def test_decomposition_identity_over_random_draws():
    # |acc(Z=1) - acc(Z=0)| equals the closed form, as an algebraic identity.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        pop = PopulationSpec(p_y1=float(rng.uniform(0.05, 0.95)),
                             pi1=float(rng.uniform(0, 1)),
                             pi0=float(rng.uniform(0, 1)))
        if not 1e-4 < pop.p_z1 < 1 - 1e-4:
            continue
        tpr = float(rng.uniform(0, 1))
        tnr = float(rng.uniform(0, 1))
        lhs = abs(subpop_accuracy(pop, tpr, tnr, 1) - subpop_accuracy(pop, tpr, tnr, 0))
        assert lhs == pytest.approx(accuracy_gap(pop, tpr, tnr), abs=1e-12)


def test_gap_zero_set_by_grid_enumeration():
    grid = np.linspace(0.1, 0.9, 9)
    for pi1 in grid:
        for pi0 in grid:
            for tpr, tnr in ((0.3, 0.3), (0.8, 0.2)):
                pop = PopulationSpec(p_y1=0.5, pi1=float(pi1), pi0=float(pi0))
                gap = accuracy_gap(pop, tpr, tnr)
                if pi1 == pi0 or tpr == tnr:
                    assert gap == 0.0
                else:
                    assert gap > 0.0


def test_gap_monotone_in_correlation_at_fixed_marginal():
    # Hold P(Z=1) fixed at 0.6 (class prior 0.5) and trace pi0 downward:
    # pi1 = (0.6 - 0.5*pi0) / 0.5, so |pi1 - pi0| grows and the gap must too.
    gaps = []
    for pi0 in np.linspace(0.59, 0.2, 14):
        pi1 = (0.6 - 0.5 * pi0) / 0.5
        pop = PopulationSpec(p_y1=0.5, pi1=float(pi1), pi0=float(pi0))
        assert pop.p_z1 == pytest.approx(0.6, abs=1e-12)
        gaps.append(accuracy_gap(pop, 0.9, 0.6))
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_degenerate_population_rejected():
    with pytest.raises(DegeneratePopulationError):
        accuracy_gap(PopulationSpec(p_y1=0.5, pi1=1.0, pi0=1.0), 0.9, 0.5)
    with pytest.raises(InvalidSpecError):
        accuracy_gap(PopulationSpec(p_y1=1.5, pi1=0.5, pi0=0.5), 0.9, 0.5)
    # a population is checked when it is made, by replace too
    with pytest.raises(DegeneratePopulationError):
        replace(EXAMPLE_POP, pi1=0.0, pi0=0.0)
    for bad in (dict(p_y1=0.0), dict(p_y1=float("nan")), dict(pi1=1.5), dict(pi0=-0.1)):
        with pytest.raises(InvalidSpecError):
            replace(EXAMPLE_POP, **bad)


@pytest.mark.parametrize("bad", [dict(s0=0.0), dict(s1=0.0), dict(s1=-1.0),
                                 dict(mu0=float("nan")), dict(s0=float("inf")),
                                 dict(mu1=1e308)])
def test_bad_score_model_rejected_when_made(bad):
    with pytest.raises(InvalidSpecError, match="standard deviations > 0"):
        ScoreModel(**bad)
    with pytest.raises(InvalidSpecError, match="standard deviations > 0"):
        replace(ScoreModel(), **bad)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_monte_carlo_matches_example_gap():
    t, score = ScoreModel().threshold_for_rates(0.9, 0.7)
    mc, se = monte_carlo_gap(EXAMPLE_POP, score, t, 1_000_000, seed=101)
    assert abs(mc - 0.125) <= 3 * se


def test_monte_carlo_zero_case_independent():
    pop = PopulationSpec(p_y1=0.5, pi1=0.55, pi0=0.55)
    t, score = ScoreModel().threshold_for_rates(0.8, 0.6)
    mc, se = monte_carlo_gap(pop, score, t, 200_000, seed=7)
    assert mc <= 3 * se


def test_monte_carlo_se_scaling():
    t, score = ScoreModel().threshold_for_rates(0.85, 0.65)
    _, se1 = monte_carlo_gap(EXAMPLE_POP, score, t, 100_000, seed=1)
    _, se2 = monte_carlo_gap(EXAMPLE_POP, score, t, 200_000, seed=1)
    ratio = se2 / se1
    assert abs(ratio - 1 / np.sqrt(2)) < 0.2 * (1 / np.sqrt(2))


def test_monte_carlo_requires_enough_samples():
    with pytest.raises(InvalidSpecError):
        monte_carlo_gap(EXAMPLE_POP, ScoreModel(), 0.0, 100)


def test_threshold_for_rates_realizes_rates():
    for tpr, tnr in ((0.9, 0.7), (0.6, 0.8), (0.45, 0.55)):
        t, score = ScoreModel(s0=1.3, s1=0.8).threshold_for_rates(tpr, tnr)
        assert score.tpr(t) == pytest.approx(tpr, abs=1e-9)
        assert score.tnr(t) == pytest.approx(tnr, abs=1e-9)


# ---------------------------------------------------------------------------
# ROC traversal
# ---------------------------------------------------------------------------

def test_roc_endpoints():
    score = ScoreModel(mu0=-1, mu1=1)
    assert score.tpr(-100.0) == pytest.approx(1.0, abs=1e-12)
    assert score.tnr(-100.0) == pytest.approx(0.0, abs=1e-12)
    assert score.tpr(100.0) == pytest.approx(0.0, abs=1e-12)
    assert score.tnr(100.0) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_midpoint_threshold_has_zero_gap():
    score = ScoreModel(mu0=-1.0, mu1=1.0, s0=1.0, s1=1.0)
    tpr, tnr = score.tpr(0.0), score.tnr(0.0)
    assert tpr == pytest.approx(tnr, abs=1e-12)
    assert accuracy_gap(EXAMPLE_POP, tpr, tpr) == 0.0


def test_traversal_spans_and_orders_thresholds():
    points = roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=51)
    assert len(points) == 51
    ts = [p.threshold for p in points]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert points[0].tpr > 0.99 and points[0].tnr < 0.01
    assert points[-1].tpr < 0.01 and points[-1].tnr > 0.99


def test_traversal_passes_through_gap_zero_point():
    points = roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=101)
    best = min(points, key=lambda p: abs(p.tpr - p.tnr))
    assert abs(best.tpr - best.tnr) < 1e-9
    assert abs(best.maj_acc - best.min_acc) < 1e-9
    assert accuracy_gap(EXAMPLE_POP, best.tpr, best.tpr) == 0.0


def test_traversal_moon_arm_has_positive_curvature():
    points = roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=101)
    arm = moon_arm(points)
    assert 3 < len(arm) < len(points)
    rep = fit_curves([(p.maj_acc, p.min_acc) for p in arm])
    assert rep.quad_fit.beta2 > 0.0
    assert abs(rep.quad_fit.beta2) > 2 * rep.quad_fit.se_beta2
    # the arm is single-valued in majority accuracy
    majs = [p.maj_acc for p in arm]
    assert all(b > a for a, b in zip(majs, majs[1:]))


def test_traversal_gap_consistency():
    score = ScoreModel()
    for p in roc_traverse(EXAMPLE_POP, score, n_thresholds=21):
        assert p.gap == pytest.approx(accuracy_gap(EXAMPLE_POP, p.tpr, p.tnr), abs=1e-12)
        # the traversal and the scalar rates share one kernel
        assert (p.tpr, p.tnr) == (score.tpr(p.threshold), score.tnr(p.threshold))


def test_traversal_needs_three_thresholds():
    with pytest.raises(InvalidSpecError):
        roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=2)


# ---------------------------------------------------------------------------
# Summaries / files
# ---------------------------------------------------------------------------

def test_gap_summary_consistent_verdict():
    summary = gap_summary(EXAMPLE_POP, ScoreModel(), 0.3, n_samples=200_000, seed=3)
    assert summary["verdict"] == "consistent"
    assert abs(summary["closed_form_gap"] - summary["mc_gap"]) <= 3 * summary["mc_se"]


@pytest.mark.parametrize("kw, message", [
    (dict(threshold=float("nan")), "threshold must be finite, got nan"),
    (dict(n_samples=5), "n_samples must be at least 10^4 and below 2**63, got 5"),
    (dict(seed=-1), "seed must be non-negative, got -1")])
def test_gap_summary_refuses_invalid_inputs(kw, message):
    args = dict(threshold=0.3, n_samples=10_000, seed=0) | kw
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        gap_summary(EXAMPLE_POP, ScoreModel(), **args)


def test_traversal_csv_round_trip(tmp_path):
    points = roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=11)
    path = tmp_path / "roc.csv"
    write_traversal_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,tnr,tpr,maj_acc,min_acc,gap"
    assert len(lines) == 12


def test_traversal_csv_matches_csv_writer(tmp_path):
    points = roc_traverse(EXAMPLE_POP, ScoreModel(), n_thresholds=101)
    points += [RocPoint(float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                        123456789012.345678)]
    write_traversal_csv(points, tmp_path / "roc.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "tnr", "tpr", "maj_acc", "min_acc", "gap"])
        writer.writerows([format_sig(v) for v in vars(p).values()] for p in points)
    assert (tmp_path / "roc.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_traversal_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "threshold,tnr,tpr,maj_acc,min_acc,gap\n"


# ---------------------------------------------------------------------------
# Bit-for-bit agreement with the scalar reference implementations
# ---------------------------------------------------------------------------

def _reference_mixture_quantile(pop, score, q):
    """One threshold at a time, by scalar bisection on the mixed score CDF."""
    lo = min(score.mu0 - 10 * score.s0, score.mu1 - 10 * score.s1)
    hi = max(score.mu0 + 10 * score.s0, score.mu1 + 10 * score.s1)

    def cdf(t):
        return ((1.0 - pop.p_y1) * normal_cdf((t - score.mu0) / score.s0)
                + pop.p_y1 * normal_cdf((t - score.mu1) / score.s1))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_roc_traverse(pop, score, n_thresholds, rows):
    """The traversal's rows at indexes ``rows``, one scalar bisection each."""
    qs = np.linspace(0.001, 0.999, n_thresholds)
    out = []
    for q in qs[rows]:
        t = _reference_mixture_quantile(pop, score, float(q))
        tpr = score.tpr(t)
        tnr = score.tnr(t)
        maj = subpop_accuracy(pop, tpr, tnr, 1)
        mnr = subpop_accuracy(pop, tpr, tnr, 0)
        out.append((t, tnr, tpr, maj, mnr, abs(maj - mnr)))
    return out


def _check_roc_traverse(pop, score, n_thresholds):
    """Every row equals the traversal solved in reverse order, so a row's
    bits do not depend on its neighbours; the first and last rows and every
    (n // 20)th equal the scalar reference."""
    points = roc_traverse(pop, score, n_thresholds=n_thresholds)
    rows = [(p.threshold, p.tnr, p.tpr, p.maj_acc, p.min_acc, p.gap) for p in points]
    assert all(type(v) is float for row in rows for v in row)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(theory, "bisect",
                  lambda cdf, targets, lo, hi: bisect(cdf, targets[::-1].copy(), lo, hi)[::-1])
        assert roc_traverse(pop, score, n_thresholds=n_thresholds) == points
    picked = sorted({*range(0, n_thresholds, max(1, n_thresholds // 20)), n_thresholds - 1})
    assert [rows[i] for i in picked] == _reference_roc_traverse(pop, score, n_thresholds,
                                                                picked)


def _reference_monte_carlo_gap(pop, score, threshold, n_samples, seed):
    """Cell counts by three binomials, then each (Y, Z) cell's scores in one call."""
    rng = np.random.default_rng(seed)
    n1 = rng.binomial(n_samples, pop.p_y1)
    n1_z1 = rng.binomial(n1, pop.pi1)
    n0_z1 = rng.binomial(n_samples - n1, pop.pi0)
    cells = {(1, 1): n1_z1, (1, 0): n1 - n1_z1,
             (0, 1): n0_z1, (0, 0): n_samples - n1 - n0_z1}
    n_z = {0: 0, 1: 0}
    correct = {0: 0, 1: 0}
    for (y, z), count in cells.items():
        mu, s = (score.mu1, score.s1) if y else (score.mu0, score.s0)
        x = mu + s * rng.standard_normal(count)
        n_z[z] += int(count)
        correct[z] += int(np.sum((x > threshold) == bool(y)))
    accs = [correct[z] / n_z[z] for z in (1, 0)]
    ses = [acc * (1.0 - acc) / n_z[z] for acc, z in zip(accs, (1, 0))]
    return abs(accs[0] - accs[1]), float(np.sqrt(ses[0] + ses[1]))


BITWISE_CASES = [
    (EXAMPLE_POP, ScoreModel()),
    (PopulationSpec(p_y1=0.3, pi1=0.85, pi0=0.1), ScoreModel(mu0=-0.4, mu1=1.9, s0=0.6, s1=2.3)),
    (PopulationSpec(p_y1=0.72, pi1=0.2, pi0=0.65), ScoreModel(mu0=0.3, mu1=0.5, s0=1.8, s1=0.35)),
    (PopulationSpec(p_y1=0.5, pi1=0.6, pi0=0.6), ScoreModel(mu0=-2.0, mu1=2.0, s0=1.0, s1=3.0)),
]


@pytest.mark.parametrize("n_thresholds", [3, 11, 101, 1001])
@pytest.mark.parametrize("case", range(len(BITWISE_CASES)))
def test_roc_traverse_equals_scalar_reference(case, n_thresholds):
    _check_roc_traverse(*BITWISE_CASES[case], n_thresholds)


# Populations in the ranges the benchmark's theory workload draws from; any
# finite score model with positive standard deviations.
@settings(max_examples=25, deadline=None)
@given(p_y1=st.floats(0.3, 0.7), pi1=st.floats(0.55, 0.95), pi0=st.floats(0.05, 0.45),
       mu0=st.floats(-3.0, 3.0), mu1=st.floats(-3.0, 3.0),
       s0=st.floats(0.05, 4.0), s1=st.floats(0.05, 4.0))
def test_roc_traverse_equals_scalar_reference_on_drawn_models(p_y1, pi1, pi0, mu0, mu1,
                                                               s0, s1):
    pop = PopulationSpec(p_y1=p_y1, pi1=pi1, pi0=pi0)
    score = ScoreModel(mu0=mu0, mu1=mu1, s0=s0, s1=s1)
    _check_roc_traverse(pop, score, 101)


@pytest.mark.parametrize("seed", [0, 987654321])
@pytest.mark.parametrize("case", range(len(BITWISE_CASES)))
def test_monte_carlo_gap_equals_reference(case, seed):
    pop, score = BITWISE_CASES[case]
    # 50,000 samples fit every cell in one block of the kernel's buffer; at
    # 300,000 the larger cells span several blocks.
    for n_samples in (50_000, 300_000):
        got = monte_carlo_gap(pop, score, 0.15, n_samples, seed=seed)
        assert got == _reference_monte_carlo_gap(pop, score, 0.15, n_samples, seed)
        assert all(type(v) is float for v in got)


def test_monte_carlo_gap_memory_does_not_grow_with_samples():
    pop, score = BITWISE_CASES[1]
    # numpy imports numpy.random on first use; keep that one-time import out of the peak
    monte_carlo_gap(pop, score, 0.15, 10_000, seed=5)
    tracemalloc.start()
    try:
        monte_carlo_gap(pop, score, 0.15, 2_000_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_monte_carlo_gap_empty_group():
    pop = PopulationSpec(p_y1=0.5, pi1=1e-12, pi0=1e-12)
    with pytest.raises(EmptyGroupError, match="Z=1"):
        monte_carlo_gap(pop, ScoreModel(), 0.0, 10_000)


# ---------------------------------------------------------------------------
# Bridge to the data model
# ---------------------------------------------------------------------------

BRIDGE_SPEC = ShiftSpec(d_core=20, d_spu=2, sigma_core=3.0, sigma_spu=1.0, n_train=10,
                        pi1=0.9, pi0=0.2, p_y1=0.4, n_ood_test=40_000, master_seed=11)
BRIDGE_Z_BOUND = 4.0  # largest |z| of the 15 comparisons: 2.59 here, 2.80 over seeds 0-19


def test_attribute_mode_law_is_the_population_spec():
    assert BRIDGE_SPEC.population == PopulationSpec(p_y1=0.4, pi1=0.9, pi0=0.2)
    assert BRIDGE_SPEC.p_z1 == BRIDGE_SPEC.population.p_z1
    with pytest.raises(InvalidSpecError, match="attribute mode"):
        ShiftSpec(d_core=1, d_spu=1, sigma_core=1.0, sigma_spu=1.0, n_train=10,
                  p_maj=0.9).population
    degenerate = ShiftSpec(d_core=1, d_spu=1, sigma_core=1.0, sigma_spu=1.0, n_train=10,
                           pi1=0.0, pi0=0.0)
    with pytest.raises(DegeneratePopulationError, match=r"P\(Z=1\) = 0.0 is degenerate"):
        degenerate.validate()


def test_core_only_rule_on_an_attribute_pool_follows_the_closed_form():
    # At theta = 0 (unit weights on the core block only, bias -t) the score
    # sum(x_core) ~ N(y d_core, sigma_core^2 d_core) whatever the group: the
    # closed form's model, in which X is independent of Z given Y.  Each pool
    # group's accuracy and the gap must match it within binomial error.
    spec, d = BRIDGE_SPEC, BRIDGE_SPEC.d_core
    pop, pool = spec.population, generate(spec, "ood_test")
    s = spec.sigma_core * np.sqrt(d)
    score = ScoreModel(mu0=-d, mu1=d, s0=s, s1=s)
    weights = np.concatenate([np.ones(d), np.zeros(spec.d_spu)])
    z_scores = []
    for t in (-15.0, -5.0, 0.0, 5.0, 15.0):
        model = ModelRecord(model_id=f"t={t}", weights=weights, bias=-t, epoch=0,
                            train_loss=0.0, hyperparams=HyperParams(learning_rate=0.1))
        ev = evaluate(model, pool, spec.train_weights(), spec.ood_weights())
        tpr, tnr = score.tpr(t), score.tnr(t)
        variances = []
        for z in (0, 1):
            p1 = pop.p_y1_given_z(z)
            variances.append(p1 * p1 * tpr * (1 - tpr) / ev.n_pos[z]
                             + (1 - p1) ** 2 * tnr * (1 - tnr) / ev.n_neg[z])
            z_scores.append((ev.group_acc[z] - subpop_accuracy(pop, tpr, tnr, z))
                            / np.sqrt(variances[-1]))
        gap = abs(ev.group_acc[1] - ev.group_acc[0])
        z_scores.append((gap - accuracy_gap(pop, tpr, tnr)) / np.sqrt(sum(variances)))
    assert max(map(abs, z_scores)) < BRIDGE_Z_BOUND, z_scores
