"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Expensive sweeps are shared through module-scoped
fixtures; every experiment is fully determined by the seeds written here.
"""

import time
from dataclasses import replace
import numpy as np
import pytest

from shiftlab.analysis import fit_curves, load_json
from shiftlab.config import AnalysisOptions, ExperimentConfig, GridSpec
from shiftlab.datagen import ShiftSpec
from shiftlab.evaluator import evaluate, model_mixture
from shiftlab.harness import (run_agreement_pipeline, run_gen_data,
                              run_spurious_series, run_sweep_pipeline)
from shiftlab.theory import (PopulationSpec, ScoreModel, accuracy_gap,
                             monte_carlo_gap, moon_arm, roc_traverse,
                             subpop_accuracy)

MASTER_SEED = 2

# Flagship data model: 100 core dimensions at noise 10, a
# 10-dimensional spurious block at noise 1, 3000 training rows, 90% majority.
BASE_SHIFT = ShiftSpec(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                       n_train=3000, p_maj=0.9, master_seed=MASTER_SEED)

# The stock grid: 5 log-spaced learning rates x 3 ridge levels x {full, 32}
# batches x 5 seeds, snapshotted out to convergence (GridSpec defaults).
DEFAULT_GRID = GridSpec()

# The p_maj series needs sweeps whose clouds stay extended even when the
# spurious pull vanishes (p_maj = 0.5); wider learning rates provide that
# spread, and a strong spurious block keeps the arcs deep.  Its master seed
# is pinned separately from the SDR series (seeds are shared across the
# values within each series).
PMAJ_GRID = GridSpec(learning_rates=tuple(np.logspace(-4, 0, 5)),
                     snapshot_epochs=(1, 5, 10, 25))
PMAJ_SEED = 7

# Probit / agreement comparisons run on attribute-mode data with a strong
# spurious block; learning rates start higher so the sweep disperses instead
# of piling up at the one-step solution.
CONTRAST_GRID = GridSpec(learning_rates=tuple(np.logspace(-3, -1, 5)))
CONTRAST_SEED = 11
CONTRAST_D_SPU = 50


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sdr_series(tmp_path_factory):
    out = tmp_path_factory.mktemp("sdr_series")
    config = ExperimentConfig(shift=BASE_SHIFT, grid=DEFAULT_GRID, out_dir=out)
    t0 = time.time()
    summary = run_spurious_series(config, "sdr", [0.1, 0.2, 0.3, 0.4, 0.5])
    summary["elapsed"] = time.time() - t0
    return config, summary


@pytest.fixture(scope="module")
def default_sweep(sdr_series):
    # The default configuration is the first member of the SDR series
    # (d_spu = 10); reuse its artifacts instead of sweeping twice.
    config, summary = sdr_series
    row = summary["sweeps"][0]
    sub_cfg = replace(config, shift=replace(BASE_SHIFT, d_spu=10),
                      out_dir=config.out_dir / row["out_dir"].split("/")[-1])
    report_json = load_json(sub_cfg.out_dir / "report.json")
    return sub_cfg, row, report_json


@pytest.fixture(scope="module")
def contrast_sweeps(tmp_path_factory):
    out = tmp_path_factory.mktemp("contrast")
    results = {}
    for name, pi1, pi0 in (("independent", 0.6, 0.6), ("correlated", 0.9, 0.3)):
        spec = ShiftSpec(d_core=100, d_spu=CONTRAST_D_SPU, sigma_core=10.0,
                         sigma_spu=1.0, n_train=3000, pi1=pi1, pi0=pi0,
                         master_seed=CONTRAST_SEED)
        cfg = ExperimentConfig(shift=spec, grid=CONTRAST_GRID,
                               analysis=AnalysisOptions(n_pairs=500),
                               out_dir=out / name)
        results[name] = (cfg, run_sweep_pipeline(cfg))
    return results


# ---------------------------------------------------------------------------
# Criterion 1: closed-form gap vs Monte Carlo over random populations
# ---------------------------------------------------------------------------

def test_criterion_01_gap_formula_vs_monte_carlo():
    rng = np.random.default_rng(20240811)
    t0 = time.time()
    hits = 0
    worst = 0.0
    n_draws = 200
    for k in range(n_draws):
        while True:
            pop = PopulationSpec(p_y1=float(rng.uniform(0.15, 0.85)),
                                 pi1=float(rng.uniform(0.05, 0.95)),
                                 pi0=float(rng.uniform(0.05, 0.95)))
            if 0.02 < pop.p_z1 < 0.98:
                break
        tpr = float(rng.uniform(0.1, 0.95))
        tnr = float(rng.uniform(0.1, 0.95))
        threshold, score = ScoreModel().threshold_for_rates(tpr, tnr)
        closed = accuracy_gap(pop, score.tpr(threshold), score.tnr(threshold))
        mc, se = monte_carlo_gap(pop, score, threshold, 1_000_000,
                                 seed=int(rng.integers(2**63)))
        dev = abs(closed - mc) / se
        worst = max(worst, dev)
        hits += dev <= 3.0
    elapsed = time.time() - t0
    report("criterion 1 (closed-form gap vs Monte Carlo)",
           hits >= 198 and elapsed <= 120.0,
           f"{hits}/200 within 3 SE, worst {worst:.2f} SE, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: proof-decomposition identity
# ---------------------------------------------------------------------------

def test_criterion_02_proof_decomposition_identity():
    rng = np.random.default_rng(5)
    t0 = time.time()
    worst = 0.0
    n = 0
    while n < 1000:
        pop = PopulationSpec(p_y1=float(rng.uniform(0.02, 0.98)),
                             pi1=float(rng.uniform(0.0, 1.0)),
                             pi0=float(rng.uniform(0.0, 1.0)))
        if not 1e-6 < pop.p_z1 < 1 - 1e-6:
            continue
        tpr, tnr = rng.uniform(0.0, 1.0, size=2)
        lhs = abs(subpop_accuracy(pop, tpr, tnr, 1) - subpop_accuracy(pop, tpr, tnr, 0))
        worst = max(worst, abs(lhs - accuracy_gap(pop, tpr, tnr)))
        n += 1
    elapsed = time.time() - t0
    report("criterion 2 (proof decomposition identity)",
           worst <= 1e-12 and elapsed <= 1.0,
           f"worst deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 3: moon-shape replication on the default sweep
# ---------------------------------------------------------------------------

def test_criterion_03_moon_shape_replication(default_sweep, sdr_series):
    _, row, report_json = default_sweep
    _, summary = sdr_series
    beta2 = report_json["quad_fit"]["beta2"]
    se = report_json["quad_fit"]["se_beta2"]
    n_points = report_json["n_points"]
    # Orientation: the crescent bows away below its chords (every cell of the
    # sweep underperforms the interpolation line between better models), i.e.
    # the fitted parabola opens upward and its concave side faces down.
    passed = (n_points >= 400 and abs(beta2) > 2 * se and beta2 > 0
              and summary["elapsed"] / 5 <= 600)
    report("criterion 3 (moon-shape replication)", passed,
           f"{n_points} snapshots, beta2 {beta2:+.2f} = {abs(beta2)/se:.1f} SE, "
           f"~{summary['elapsed']/5:.0f}s per sweep")


# ---------------------------------------------------------------------------
# Criterion 4: curvature grows with the strength of the spurious signal
# ---------------------------------------------------------------------------

def test_criterion_04_spurious_correlation_monotonicity(sdr_series, tmp_path_factory):
    _, summary = sdr_series
    t0 = time.time()
    curvatures = [row["abs_curvature"] for row in summary["sweeps"]]
    sdr_ok = sum(b >= a for a, b in zip(curvatures, curvatures[1:]))

    out = tmp_path_factory.mktemp("pmaj_series")
    pmaj_cfg = ExperimentConfig(shift=replace(BASE_SHIFT, d_spu=50,
                                              master_seed=PMAJ_SEED),
                                grid=PMAJ_GRID, out_dir=out)
    pmaj = run_spurious_series(pmaj_cfg, "p_maj", [0.5, 0.7, 0.9])
    pm_curv = [row["abs_curvature"] for row in pmaj["sweeps"]]
    pm_ok = pm_curv[0] < pm_curv[1] < pm_curv[2]
    elapsed = summary["elapsed"] + (time.time() - t0)
    passed = sdr_ok >= 4 and pm_ok and elapsed <= 1800
    report("criterion 4 (spurious-correlation monotonicity)", passed,
           f"SDR |beta2| {['%.1f' % c for c in curvatures]} ({sdr_ok}/4), "
           f"p_maj |beta2| {['%.1f' % c for c in pm_curv]} "
           f"(strict={pm_ok}), {elapsed:.0f}s total")


# ---------------------------------------------------------------------------
# Criterion 5: probit-space contrast between correlated and independent data
# ---------------------------------------------------------------------------

def test_criterion_05_probit_contrast(contrast_sweeps):
    r2_ind = contrast_sweeps["independent"][1].report.probit_fit.r2
    r2_cor = contrast_sweeps["correlated"][1].report.probit_fit.r2
    diff = r2_ind - r2_cor
    report("criterion 5 (probit contrast)", diff >= 0.02,
           f"probit R2 independent {r2_ind:.3f} vs correlated {r2_cor:.3f}, "
           f"difference {diff:.3f}")


# ---------------------------------------------------------------------------
# Criterion 6: agreement-based estimates overestimate under correlation
# ---------------------------------------------------------------------------

def test_criterion_06_agreement_overestimation(contrast_sweeps):
    verdicts = {}
    for name, (cfg, _) in contrast_sweeps.items():
        verdicts[name] = run_agreement_pipeline(cfg).verdict
    cor = verdicts["correlated"]
    ind = verdicts["independent"]
    cor_ok = cor.get("fraction_above_margin", 0.0) >= 0.8
    ind_ok = ind.get("max_abs_gap", 1.0) <= 0.03
    report("criterion 6 (agreement overestimation)", cor_ok and ind_ok,
           f"correlated fraction >= 0.02 above: {cor.get('fraction_above_margin')}, "
           f"independent max |gap|: {ind.get('max_abs_gap'):.4f}")


# ---------------------------------------------------------------------------
# Criterion 7: model mixtures trace straight segments
# ---------------------------------------------------------------------------

def test_criterion_07_mixture_linearity(default_sweep):
    cfg, _, _ = default_sweep
    from shiftlab import datagen, trainer
    spec = cfg.shift
    pool = datagen.generate(spec, "ood_test")
    records = trainer.read_model_store(cfg.out_dir / "models.csv",
                                       cfg.out_dir / "weights.csv")
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    evals = {r.model_id: evaluate(r, pool, r_tr, r_ts) for r in records}
    by_ood = sorted(records, key=lambda r: evals[r.model_id].ood_acc)
    worst, best = by_ood[0], by_ood[-1]
    ra, rb = evals[best.model_id], evals[worst.model_id]

    max_dev = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = model_mixture(best, worst, p, pool, r_tr, r_ts)
        for g in range(2):
            chord = p * ra.group_acc[g] + (1 - p) * rb.group_acc[g]
            max_dev = max(max_dev, abs(mix.group_acc[g] - chord))

    n_half = pool.n_rows // 2
    sampled_ok = True
    p = 0.3
    exact = model_mixture(best, worst, p, pool, r_tr, r_ts)
    for seed in range(20):
        mix = model_mixture(best, worst, p, pool, r_tr, r_ts, mode="sampled", seed=seed)
        for g in range(2):
            bound = 3.0 * np.sqrt(p * (1 - p) / n_half)
            sampled_ok &= abs(mix.group_acc[g] - exact.group_acc[g]) <= bound
    report("criterion 7 (mixture linearity)", max_dev < 1e-12 and sampled_ok,
           f"max exact deviation {max_dev:.2e}, sampled within 3 SE: {sampled_ok}")


# ---------------------------------------------------------------------------
# Criterion 8: analytic threshold traversal bends and hits the symmetric point
# ---------------------------------------------------------------------------

def test_criterion_08_roc_traversal():
    pop = PopulationSpec(p_y1=0.5, pi1=0.9, pi0=0.3)
    score = ScoreModel(mu0=-1.0, mu1=1.0, s0=1.0, s1=1.0)
    points = roc_traverse(pop, score, n_thresholds=101)
    arm = moon_arm(points)
    rep = fit_curves([(p.maj_acc, p.min_acc) for p in arm])
    curved = rep.quad_fit.beta2 > 0 and abs(rep.quad_fit.beta2) > 2 * rep.quad_fit.se_beta2
    sym = min(points, key=lambda p: abs(p.tpr - p.tnr))
    gap_exact = accuracy_gap(pop, sym.tpr, sym.tpr)
    through_zero = (abs(sym.tpr - sym.tnr) < 1e-9
                    and abs(sym.maj_acc - sym.min_acc) < 1e-9
                    and gap_exact == 0.0)
    report("criterion 8 (analytic traversal)", curved and through_zero,
           f"arm beta2 {rep.quad_fit.beta2:+.2f} "
           f"({abs(rep.quad_fit.beta2)/rep.quad_fit.se_beta2:.1f} SE), "
           f"symmetric point |maj-min| = {abs(sym.maj_acc - sym.min_acc):.2e}")


# ---------------------------------------------------------------------------
# Criterion 9: with informative core features, converged sweeps concentrate
# ---------------------------------------------------------------------------

def test_criterion_09_convergence_corner():
    # Informative core features collapse the whole cloud onto one point, so
    # curve fitting is undefined by design; assemble the points directly.
    from shiftlab import datagen, trainer
    spec = replace(BASE_SHIFT, sigma_core=1.0)
    train_set = datagen.generate(spec, "train")
    pool = datagen.generate(spec, "ood_test")
    records = trainer.sweep(train_set, DEFAULT_GRID.build(spec.master_seed)).records
    last_epoch = max(r.epoch for r in records)
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    converged = np.array([
        [ev.group_acc[1], ev.group_acc[0]]
        for r in records if r.epoch == last_epoch
        for ev in [evaluate(r, pool, r_tr, r_ts)]])
    stds = converged.std(axis=0)
    means = converged.mean(axis=0)
    passed = bool(np.all(stds < 0.02) and np.all(means >= 0.95))
    report("criterion 9 (convergence corner)", passed,
           f"{len(converged)} converged snapshots, means "
           f"({means[0]:.4f}, {means[1]:.4f}), stds ({stds[0]:.4f}, {stds[1]:.4f})")


# ---------------------------------------------------------------------------
# Criterion 10: determinism and byte-level round trips
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_round_trip(tmp_path_factory):
    out_a = tmp_path_factory.mktemp("det_a")
    out_b = tmp_path_factory.mktemp("det_b")
    spec = ShiftSpec(d_core=20, d_spu=6, sigma_core=5.0, sigma_spu=1.0,
                     n_train=600, p_maj=0.9, n_ood_test=2000, master_seed=77)
    grid = GridSpec(learning_rates=(1e-3, 1e-2), l2s=(0.0, 1e-3),
                    batch_sizes=("full", 32), snapshot_epochs=(1, 4), n_seeds=2)
    cfg_a = ExperimentConfig(shift=spec, grid=grid, out_dir=out_a)
    cfg_b = ExperimentConfig(shift=spec, grid=grid, out_dir=out_b)
    run_sweep_pipeline(cfg_a)
    run_sweep_pipeline(cfg_b)
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in ("results.csv", "models.csv", "weights.csv",
                              "preds.csv", "report.json", "moon.svg"))

    # CSV and JSON round trips are byte-stable; a sweep writes no dataset
    # CSV, so the round trip reads the training split gen-data writes
    from shiftlab import datagen, analysis
    run_gen_data(cfg_a)
    ds = datagen.read_dataset_csv(out_a / "train.csv")
    datagen.write_dataset_csv(ds, out_a / "train2.csv")
    csv_ok = (out_a / "train.csv").read_bytes() == (out_a / "train2.csv").read_bytes()
    data = analysis.load_json(out_a / "report.json")
    analysis.dump_json(data, out_a / "report2.json")
    json_ok = (out_a / "report.json").read_bytes() == (out_a / "report2.json").read_bytes()
    report("criterion 10 (determinism and round trip)",
           identical and csv_ok and json_ok,
           f"identical artifacts: {identical}, csv round trip: {csv_ok}, "
           f"json round trip: {json_ok}")
