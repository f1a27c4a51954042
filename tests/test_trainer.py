import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from shiftlab import trainer
from shiftlab.config import GridSpec
from shiftlab.datagen import ShiftSpec, format_sig, generate
from shiftlab.errors import DivergenceError, InvalidSpecError
from shiftlab.gauss import normal_cdf
from shiftlab.rng import derive_stream
from shiftlab.trainer import (FULL_BATCH, HyperParams, ModelRecord,
                              gradient_lipschitz_bound, mean_logistic_loss,
                              read_model_store, sweep, train,
                              write_failures_csv, write_model_store)


def small_spec(**kw) -> ShiftSpec:
    base = dict(d_core=20, d_spu=5, sigma_core=3.0, sigma_spu=1.0,
                n_train=400, p_maj=0.9, n_ood_test=2000, master_seed=3)
    base.update(kw)
    return ShiftSpec(**base)


@pytest.fixture(scope="module")
def train_set():
    return generate(small_spec(), "train")


# ---------------------------------------------------------------------------
# HyperParams validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(learning_rate=0.0), dict(l2=-1e-3), dict(batch_size=0),
    dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
    dict(l2=float("nan")), dict(l2=float("inf")),
    dict(batch_size="half"), dict(snapshot_epochs=()),
    dict(snapshot_epochs=(5, 5)), dict(snapshot_epochs=(10, 5)),
])
def test_bad_hyperparams_rejected(kw):
    base = dict(learning_rate=0.01)
    base.update(kw)
    with pytest.raises(InvalidSpecError):
        HyperParams(**base)
    with pytest.raises(InvalidSpecError):
        replace(HyperParams(learning_rate=0.01), **kw)


def test_cell_id_is_content_derived():
    a = HyperParams(learning_rate=0.01, l2=1e-4, batch_size=32, seed=7)
    b = HyperParams(learning_rate=0.01, l2=1e-4, batch_size=32, seed=7)
    assert a.cell_id() == b.cell_id()
    assert a.cell_id() != HyperParams(learning_rate=0.01, seed=8).cell_id()


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

def test_full_batch_descent_property(train_set):
    lip = gradient_lipschitz_bound(train_set)
    hp = HyperParams(learning_rate=1.0 / lip, batch_size=FULL_BATCH,
                     snapshot_epochs=tuple(range(1, 41)))
    records = train(train_set, hp)
    losses = [r.train_loss for r in records]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_descent_property_with_ridge(train_set):
    l2 = 1e-2
    lip = gradient_lipschitz_bound(train_set, l2=l2)
    hp = HyperParams(learning_rate=1.0 / lip, l2=l2, batch_size=FULL_BATCH,
                     snapshot_epochs=tuple(range(1, 31)))
    records = train(train_set, hp)
    losses = [r.train_loss for r in records]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_separable_data_reaches_perfect_training_accuracy():
    spec = small_spec(sigma_core=1e-9, sigma_spu=1e-9, pi1=0.5, pi0=0.5, p_maj=None)
    ds = generate(spec, "train")
    hp = HyperParams(learning_rate=0.05, snapshot_epochs=(200,))
    record = train(ds, hp)[-1]
    assert np.all(record.predict(ds.features) == ds.labels)


def test_training_determinism_bitwise(train_set):
    hp = HyperParams(learning_rate=0.01, batch_size=32, snapshot_epochs=(1, 5), seed=11)
    a = train(train_set, hp)
    b = train(train_set, hp)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.weights, rb.weights)
        assert ra.bias == rb.bias and ra.train_loss == rb.train_loss


def test_snapshot_truncation_consistency(train_set):
    long_hp = HyperParams(learning_rate=0.02, batch_size=32, snapshot_epochs=(2, 6, 12), seed=4)
    short_hp = HyperParams(learning_rate=0.02, batch_size=32, snapshot_epochs=(2, 6), seed=4)
    long_run = train(train_set, long_hp)
    short_run = train(train_set, short_hp)
    for rl, rs in zip(long_run, short_run):
        assert rl.epoch == rs.epoch
        assert np.array_equal(rl.weights, rs.weights)
        assert rl.bias == rs.bias


def test_mean_loss_at_zero_weights(train_set):
    loss = mean_logistic_loss(np.zeros(train_set.n_features), 0.0, train_set)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_wrong_split_rejected():
    pool = generate(small_spec(), "ood_test")
    with pytest.raises(InvalidSpecError):
        train(pool, HyperParams(learning_rate=0.01))


# ---------------------------------------------------------------------------
# sweep()
# ---------------------------------------------------------------------------

def test_sweep_single_cell_equals_train(train_set):
    hp = HyperParams(learning_rate=0.01, snapshot_epochs=(1, 3))
    direct = train(train_set, hp)
    result = sweep(train_set, [hp])
    assert not result.failures
    assert [r.model_id for r in result.records] == [r.model_id for r in direct]
    for ra, rb in zip(result.records, direct):
        assert np.array_equal(ra.weights, rb.weights)


def test_sweep_rerun_identical(train_set):
    grid = GridSpec(n_seeds=2,
                    learning_rates=(1e-3, 1e-2), l2s=(0.0,),
                    batch_sizes=(FULL_BATCH,), snapshot_epochs=(1, 2)).build(1)
    a = sweep(train_set, grid)
    b = sweep(train_set, grid)
    assert [r.model_id for r in a.records] == [r.model_id for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.weights, rb.weights)


def test_sweep_shuffle_invariant(train_set):
    grid = GridSpec(n_seeds=2,
                    learning_rates=(1e-3, 1e-2), l2s=(0.0, 1e-3),
                    batch_sizes=(FULL_BATCH, 16), snapshot_epochs=(1, 2)).build(9)
    shuffled = list(grid)
    np.random.default_rng(0).shuffle(shuffled)
    a = sweep(train_set, grid)
    b = sweep(train_set, shuffled)
    assert [r.model_id for r in a.records] == [r.model_id for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.weights, rb.weights)


def test_sweep_rejects_duplicate_cells(train_set):
    hp = HyperParams(learning_rate=0.01)
    with pytest.raises(InvalidSpecError):
        sweep(train_set, [hp, hp])


def test_sweep_rejects_empty_grid(train_set):
    with pytest.raises(InvalidSpecError):
        sweep(train_set, [])


def test_default_grid_shape():
    grid = GridSpec().build(0)
    assert len(grid) == 5 * 3 * 2 * 5
    assert len({hp.cell_id() for hp in grid}) == len(grid)


# ---------------------------------------------------------------------------
# Fixed linear rules
# ---------------------------------------------------------------------------

def fixed_rule(spec: ShiftSpec, spurious_weight: float) -> ModelRecord:
    """Unit weight on every core coordinate, ``spurious_weight`` on each spurious
    one: with 0, the Bayes rule for the symmetric equal-prior Gaussian pair,
    independent of the group; with 1, unit weight everywhere."""
    w = np.ones(spec.d_total)
    w[spec.d_core:] = spurious_weight
    return ModelRecord(model_id="fixed", weights=w, bias=0.0, epoch=0,
                       train_loss=float("nan"), hyperparams=HyperParams(learning_rate=1.0))


def test_core_only_oracle_accuracy_matches_normal_cdf():
    # Margin of the core-only rule on either group: sum of d_core coordinates
    # with mean y and sd sigma, so accuracy = Phi(sqrt(d_core)/sigma).
    # Monte Carlo on the margin distribution is the independent oracle.
    d_core, sigma = 100, 10.0
    rng = np.random.default_rng(123)
    margins = d_core + sigma * np.sqrt(d_core) * rng.standard_normal(1_000_000)
    mc = float(np.mean(margins > 0))
    analytic = normal_cdf(np.sqrt(d_core) / sigma)
    assert analytic == pytest.approx(0.841345, abs=1e-6)
    assert mc == pytest.approx(analytic, abs=4 * np.sqrt(0.159 * 0.841 / 1e6) + 1e-6)

    spec = ShiftSpec(d_core=d_core, d_spu=10, sigma_core=sigma, sigma_spu=1.0,
                     n_train=100, p_maj=0.9, n_ood_test=50_000, master_seed=2)
    pool = generate(spec, "ood_test")
    rule = fixed_rule(spec, 0.0)
    correct = rule.predict(pool.features) == pool.labels
    se = np.sqrt(0.159 * 0.841 / pool.n_rows)
    assert float(np.mean(correct)) == pytest.approx(analytic, abs=4 * se)


def test_core_only_oracle_group_symmetry():
    spec = ShiftSpec(d_core=50, d_spu=10, sigma_core=5.0, sigma_spu=1.0,
                     n_train=100, pi1=0.6, pi0=0.6, n_ood_test=40_000, master_seed=5)
    pool = generate(spec, "ood_test")
    rule = fixed_rule(spec, 0.0)
    correct = rule.predict(pool.features) == pool.labels
    accs = [float(np.mean(correct[pool.groups == g])) for g in (0, 1)]
    n_g = pool.n_rows // 2
    pooled_se = np.sqrt(2 * 0.25 / n_g)
    assert abs(accs[0] - accs[1]) <= 2 * pooled_se


def test_all_features_oracle_group_asymmetry_under_correlation():
    # Spurious coordinates help exactly where the attribute agrees with the
    # label (the majority cells) and hurt where it disagrees.
    spec = ShiftSpec(d_core=50, d_spu=10, sigma_core=5.0, sigma_spu=1.0,
                     n_train=100, p_maj=0.95, n_ood_test=40_000,
                     master_seed=5)
    pool = generate(spec, "ood_test")
    rule = fixed_rule(spec, 1.0)
    correct = rule.predict(pool.features) == pool.labels
    acc_maj = float(np.mean(correct[pool.groups == 1]))
    acc_min = float(np.mean(correct[pool.groups == 0]))
    assert acc_maj > acc_min + 0.05


# ---------------------------------------------------------------------------
# Model store
# ---------------------------------------------------------------------------

def test_model_store_round_trip(tmp_path, train_set):
    grid = GridSpec(n_seeds=1, learning_rates=(1e-2,),
                    l2s=(0.0, 1e-3), batch_sizes=(FULL_BATCH, 16),
                    snapshot_epochs=(1, 2)).build(5)
    records = sweep(train_set, grid).records
    mp, wp = tmp_path / "models.csv", tmp_path / "weights.csv"
    write_model_store(records, mp, wp)
    back = read_model_store(mp, wp)
    assert [r.model_id for r in back] == [r.model_id for r in records]
    for ra, rb in zip(back, records):
        assert np.allclose(ra.weights, rb.weights, rtol=1e-11, atol=0)
        assert ra.epoch == rb.epoch
    # byte-identical re-emission
    mp2, wp2 = tmp_path / "m2.csv", tmp_path / "w2.csv"
    write_model_store(back, mp2, wp2)
    assert mp.read_bytes() == mp2.read_bytes()
    assert wp.read_bytes() == wp2.read_bytes()
    # a stored row is checked as a grid cell is
    header, first, *rest = mp.read_text().splitlines()
    model_id, _, *fields = first.split(",")
    mp.write_text("\n".join([header, ",".join([model_id, "0", *fields]), *rest]) + "\n")
    with pytest.raises(InvalidSpecError, match="learning_rate"):
        read_model_store(mp, wp)


def _edit_field(line, j, value=None):
    """``line`` with CSV field ``j`` set to ``value``, or dropped when it is None."""
    fields = line.split(",")
    fields[j:j + 1] = [] if value is None else [value]
    return ",".join(fields)


@pytest.mark.parametrize("name, fault", [
    ("weights.csv", "unknown model"), ("models.csv", "short row"), ("weights.csv", "short row"),
    ("models.csv", "missing column"), ("weights.csv", "missing column"),
    ("models.csv", "non-number"), ("weights.csv", "non-number")])
def test_malformed_model_store_names_its_file(tmp_path, train_set, name, fault):
    records = train(train_set, HyperParams(1e-2, snapshot_epochs=(1, 2)))
    write_model_store(records, tmp_path / "models.csv", tmp_path / "weights.csv")
    path = tmp_path / name
    header, *rows = path.read_text().splitlines()
    if fault == "unknown model":
        rows[-1] = _edit_field(rows[-1], 0, "no-such-model")
    elif fault == "short row":
        rows[-1] = rows[-1].rsplit(",", 1)[0]
    elif fault == "missing column":
        header, *rows = (_edit_field(line, 2) for line in [header, *rows])
    else:
        rows[-1] = _edit_field(rows[-1], 2, "x")
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(InvalidSpecError, match="malformed model store file") as info:
        read_model_store(tmp_path / "models.csv", tmp_path / "weights.csv")
    assert str(path) in str(info.value)


def _csv_writer_model_store(records, models_path, weights_path):
    """Reference: one ``csv.writer`` row per record, every float through format_sig."""
    with open(models_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_id", "lr", "l2", "batch_size", "epoch", "seed", "train_loss"])
        for r in records:
            hp = r.hyperparams
            writer.writerow([r.model_id, format_sig(hp.learning_rate), format_sig(hp.l2),
                             hp.batch_size, r.epoch, hp.seed, format_sig(r.train_loss)])
    with open(weights_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        d = records[0].weights.shape[0] if records else 0
        writer.writerow(["model_id", "b"] + [f"w{j}" for j in range(d)])
        for r in records:
            writer.writerow([r.model_id, format_sig(r.bias)] + [format_sig(v) for v in r.weights])


@pytest.mark.parametrize("trained", [False, True])
def test_model_store_bytes_match_csv_writer(tmp_path, train_set, trained):
    records = []
    if trained:
        grid = GridSpec(n_seeds=2, learning_rates=(1e-2, 0.1),
                        l2s=(0.0, 1e-3), batch_sizes=(FULL_BATCH, 16),
                        snapshot_epochs=(1, 2)).build(5)
        records = sweep(train_set, grid).records
        edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e16, 123456789012.5])
        w = np.resize(edge, records[0].weights.shape)
        records.append(ModelRecord(model_id="edge", weights=w, bias=-0.0, epoch=3,
                                   train_loss=float("nan"), hyperparams=HyperParams(1e-7, l2=2.5e-9)))
    write_model_store(records, tmp_path / "m.csv", tmp_path / "w.csv")
    _csv_writer_model_store(records, tmp_path / "m_ref.csv", tmp_path / "w_ref.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m_ref.csv").read_bytes()
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "w_ref.csv").read_bytes()


def test_failures_csv_matches_per_row_text(tmp_path):
    failures = [("c1", HyperParams(1e200, l2=1 / 3, seed=2**64 - 1), "non-finite loss at epoch 1"),
                ("c2", HyperParams(0.1, batch_size=32), "every cell, all of them, %s 100%")]
    for rows in ([], failures):
        path = tmp_path / f"failures_{len(rows)}.csv"
        write_failures_csv(rows, path)
        # the per-row f-string the sweep first wrote failures.csv with
        lines = ["cell,lr,l2,batch_size,seed,error"] + [
            f"{cell},{format_sig(hp.learning_rate)},{format_sig(hp.l2)},"
            f"{hp.batch_size},{hp.seed},{msg}" for cell, hp, msg in rows]
        assert path.read_text() == "\n".join(lines) + "\n"


def test_model_store_rejects_ids_csv_would_quote(tmp_path, train_set):
    record = train(train_set, HyperParams(1e-2, snapshot_epochs=(1,)))[0]
    for mid in ("a,b", 'a"b', "a\nb"):
        bad = ModelRecord(model_id=mid, weights=record.weights, bias=record.bias,
                          epoch=1, train_loss=record.train_loss,
                          hyperparams=record.hyperparams)
        with pytest.raises(InvalidSpecError, match="unquoted"):
            write_model_store([bad], tmp_path / "m.csv", tmp_path / "w.csv")


# ---------------------------------------------------------------------------
# Stacked sweep kernel
# ---------------------------------------------------------------------------

STABLE_LR = 0.0178  # above this, SGD cells are chaotic: 1-ulp changes grow


def assert_records_close(a, b, rtol=1e-12):
    assert a.model_id == b.model_id and a.epoch == b.epoch
    scale = max(float(np.max(np.abs(b.weights))), abs(b.bias))
    assert np.max(np.abs(a.weights - b.weights)) <= rtol * scale
    assert abs(a.bias - b.bias) <= rtol * scale
    assert a.train_loss == pytest.approx(b.train_loss, rel=rtol, abs=0)


def test_sweep_stable_cells_match_single_column_train(train_set):
    grid = GridSpec(n_seeds=2, learning_rates=(1e-3, 1e-2, 1e-1),
                    l2s=(0.0, 1e-2), batch_sizes=(FULL_BATCH, 16),
                    snapshot_epochs=(1, 3, 6)).build(4)
    result = sweep(train_set, grid)
    assert not result.failures
    by_id = {r.model_id: r for r in result.records}
    checked = 0
    for hp in grid:
        if hp.learning_rate > STABLE_LR:
            continue
        for direct in train(train_set, hp):
            assert_records_close(by_id[direct.model_id], direct)
            checked += 1
    assert checked == 2 * 2 * 2 * 2 * 3


def test_diverging_column_dropped_without_disturbing_its_group(train_set):
    def cell(lr, l2):
        return HyperParams(learning_rate=lr, l2=l2, batch_size=16,
                           snapshot_epochs=(1, 2, 10), seed=5)

    stable = [cell(lr, l2) for lr in (1e-3, 2e-2) for l2 in (0.0, 1e-3)]
    # lr * l2 >> 2: the ridge term expands the iterate geometrically.  Its
    # cell ID sorts between the stable ones, so a middle column is dropped.
    bad = cell(0.01, 1e5)
    with pytest.raises(DivergenceError) as raised:
        train(train_set, bad)
    # The iterate overflows in epoch 5, after two snapshots were taken.
    assert raised.value.epoch == 5

    with_bad = sweep(train_set, stable[:2] + [bad] + stable[2:])
    without = sweep(train_set, stable)
    assert with_bad.failures == [(bad.cell_id(), bad, str(raised.value))]
    assert not any(r.model_id.startswith(bad.cell_id()) for r in with_bad.records)
    assert len(with_bad.records) == len(without.records) == 4 * 3
    for ra, rb in zip(with_bad.records, without.records):
        assert_records_close(ra, rb)


def test_full_batch_snapshots_identical_across_seeds(train_set):
    grid = GridSpec(n_seeds=3, learning_rates=(1e-3, 1e-2),
                    l2s=(0.0, 1e-2), batch_sizes=(FULL_BATCH,),
                    snapshot_epochs=(1, 4)).build(8)
    by_traj: dict = {}
    for r in sweep(train_set, grid).records:
        hp = r.hyperparams
        by_traj.setdefault((hp.learning_rate, hp.l2, r.epoch), []).append(r)
    assert len(by_traj) == 2 * 2 * 2
    for copies in by_traj.values():
        assert len({r.hyperparams.seed for r in copies}) == 3
        for r in copies[1:]:
            assert r.weights.tobytes() == copies[0].weights.tobytes()
            assert r.bias == copies[0].bias and r.train_loss == copies[0].train_loss


# ---------------------------------------------------------------------------
# Seed stack
# ---------------------------------------------------------------------------

def _spy_stacks(monkeypatch):
    """Record the (seeds, columns) shape of every stack that sweep trains."""
    shapes = []
    descend = trainer._descend

    def spy(dataset, stack):
        shapes.append((len(stack), len(stack[0])))
        return descend(dataset, stack)

    monkeypatch.setattr(trainer, "_descend", spy)
    return shapes


def test_seed_stack_equals_one_seed_sweeps_bitwise(train_set, monkeypatch):
    # Batch 32 leaves a 16-row tail batch; lr 0.1 is chaotic, so a 1-ulp
    # difference anywhere would grow into a visible one.
    grid = GridSpec(n_seeds=3, learning_rates=(1e-3, 1e-2, 1e-1),
                    l2s=(0.0, 1e-2), batch_sizes=(FULL_BATCH, 32),
                    snapshot_epochs=(1, 3, 6)).build(6)
    shapes = _spy_stacks(monkeypatch)
    stacked = sweep(train_set, grid)
    assert sorted(shapes) == [(1, 6), (3, 6)]
    lone = [r for seed in sorted({hp.seed for hp in grid})
            for r in sweep(train_set, [hp for hp in grid if hp.seed == seed]).records]
    lone.sort(key=lambda r: r.model_id)
    assert not stacked.failures
    assert [r.model_id for r in stacked.records] == [r.model_id for r in lone]
    for ra, rb in zip(stacked.records, lone):
        assert ra.weights.tobytes() == rb.weights.tobytes()
        assert ra.bias == rb.bias and ra.train_loss == rb.train_loss


def _reference_descent(dataset, columns, batch_size, seed, epochs):
    """The textbook step on a permuted epoch copy, one (d x C) group at a time."""
    X, y = dataset.features, dataset.labels.astype(np.float64)[:, None]
    n, d = X.shape
    lr = np.array([hp.learning_rate for hp in columns])
    l2 = np.array([hp.l2 for hp in columns])
    W, b = np.zeros((d, len(columns))), np.zeros(len(columns))
    snaps = {}
    for epoch in range(1, epochs[-1] + 1):
        if batch_size == FULL_BATCH:
            Xe, ye, step = X, y, n
        else:
            order = np.random.default_rng(derive_stream(seed, epoch)).permutation(n)
            Xe, ye, step = X[order], y[order], batch_size
        for start in range(0, n, step):
            Xb, yb = Xe[start:start + step], ye[start:start + step]
            margins = yb * (Xb @ W + b)
            e = np.exp(-np.abs(margins))
            coef = yb * (np.where(margins >= 0, e, 1.0) / (1.0 + e))
            W -= lr * (-(Xb.T @ coef) / len(Xb) + l2 * W)
            b -= lr * (-coef.sum(axis=0) / len(Xb))
        if epoch in epochs:
            snaps[epoch] = W.copy(), b.copy()
    return snaps


def test_seed_stack_matches_reference_descent_bitwise(train_set):
    grid = GridSpec(n_seeds=2, learning_rates=(1e-3, 1e-1),
                    l2s=(0.0, 1e-2), batch_sizes=(FULL_BATCH, 32),
                    snapshot_epochs=(1, 4)).build(2)
    by_id = {r.model_id: r for r in sweep(train_set, grid).records}
    for batch_size in (FULL_BATCH, 32):
        for seed in sorted({hp.seed for hp in grid}):
            columns = sorted((hp for hp in grid if hp.batch_size == batch_size
                              and hp.seed == seed), key=HyperParams.cell_id)
            snaps = _reference_descent(train_set, columns, batch_size, seed, (1, 4))
            for epoch, (W, b) in snaps.items():
                for k, hp in enumerate(columns):
                    r = by_id[f"{hp.cell_id()}e{epoch:04d}"]
                    assert r.weights.tobytes() == W[:, k].tobytes() and r.bias == b[k]


def test_diverging_column_fails_only_its_own_seed(train_set, monkeypatch):
    def cell(lr, l2, seed):
        return HyperParams(learning_rate=lr, l2=l2, batch_size=16,
                           snapshot_epochs=(1, 2, 10), seed=seed)

    stable = [cell(lr, l2, seed) for seed in (5, 6) for lr in (1e-3, 2e-2)
              for l2 in (0.0, 1e-3)]
    # Both sort into the middle column of their seed's group, so the two
    # five-column groups stack and the bad column shares its index with partner.
    bad, partner = cell(0.01, 1e5, 5), cell(0.01, 1e-4, 6)
    shapes = _spy_stacks(monkeypatch)
    with_bad = sweep(train_set, stable + [bad, partner])
    assert shapes == [(2, 5)]
    without = sweep(train_set, stable + [partner])
    assert with_bad.failures == [(bad.cell_id(), bad, str(DivergenceError(5)))]
    assert not any(r.model_id.startswith(bad.cell_id()) for r in with_bad.records)
    kept = [r for r in with_bad.records if r.model_id.startswith(partner.cell_id())]
    assert [r.epoch for r in kept] == [1, 2, 10]
    assert len(with_bad.records) == len(without.records) == 9 * 3
    for ra, rb in zip(with_bad.records, without.records):
        assert_records_close(ra, rb)
        if ra.hyperparams.seed == 6:  # the other seed's slice is untouched
            assert ra.weights.tobytes() == rb.weights.tobytes() and ra.bias == rb.bias


def test_sgd_sweep_peak_memory_below_feature_matrix():
    # The flagship train split: 3,000 rows x 110 features, 2.64 MB.  Batches
    # are gathered row by row, so no permuted copy of the matrix is made.
    spec = ShiftSpec(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                     n_train=3000, p_maj=0.9, master_seed=0)
    ds = generate(spec, "train")
    grid = GridSpec(n_seeds=1, batch_sizes=(32,), snapshot_epochs=(1, 2)).build(0)
    tracemalloc.start()
    try:
        sweep(ds, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes
