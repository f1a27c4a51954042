import csv
import tracemalloc
import zlib
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from shiftlab import evaluator
from shiftlab.datagen import Dataset, ShiftSpec, format_sig, generate, generate_blocks
from shiftlab.errors import DimensionMismatchError, EmptyGroupError, InvalidSpecError
from shiftlab.config import GridSpec
from shiftlab.evaluator import (AgreementRecord, EvalRecord, bits_to_predictions, evaluate,
                                evaluate_predictions, evaluate_snapshots,
                                matching_counts, model_mixture,
                                predictions_bits, read_preds_csv, read_preds_matrix,
                                read_results_csv, write_agreement_csv, write_preds_csv,
                                write_results_csv)
from shiftlab.trainer import FULL_BATCH, HyperParams, ModelRecord, sweep


def make_model(weights, bias=0.0, model_id="m"):
    return ModelRecord(model_id=model_id, weights=np.asarray(weights, dtype=float),
                       bias=bias, epoch=1, train_loss=0.0,
                       hyperparams=HyperParams(learning_rate=0.1))


def packed(bits):
    """A '0'/'1' string packed as ``evaluate_snapshots`` packs a row."""
    return np.packbits(np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"))


def bit_strings(pred_rows, n_rows):
    """Packed ``(model_id, row)`` pairs as ``(model_id, '0'/'1' string)``, after
    checking each row is ``ceil(n_rows / 8)`` bytes with zero padding bits."""
    out = []
    for model_id, row in pred_rows:
        assert row.dtype == np.uint8 and row.shape == (-(-n_rows // 8),)
        bits = np.unpackbits(row)
        assert not bits[n_rows:].any()
        out.append((model_id, "".join(map(str, bits[:n_rows].tolist()))))
    return out


def evaluate_as_text(records, test, r_tr, r_ts, n_rows):
    """``evaluate_snapshots`` with its rows as ``bit_strings``."""
    evals, rows = evaluate_snapshots(records, test, r_tr, r_ts)
    return evals, bit_strings(rows, n_rows)


def make_pool(labels, groups):
    labels = np.asarray(labels, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    feats = np.zeros((labels.size, 1))
    return Dataset(features=feats, labels=labels, groups=groups,
                   split="ood_test", k_groups=int(groups.max()) + 1)


def test_mixture_arithmetic_from_group_accuracies():
    # maj group: 10 rows, 8 correct (acc 0.8); min group: 10 rows, 6 correct.
    labels = np.array([1] * 5 + [-1] * 5 + [1] * 5 + [-1] * 5)
    groups = np.array([1] * 10 + [0] * 10)
    preds = labels.copy()
    preds[3] = -1   # one positive wrong in maj
    preds[8] = 1    # one negative wrong in maj
    preds[10:13] = -1  # three positives wrong in min... adjust to 4 correct/6
    preds[12] = 1   # back to two wrong positives
    preds[16:18] = 1   # two negatives wrong in min
    pool = make_pool(labels, groups)
    rec = evaluate_predictions("m", preds, pool, r_tr=(0.1, 0.9), r_ts=(0.5, 0.5))
    assert rec.group_acc[1] == 0.8
    assert rec.group_acc[0] == 0.6
    assert rec.id_acc == pytest.approx(0.78, abs=1e-15)
    assert rec.ood_acc == pytest.approx(0.70, abs=1e-15)


def test_constant_classifier_rates():
    spec = ShiftSpec(d_core=4, d_spu=2, sigma_core=1.0, sigma_spu=1.0,
                     n_train=100, pi1=0.8, pi0=0.4, n_ood_test=1000, master_seed=1)
    pool = generate(spec, "ood_test")
    model = make_model(np.zeros(6))  # decision value 0 everywhere -> +1
    rec = evaluate(model, pool, spec.train_weights(), spec.ood_weights())
    for g in range(2):
        mask = pool.groups == g
        pos_frac = float(np.mean(pool.labels[mask] == 1))
        assert rec.group_acc[g] == pytest.approx(pos_frac, abs=1e-15)
        assert rec.tpr[g] == 1.0
        assert rec.tnr[g] == 0.0


def test_decomposition_identity_exact_integer_arithmetic():
    spec = ShiftSpec(d_core=10, d_spu=3, sigma_core=2.0, sigma_spu=1.0,
                     n_train=500, p_maj=0.9, n_ood_test=2000, master_seed=9)
    pool = generate(spec, "ood_test")
    train = generate(spec, "train")
    model = sweep(train, GridSpec(n_seeds=1,
                                  learning_rates=(0.01,), l2s=(0.0,),
                                  batch_sizes=(32,),
                                  snapshot_epochs=(3,)).build(9)).records[0]
    rec = evaluate(model, pool, spec.train_weights(), spec.ood_weights())
    for g in range(2):
        acc = Fraction(rec.correct_pos[g] + rec.correct_neg[g],
                       rec.n_pos[g] + rec.n_neg[g])
        tpr = Fraction(rec.correct_pos[g], rec.n_pos[g])
        tnr = Fraction(rec.correct_neg[g], rec.n_neg[g])
        frac_pos = Fraction(rec.n_pos[g], rec.n_pos[g] + rec.n_neg[g])
        assert tpr * frac_pos + tnr * (1 - frac_pos) == acc


def test_empty_group_rejected():
    pool = make_pool([1, -1, 1], [0, 0, 0])
    pool = Dataset(features=pool.features, labels=pool.labels, groups=pool.groups,
                   split="ood_test", k_groups=2)
    with pytest.raises(EmptyGroupError):
        evaluate_predictions("m", np.array([1, 1, 1]), pool, (0.5, 0.5), (0.5, 0.5))


def test_weights_validated():
    pool = make_pool([1, -1, 1, -1], [0, 0, 1, 1])
    with pytest.raises(InvalidSpecError):
        evaluate_predictions("m", np.ones(4, dtype=np.int64), pool, (0.5, 0.4), (0.5, 0.5))


@pytest.mark.parametrize("bad", [(1.2, -0.2), (0.5, 0.5 + 1e-10)])
@pytest.mark.parametrize("side", ["r_tr", "r_ts"])
def test_evaluation_refuses_what_a_spec_refuses(bad, side):
    # One mixture rule for ShiftSpec and the evaluator: entries in [0, 1]
    # that sum to 1 within datagen._WEIGHT_SUM_TOL.
    with pytest.raises(InvalidSpecError, match=side):
        ShiftSpec(d_core=1, d_spu=1, sigma_core=1.0, sigma_spu=1.0, n_train=10,
                  p_maj=0.9, **{side: bad}).validate()
    pool = make_pool([1, -1, 1, -1], [0, 0, 1, 1])
    weights = {"r_tr": (0.5, 0.5), "r_ts": (0.5, 0.5), side: bad}
    for call in (lambda: evaluate(make_model([1.0]), pool, **weights),
                 lambda: evaluate_snapshots([make_model([1.0])], pool, **weights)):
        with pytest.raises(InvalidSpecError, match=side) as exc:
            call()
        assert exc.value.exit_code == 2


# ---------------------------------------------------------------------------
# Snapshot matrix evaluation
# ---------------------------------------------------------------------------

def integer_pool(k, n=400, d=6, seed=0):
    """Small-integer features, so every decision value is exact in GEMM and GEMV
    alike and ties at 0 occur; the last group has no positive rows."""
    rng = np.random.default_rng(seed)
    groups = np.arange(n) % k
    labels = rng.choice([-1, 1], size=n)
    labels[groups == k - 1] = -1
    return Dataset(features=rng.integers(-2, 3, size=(n, d)).astype(float),
                   labels=labels, groups=groups, split="ood_test", k_groups=k)


def integer_snapshots(n_distinct, d=6, seed=1):
    """``n_distinct`` weights/bias pairs; every other one is shared by two
    records, as full-batch copies across seeds are, and every third array
    is reused once more under another bias, which makes a distinct snapshot."""
    rng = np.random.default_rng(seed)
    records, distinct = [], 0
    while distinct < n_distinct:
        w = rng.integers(-3, 4, size=d).astype(float)
        biases = [float(rng.integers(-1, 2))]
        if distinct % 3 == 2 and distinct + 1 < n_distinct:
            biases.append(biases[0] + 0.5)
        for bias in biases:
            for copy in range(1 + distinct % 2):
                records.append(ModelRecord(model_id=f"m{distinct:03d}c{copy}", weights=w,
                                           bias=bias, epoch=distinct, train_loss=0.0,
                                           hyperparams=HyperParams(learning_rate=0.1)))
            distinct += 1
    return records


def assert_matches_per_record(records, pool, r_tr, r_ts):
    evals, rows = evaluate_as_text(records, pool, r_tr, r_ts, pool.n_rows)
    assert len(evals) == len(rows) == len(records)
    for r, ev, (model_id, bits) in zip(records, evals, rows):
        preds = r.predict(pool.features)
        ref = evaluate_predictions(r.model_id, preds, pool, r_tr, r_ts)
        # repr spells every float exactly, and also equates the nan of an
        # empty cell, which == on two separately made nans does not.
        assert ev == ref or repr(ev) == repr(ref)
        assert model_id == r.model_id
        assert bits.encode() == predictions_bits(preds).encode()
    return evals


@pytest.mark.parametrize("n_distinct", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("k", [2, 4])
def test_evaluate_snapshots_equals_per_record_reference(n_distinct, k):
    pool = integer_pool(k)
    records = integer_snapshots(n_distinct)
    assert len({(id(r.weights), r.bias) for r in records}) == n_distinct
    weights = tuple([1.0 / k] * k)
    evals = assert_matches_per_record(records, pool, weights, (0.5, 0.5) + (0.0,) * (k - 2))
    assert all(np.isnan(ev.tpr[k - 1]) for ev in evals)


@pytest.fixture(scope="module")
def gaussian_pool():
    spec = ShiftSpec(d_core=2, d_spu=1, sigma_core=1.0, sigma_spu=1.0,
                     n_train=100, p_maj=0.9, n_ood_test=5000, master_seed=4)
    return generate(spec, "ood_test")


def test_evaluate_snapshots_on_a_trained_sweep(gaussian_pool):
    spec = ShiftSpec(d_core=2, d_spu=1, sigma_core=1.0, sigma_spu=1.0,
                     n_train=300, p_maj=0.9, n_ood_test=100, master_seed=4)
    grid = GridSpec(n_seeds=2, learning_rates=(1e-2, 1e-1),
                    l2s=(0.0,), snapshot_epochs=(1, 3)).build(4)
    records = sweep(generate(spec, "train"), grid).records
    assert len({id(r.weights) for r in records}) < len(records)
    assert_matches_per_record(records, gaussian_pool, spec.train_weights(), spec.ood_weights())


def blocks_of(pool, edges):
    """Dataset views of ``pool``'s rows between consecutive ``edges``."""
    return [Dataset(features=pool.features[a:b], labels=pool.labels[a:b],
                    groups=pool.groups[a:b], split="ood_test", k_groups=pool.k_groups)
            for a, b in zip(edges, edges[1:])]


def test_evaluate_snapshots_over_uneven_blocks_equals_one_block():
    pool = integer_pool(3)
    records = integer_snapshots(33)
    r = (0.5, 0.3, 0.2)
    blocks = blocks_of(pool, [0, 0, 1, 8, 150, 151, pool.n_rows])
    # repr spells every float exactly and equates the nan of an empty cell
    assert repr(evaluate_as_text(records, blocks, r, r, pool.n_rows)) == repr(
        evaluate_as_text(records, pool, r, r, pool.n_rows))


@pytest.mark.parametrize("rows", [37, 1000, 5000])
def test_evaluate_snapshots_over_generated_blocks(rows):
    spec = ShiftSpec(d_core=5, d_spu=2, sigma_core=2.0, sigma_spu=1.0, n_train=100,
                     p_maj=0.9, n_ood_test=1000, master_seed=6)
    rng = np.random.default_rng(2)
    records = [make_model(rng.normal(size=7), bias=float(rng.normal()), model_id=f"m{i}")
               for i in range(20)]
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    n = spec.n_ood_test
    want = evaluate_as_text(records, generate(spec, "ood_test"), r_tr, r_ts, n)
    got = evaluate_as_text(records, generate_blocks(spec, "ood_test", rows), r_tr, r_ts, n)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_evaluate_snapshots_counts_equal_count_nonzero_over_cell_masks(k, seed):
    """Every count against ``np.count_nonzero`` over the unpacked (group, label)
    masks, on a pool in random row order with one cell empty, cut at random
    block edges (most not multiples of 8)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 400))
    groups = rng.permutation(np.arange(n) % k)
    labels = rng.choice([-1, 1], size=n)
    labels[groups == rng.integers(k)] = rng.choice([-1, 1])
    pool = Dataset(features=rng.integers(-2, 3, size=(n, 6)).astype(float), labels=labels,
                   groups=groups, split="ood_test", k_groups=k)
    edges = [0, *np.sort(rng.integers(0, n, size=6)).tolist(), n]
    assert any(b % 8 for b in edges)
    records = integer_snapshots(int(rng.integers(1, 40)))
    r = tuple([1.0 / k] * k)
    evals, rows = evaluate_snapshots(records, blocks_of(pool, edges), r, r)
    masks = [(groups == g) & (labels == y) for g in range(k) for y in (1, -1)]
    totals = [np.count_nonzero(m) for m in masks]
    assert 0 in totals
    for rec, ev, (model_id, packed_row) in zip(records, evals, rows):
        ones = pool.features @ rec.weights + rec.bias >= 0.0  # exact on integer features
        assert model_id == rec.model_id
        assert np.array_equal(np.unpackbits(packed_row, count=n).astype(bool), ones)
        correct = [np.count_nonzero(m & (ones == (y == 1)))
                   for m, y in zip(masks, [1, -1] * k)]
        assert list(ev.correct_pos) == correct[0::2] and list(ev.correct_neg) == correct[1::2]
        assert list(ev.n_pos) == totals[0::2] and list(ev.n_neg) == totals[1::2]


def test_evaluate_snapshots_memory_per_pool_row():
    """8 distinct snapshots on a pool of N and of 4N rows, fed as 512-row views:
    the pass's peak grows by under 8 bytes per added row (its packed bits and
    cell masks and their counting), where an int64 copy of the pool's labels
    and groups alone would add 16."""
    rng = np.random.default_rng(3)
    records = [make_model(rng.normal(size=4), bias=float(rng.normal()), model_id=f"m{i}")
               for i in range(8)]
    n = 8192

    def peak(rows):
        pool = Dataset(features=rng.normal(size=(rows, 4)), labels=rng.choice([-1, 1], rows),
                       groups=rng.integers(0, 2, rows), split="ood_test", k_groups=2)
        blocks = blocks_of(pool, list(range(0, rows, 512)) + [rows])
        tracemalloc.start()
        try:
            evaluate_snapshots(records, blocks, (0.5, 0.5), (0.5, 0.5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(n)  # one-time allocations stay out of the peaks
    assert peak(4 * n) - peak(n) < 8 * 3 * n


def test_evaluate_snapshots_errors():
    pool = integer_pool(2)
    records = integer_snapshots(3)
    empty = Dataset(features=pool.features, labels=pool.labels, groups=pool.groups,
                    split="ood_test", k_groups=3)
    with pytest.raises(EmptyGroupError):
        evaluate_snapshots(records, empty, (0.5, 0.25, 0.25), (0.5, 0.25, 0.25))
    with pytest.raises(DimensionMismatchError):
        evaluate_snapshots(records + integer_snapshots(1, d=5), pool, (0.5, 0.5), (0.5, 0.5))
    with pytest.raises(InvalidSpecError):
        evaluate_snapshots(records, pool, (0.5, 0.4), (0.5, 0.5))
    with pytest.raises(InvalidSpecError):
        evaluate_snapshots(records, pool, (1.0,), (0.5, 0.5))
    with pytest.raises(EmptyGroupError, match="no rows"):
        evaluate_snapshots(records, iter([]), (0.5, 0.5), (0.5, 0.5))


def test_evaluate_refuses_a_wrong_width_model():
    with pytest.raises(DimensionMismatchError, match="has 5 weights"):
        evaluate(make_model(np.ones(5)), integer_pool(2), (0.5, 0.5), (0.5, 0.5))


def test_popcount_table_counts_the_set_bits_of_every_byte():
    assert evaluator._POPCOUNT.tolist() == [bin(i).count("1") for i in range(256)]


@st.composite
def bool_rows(draw):
    """Two ``(models x rows)`` bool matrices and up to three row masks, the
    row count not a multiple of 8, so the packed rows carry padding bits."""
    models = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 70).filter(lambda n: n % 8))
    a, b = (draw(arrays(bool, (models, rows))) for _ in range(2))
    masks = draw(st.lists(arrays(bool, rows), min_size=1, max_size=3))
    return a, b, masks


@settings(max_examples=100, deadline=None)
@given(bool_rows())
def test_matching_counts_equal_count_nonzero_on_unpacked_rows(drawn):
    a, b, masks = drawn
    cells = [np.packbits(m) for m in masks]
    pa, pb = np.packbits(a, axis=1), np.packbits(b, axis=1)
    want = np.stack([np.count_nonzero((a == b) & m, axis=1) for m in masks], axis=1)
    assert matching_counts(pa, pb, cells).tolist() == want.tolist()
    # one row broadcast against all, as agreement compares models with the labels
    want = np.stack([np.count_nonzero((a == b[0]) & m, axis=1) for m in masks], axis=1)
    assert matching_counts(pa, pb[0], cells).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Model mixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixture_setup():
    spec = ShiftSpec(d_core=6, d_spu=2, sigma_core=2.0, sigma_spu=1.0,
                     n_train=400, p_maj=0.9, n_ood_test=10_000, master_seed=6)
    pool = generate(spec, "ood_test")
    a = make_model([1.0] * 6 + [0.0] * 2, model_id="a")
    b = make_model([0.2] * 6 + [1.0] * 2, model_id="b")
    return spec, pool, a, b


def test_mixture_endpoints(mixture_setup):
    spec, pool, a, b = mixture_setup
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    mix0 = model_mixture(a, b, 0.0, pool, r_tr, r_ts)
    rb = evaluate(b, pool, r_tr, r_ts)
    assert mix0.group_acc == rb.group_acc
    assert mix0.id_acc == rb.id_acc
    mix1 = model_mixture(a, b, 1.0, pool, r_tr, r_ts)
    ra = evaluate(a, pool, r_tr, r_ts)
    assert mix1.group_acc == ra.group_acc


def test_mixture_midpoint_average(mixture_setup):
    spec, pool, a, b = mixture_setup
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    ra = evaluate(a, pool, r_tr, r_ts)
    rb = evaluate(b, pool, r_tr, r_ts)
    mid = model_mixture(a, b, 0.5, pool, r_tr, r_ts)
    for g in range(2):
        assert mid.group_acc[g] == pytest.approx(
            0.5 * ra.group_acc[g] + 0.5 * rb.group_acc[g], abs=1e-15)


def test_mixture_traces_straight_segment(mixture_setup):
    # Exact-mode interpolation is linear in p: deviation from the chord at
    # machine precision.
    spec, pool, a, b = mixture_setup
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    ra = evaluate(a, pool, r_tr, r_ts)
    rb = evaluate(b, pool, r_tr, r_ts)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = model_mixture(a, b, p, pool, r_tr, r_ts)
        for g in range(2):
            chord = p * ra.group_acc[g] + (1 - p) * rb.group_acc[g]
            assert abs(mix.group_acc[g] - chord) < 1e-12


def test_sampled_mixture_within_binomial_error(mixture_setup):
    spec, pool, a, b = mixture_setup
    r_tr, r_ts = spec.train_weights(), spec.ood_weights()
    p = 0.3
    exact = model_mixture(a, b, p, pool, r_tr, r_ts)
    n = pool.n_rows
    bound = 3.0 * np.sqrt(p * (1 - p) / n)
    for seed in range(50):
        sampled = model_mixture(a, b, p, pool, r_tr, r_ts, mode="sampled", seed=seed)
        for g in range(2):
            # group sizes are n/2, so scale the bound accordingly
            g_bound = 3.0 * np.sqrt(p * (1 - p) / (n / 2))
            assert abs(sampled.group_acc[g] - exact.group_acc[g]) <= g_bound
        assert abs(sampled.ood_acc - exact.ood_acc) <= bound


def test_mixture_validates_p(mixture_setup):
    spec, pool, a, b = mixture_setup
    with pytest.raises(InvalidSpecError):
        model_mixture(a, b, 1.5, pool, spec.train_weights(), spec.ood_weights())


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def test_predictions_bits_round_trip():
    preds = np.array([1, -1, -1, 1, 1], dtype=np.int64)
    bits = predictions_bits(preds)
    assert bits == "10011"
    assert np.array_equal(bits_to_predictions(bits), preds)


def test_predictions_bits_matches_per_value_join():
    preds = np.random.default_rng(3).choice([-1, 1], size=10_007).astype(np.int64)
    bits = predictions_bits(preds)
    assert bits == "".join("1" if v == 1 else "0" for v in preds)
    assert predictions_bits(preds[:0]) == ""


@pytest.fixture
def results_records():
    spec = ShiftSpec(d_core=5, d_spu=2, sigma_core=2.0, sigma_spu=1.0,
                     n_train=200, p_maj=0.8, n_ood_test=500, master_seed=3)
    train = generate(spec, "train")
    pool = generate(spec, "ood_test")
    records = sweep(train, GridSpec(n_seeds=1,
                                    learning_rates=(0.01,), l2s=(0.0,),
                                    batch_sizes=(32,),
                                    snapshot_epochs=(1, 2)).build(3)).records
    evals = [evaluate(m, pool, spec.train_weights(), spec.ood_weights())
             for m in records]
    return list(zip(records, evals))


def test_results_csv_round_trip(tmp_path, results_records):
    records, evals = zip(*results_records)
    path = tmp_path / "results.csv"
    write_results_csv(results_records, path)
    rows = read_results_csv(path)
    assert len(rows) == len(records)
    assert rows[0]["model_id"] == records[0].model_id
    assert float(rows[0]["id_acc"]) == pytest.approx(evals[0].id_acc, rel=1e-11)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:6] == ["model_id", "epoch", "lr", "l2", "batch_size", "seed"]
    assert header[6:] == ["group_acc_0", "group_acc_1", "tpr_0", "tpr_1",
                          "tnr_0", "tnr_1", "id_acc", "ood_acc"]


def test_results_csv_row_off_the_header_names_its_line(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("model_id,epoch,id_acc\na,1,0.5\n\nb,2,0.6,0.7\n")
    with pytest.raises(InvalidSpecError, match=r"results.csv, line 4: 4 fields under a 3-field"):
        read_results_csv(path)
    path.write_text("model_id,epoch,id_acc\na,1\n")
    with pytest.raises(InvalidSpecError, match="line 2: 2 fields"):
        read_results_csv(path)
    path.write_text("model_id,epoch,id_acc\na,1,0.5\n\nb,2,0.6\n")
    assert [r["model_id"] for r in read_results_csv(path)] == ["a", "b"]  # blank line skipped


def test_preds_csv_round_trip(tmp_path):
    rows = [("a", "0101"), ("b", "1111")]
    path = tmp_path / "preds.csv"
    write_preds_csv([(mid, packed(bits)) for mid, bits in rows], path)
    assert path.read_text() == "model_id,packed_hex\na,50\nb,f0\n"
    assert read_preds_csv(path) == {"a": "50", "b": "f0"}
    ids, rows_read, _ = read_preds_matrix(path, 4)
    assert bit_strings(zip(ids, rows_read), 4) == rows


def test_preds_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 8, 2500):  # one file per pool size
        rows = [(f"c{i:03d}_lr0.01 x'y;{i}", np.packbits(rng.choice([-1, 1], size=n) == 1))
                for i in range(3)]
        path = tmp_path / f"preds_{n}.csv"
        write_preds_csv(rows, path)
        ref = tmp_path / f"ref_{n}.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["model_id", "packed_hex"])
            writer.writerows((mid, "".join(f"{b:02x}" for b in row.tolist()))
                             for mid, row in rows)
        assert path.read_bytes() == ref.read_bytes()


def test_read_preds_matrix_fills_rows_and_returns_crc(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(f"m{i}", predictions_bits(rng.choice([-1, 1], size=50))) for i in (3, 0, 4, 1)]
    path = tmp_path / "preds.csv"
    write_preds_csv([(mid, packed(bits)) for mid, bits in rows], path)
    ids, ones, crc = read_preds_matrix(path, 50)
    assert ids == ["m3", "m0", "m4", "m1"]  # file order
    assert crc == zlib.crc32(path.read_bytes())
    assert bit_strings(zip(ids, ones), 50) == rows
    with pytest.raises(InvalidSpecError, match="'m3'.* not 16 lowercase hex digits"):
        read_preds_matrix(path, 57)  # every row one byte short
    with pytest.raises(InvalidSpecError, match="'m3'.* not 12 lowercase hex digits"):
        read_preds_matrix(path, 48)  # one byte long
    # 50 rows leave 6 pad bits in the last byte; at 49 rows one of them is row 49
    set_49 = [mid for mid, bits in rows if bits[49] == "1"][0]
    with pytest.raises(InvalidSpecError, match=f"'{set_49}' sets a pad bit past row 49"):
        read_preds_matrix(path, 49)
    assert read_preds_matrix(path, 56)[1].tolist() == ones.tolist()  # pad bits read as rows
    path.write_bytes(path.read_bytes()[:-1])  # the last line without its newline
    assert read_preds_matrix(path, 50)[1].tolist() == ones.tolist()
    path.write_text("model_id,packed_hex\n,50")  # the shortest line a file can end with
    assert read_preds_matrix(path, 4)[0] == [""]
    path.write_text("model_id,packed_hex\nm0,\n")
    assert read_preds_matrix(path, 0)[1].shape == (1, 0)
    for bad in ("5x", "5 ", "ab  ", " abc", "ABCD", "-1"):
        path.write_text(f"model_id,packed_hex\nm0,{bad}\n")
        n_rows = 4 * len(bad)  # the right number of digits
        with pytest.raises(InvalidSpecError, match="preds.csv: model 'm0'.* hex digits"):
            read_preds_matrix(path, n_rows)
    path.write_text("model_id,packed_hex\nm0,58\n")  # 5 rows: 01011, then 000 pad
    assert read_preds_matrix(path, 5)[1].tolist() == [[0x58]]
    path.write_text("model_id,packed_hex\nm0,5c\n")
    with pytest.raises(InvalidSpecError, match="'m0' sets a pad bit past row 5"):
        read_preds_matrix(path, 5)
    for header in ("model_id,bits", "packed_hex,model_id", "model_id,packed_hex,"):
        path.write_text(f"{header}\nm0,50\n")
        with pytest.raises(InvalidSpecError, match=f"preds.csv: header '{header}' is not "
                                                   "'model_id,packed_hex'"):
            read_preds_matrix(path, 4)


def test_read_preds_matrix_peak_memory_stays_under_twice_the_matrix(tmp_path):
    """A 210 x 25,000 file (a ``fullbatch_widepool`` sweep's) is read into one
    preallocated matrix, line by line: the peak stays under twice the matrix."""
    n_models, n_rows = 210, 25_000
    rng = np.random.default_rng(11)
    matrix = np.packbits(rng.random((n_models, n_rows)) < 0.5, axis=1)
    path = tmp_path / "preds.csv"
    write_preds_csv([(f"c{i:03d}_lr0.0178_e10_s4", row) for i, row in enumerate(matrix)], path)
    read_preds_matrix(path, n_rows)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        ids, read, _ = read_preds_matrix(path, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == n_models and np.array_equal(read, matrix)
    assert peak < 2 * matrix.nbytes


@pytest.mark.parametrize("model_id", ["a,b", 'say "x"', "a\rb", "a\nb"])
def test_preds_csv_rejects_ids_csv_would_quote(tmp_path, model_id):
    path = tmp_path / "preds.csv"
    with pytest.raises(InvalidSpecError, match="preds.csv"):
        write_preds_csv([("ok", packed("01")), (model_id, packed("10"))], path)
    assert not path.exists()
    # results.csv and agreement.csv refuse the same IDs
    ok, bad = (_results_record(mid, HyperParams(0.1), 2) for mid in ("ok", model_id))
    path = tmp_path / "results.csv"
    with pytest.raises(InvalidSpecError, match="results.csv"):
        write_results_csv([ok, bad], path)
    assert not path.exists()
    path = tmp_path / "agreement.csv"
    for pair in (("ok", model_id), (model_id, "ok")):
        with pytest.raises(InvalidSpecError, match="agreement.csv"):
            write_agreement_csv([AgreementRecord("ok", "ok", 1.0), AgreementRecord(*pair, 0.5)],
                                path)
        assert not path.exists()


def _results_record(model_id, hp, k, values=(0.5,)):
    """A (ModelRecord, EvalRecord) pair whose accuracies cycle through ``values``."""
    v = np.resize(np.array(values, dtype=float), 3 * k + 2).tolist()
    model = ModelRecord(model_id=model_id, weights=np.zeros(2), bias=0.0, epoch=7,
                        train_loss=0.0, hyperparams=hp)
    ev = EvalRecord(model_id=model_id, group_acc=tuple(v[:k]), tpr=tuple(v[k:2 * k]),
                    tnr=tuple(v[2 * k:3 * k]), id_acc=v[-2], ood_acc=v[-1])
    return model, ev


def _csv_writer_results(records, path):
    """Reference: the ``csv.writer`` rows results.csv was first written with,
    every float through format_sig."""
    k = records[0][1].k_groups
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_id", "epoch", "lr", "l2", "batch_size", "seed"]
                        + [f"group_acc_{g}" for g in range(k)]
                        + [f"tpr_{g}" for g in range(k)]
                        + [f"tnr_{g}" for g in range(k)]
                        + ["id_acc", "ood_acc"])
        for model, ev in records:
            hp = model.hyperparams
            writer.writerow(
                [ev.model_id, model.epoch,
                 format_sig(hp.learning_rate) if hp else "",
                 format_sig(hp.l2) if hp else "",
                 (hp.batch_size if hp.batch_size == FULL_BATCH else str(hp.batch_size)) if hp else "",
                 hp.seed if hp else ""]
                + [format_sig(v) for v in ev.group_acc]
                + [format_sig(v) for v in ev.tpr]
                + [format_sig(v) for v in ev.tnr]
                + [format_sig(ev.id_acc), format_sig(ev.ood_acc)])


_EDGE_VALUES = (1 / 3, 0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 0.1 + 0.2,
                123456789012.5, 0.9999999999995)


def test_results_csv_matches_csv_writer(tmp_path, results_records):
    hps = [HyperParams(1e-7, l2=2.5e-9, batch_size=FULL_BATCH, seed=2**64 - 1),
           HyperParams(0.1, batch_size=32), HyperParams(1 / 3, l2=1e-2, batch_size=1, seed=5)]
    edge = {k: [_results_record(f"e{i}_lr0.01 x'y;", hp, k, _EDGE_VALUES[i:])
                for i, hp in enumerate(hps)] for k in (2, 3)}
    for name, records in (("trained", results_records), ("edge2", edge[2]),
                          ("edge3", edge[3])):
        path, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        write_results_csv(records, path)
        _csv_writer_results(records, ref)
        assert path.read_bytes() == ref.read_bytes(), name


def test_agreement_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(8)
    values = [*_EDGE_VALUES, *rng.random(500).tolist()]
    for n in (0, 1, len(values)):
        records = [AgreementRecord(f"a{i}_lr0.01 x'y;", f"b{i}-s{i:016x}", v)
                   for i, v in enumerate(values[:n])]
        path, ref = tmp_path / f"agreement_{n}.csv", tmp_path / f"ref_{n}.csv"
        write_agreement_csv(records, path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["model_a", "model_b", "agreement"])
            for r in records:
                writer.writerow([r.model_a, r.model_b, format_sig(r.agreement)])
        assert path.read_bytes() == ref.read_bytes(), n
