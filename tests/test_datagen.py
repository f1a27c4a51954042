from dataclasses import replace
from fractions import Fraction
import tracemalloc
from itertools import product

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shiftlab import datagen
from shiftlab.datagen import (SPLITS, Dataset, ShiftSpec, generate, generate_blocks,
                              mixture_table, parse_spec_items, read_dataset_csv,
                              write_dataset_csv, write_spec_file)
from shiftlab.errors import (DegenerateDimensionError, InfeasibleMarginalsError,
                             InvalidSpecError)
from shiftlab.rng import row_streams, stream_normals


def majority_spec(**kw) -> ShiftSpec:
    base = dict(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                n_train=3000, p_maj=0.9, master_seed=7)
    base.update(kw)
    return ShiftSpec(**base)


def attribute_spec(**kw) -> ShiftSpec:
    base = dict(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                n_train=3000, pi1=0.9, pi0=0.3, master_seed=7)
    base.update(kw)
    return ShiftSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_valid_specs_pass():
    majority_spec().validate()
    attribute_spec().validate()


def test_zero_core_dimension_rejected():
    with pytest.raises(DegenerateDimensionError):
        majority_spec(d_core=0).validate()


@pytest.mark.parametrize("kw", [
    dict(sigma_core=0.0), dict(sigma_spu=-1.0), dict(n_train=0),
    dict(p_maj=0.0), dict(p_maj=1.0), dict(p_y1=1.0), dict(k_groups=1),
    dict(sigma_core=float("nan")), dict(sigma_core=float("inf")), dict(sigma_spu=float("nan")),
])
def test_bad_majority_specs_rejected(kw):
    with pytest.raises(InvalidSpecError):
        majority_spec(**kw).validate()


def test_pi_pair_must_be_complete():
    with pytest.raises(InvalidSpecError):
        majority_spec(pi1=0.5).validate()


def test_degenerate_attribute_marginal_rejected():
    with pytest.raises(InvalidSpecError):
        attribute_spec(pi1=0.0, pi0=0.0).validate()


def test_weight_vectors_must_sum_to_one():
    with pytest.raises(InvalidSpecError):
        majority_spec(r_ts=(0.6, 0.5)).validate()
    with pytest.raises(InvalidSpecError):
        majority_spec(r_ts=(0.2, 0.3, 0.5)).validate()
    with pytest.raises(InvalidSpecError, match="r_ts entries"):
        majority_spec(r_ts=(float("nan"), float("nan"))).validate()


def test_kgroup_needs_r_tr():
    with pytest.raises(InvalidSpecError):
        majority_spec(k_groups=3, p_maj=None).validate()
    spec = majority_spec(k_groups=3, p_maj=None, r_tr=(0.6, 0.3, 0.1))
    spec.validate()
    assert spec.mode == "kgroup"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_train_set_size_and_exact_counts():
    spec = majority_spec()
    ds = generate(spec, "train")
    assert ds.n_rows == 3000
    assert ds.n_features == 110
    counts = np.bincount(ds.groups)
    assert counts.tolist() == [300, 2700]
    # labels balanced within each group
    for g in (0, 1):
        labels = ds.labels[ds.groups == g]
        assert np.sum(labels == 1) == np.sum(labels == -1)


def test_attribute_mode_cell_counts():
    spec = attribute_spec()
    ds = generate(spec, "train")
    pos = ds.labels == 1
    assert int(np.sum(pos)) == 1500
    assert int(np.sum(pos & (ds.groups == 1))) == 1350   # pi1 = 0.9
    assert int(np.sum(~pos & (ds.groups == 1))) == 450   # pi0 = 0.3


def test_ood_pool_is_group_balanced():
    for spec in (majority_spec(), attribute_spec()):
        pool = generate(spec, "ood_test")
        counts = np.bincount(pool.groups)
        assert counts.tolist() == [5000, 5000]


def test_determinism_bit_identical():
    spec = majority_spec()
    a = generate(spec, "train")
    b = generate(spec, "train")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.groups, b.groups)


def test_seed_isolation_changes_features_not_layout():
    a = generate(majority_spec(master_seed=1), "train")
    b = generate(majority_spec(master_seed=2), "train")
    assert not np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.groups, b.groups)


def test_splits_use_distinct_noise():
    spec = majority_spec(n_id_test=3000)
    tr = generate(spec, "train")
    idt = generate(spec, "id_test")
    assert not np.array_equal(tr.features, idt.features)


def test_zero_noise_limit():
    spec = majority_spec(sigma_core=1e-12, sigma_spu=1e-12)
    ds = generate(spec, "train")
    core = ds.features[:, :100]
    assert np.max(np.abs(core - ds.labels[:, None])) < 1e-9


def test_core_feature_means_match_label_across_seeds():
    # Per-coordinate sample mean of x_core on positive rows stays within
    # 4 * sigma/sqrt(n_pos) of 1.0, checked over 20 regenerations.
    for seed in range(20):
        spec = majority_spec(master_seed=seed, d_core=100)
        ds = generate(spec, "train")
        pos = ds.labels == 1
        n_pos = int(np.sum(pos))
        bound = 4.0 * spec.sigma_core / np.sqrt(n_pos)
        means = ds.features[pos, :100].mean(axis=0)
        assert np.max(np.abs(means - 1.0)) < bound


def test_conditional_independence_audit():
    # Core features given y do not depend on the group: group-conditional
    # means agree within 4 pooled standard errors per coordinate.
    spec = majority_spec(n_train=50_000, d_core=20, d_spu=5)
    ds = generate(spec, "train")
    for y in (1, -1):
        maj = (ds.labels == y) & (ds.groups == 1)
        mnr = (ds.labels == y) & (ds.groups == 0)
        se = spec.sigma_core * np.sqrt(1 / maj.sum() + 1 / mnr.sum())
        gap = ds.features[maj, :20].mean(axis=0) - ds.features[mnr, :20].mean(axis=0)
        assert np.max(np.abs(gap)) < 4 * se


def test_spurious_block_tracks_attribute():
    spec = majority_spec(sigma_spu=0.5, n_train=10_000)
    ds = generate(spec, "train")
    attr = np.where(ds.groups == 1, ds.labels, -ds.labels)
    spu_mean = (ds.features[:, 100:].mean(axis=1) * attr).mean()
    assert abs(spu_mean - 1.0) < 0.05


def test_kgroup_generation_layout():
    spec = majority_spec(k_groups=4, p_maj=None, r_tr=(0.55, 0.25, 0.15, 0.05),
                         d_spu=6, n_train=4000)
    ds = generate(spec, "train")
    assert np.bincount(ds.groups).tolist() == [2200, 1000, 600, 200]
    pool = generate(spec, "ood_test")
    assert np.bincount(pool.groups).tolist() == [2500, 2500, 2500, 2500]
    # group attribute values are evenly spaced in [-1, 1]
    spu = pool.features[:, 100:]
    for g, a in zip(range(4), (-1.0, -1/3, 1/3, 1.0)):
        m = spu[pool.groups == g].mean()
        assert abs(m - a) < 0.05


def test_unknown_split_rejected():
    with pytest.raises(InvalidSpecError):
        generate(majority_spec(), "validate")


def test_dataset_arrays_immutable():
    ds = generate(majority_spec(n_train=100), "train")
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


def _one_shot_features(spec, split, labels, attr):
    """Reference: the whole noise matrix in one draw, then both affine blocks."""
    streams = row_streams(spec.master_seed, datagen._SPLIT_SCOPE[split], labels.shape[0])
    noise = stream_normals(streams, spec.d_total)
    features = np.empty((labels.shape[0], spec.d_total))
    features[:, : spec.d_core] = labels[:, None] + spec.sigma_core * noise[:, : spec.d_core]
    features[:, spec.d_core:] = attr[:, None] + spec.sigma_spu * noise[:, spec.d_core:]
    return features


def _attributes(spec, ds):
    if spec.mode == "majority":
        return np.where(ds.groups == 1, ds.labels, -ds.labels).astype(float)
    if spec.mode == "attribute":
        return 2.0 * ds.groups - 1.0
    return np.array(spec.attribute_values())[ds.groups]


_B = datagen._GEN_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("d_spu", [3, 4])
@pytest.mark.parametrize("make", [
    majority_spec, attribute_spec,
    lambda **kw: majority_spec(k_groups=3, p_maj=None, r_tr=(0.5, 0.3, 0.2), **kw),
], ids=["majority", "attribute", "kgroup"])
def test_blocked_generation_matches_one_shot_draw(n, d_spu, make):
    spec = make(d_core=5, d_spu=d_spu, n_train=max(n, 1), n_ood_test=max(n, 1))
    for split in ("train", "ood_test"):
        if n == 0:  # no valid spec has an empty split: call the block loop itself
            labels, attr = np.empty(0, np.int64), np.empty(0)
            got = datagen._draw_features(spec, labels, attr, np.empty(0, np.uint64),
                                         np.empty((0, spec.d_total)))
        else:
            ds = generate(spec, split)
            assert ds.n_rows == n
            labels, attr, got = ds.labels, _attributes(spec, ds), ds.features
        want = _one_shot_features(spec, split, labels, attr)
        assert got.shape == (n, spec.d_total)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 7, _B, 1000, None])
def test_generate_blocks_concatenate_to_generate(rows):
    sizes = dict(d_core=5, d_spu=3, n_train=300, n_ood_test=1000, n_id_test=77)
    # attribute mode at pi1 = 1 leaves group 0 with no positives: an empty cell
    for spec, split in product((majority_spec(**sizes), attribute_spec(pi1=1.0, **sizes)),
                               SPLITS):
        whole = generate(spec, split)
        # each block's features live in a buffer the next block reuses: copy them
        blocks = [(b.features.copy(), b.labels, b.groups) for b in generate_blocks(spec, split, rows)]
        step = rows or whole.n_rows
        assert [len(b[0]) for b in blocks] == [len(whole.labels[i:i + step])
                                               for i in range(0, whole.n_rows, step)]
        for got, want in zip(zip(*blocks), (whole.features, whole.labels, whole.groups)):
            assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    majority_spec, lambda **kw: attribute_spec(r_ts=(0.3, 0.7), **kw),
    lambda **kw: majority_spec(k_groups=3, p_maj=None, r_tr=(0.5, 0.3, 0.2), **kw),
    lambda **kw: attribute_spec(pi1=1.0, **kw),  # group 0 has no positives
], ids=["majority", "attribute", "kgroup", "empty-cell"])
def test_row_layout_is_the_layout_of_generate(make):
    spec = make(d_core=5, d_spu=3, n_train=301, n_id_test=77, n_ood_test=1001)
    for split in SPLITS:
        labels, groups, attr = datagen.row_layout(spec, split)
        ds = generate(spec, split)
        assert labels.tobytes() == ds.labels.tobytes()
        assert groups.tobytes() == ds.groups.tobytes()
        assert attr.tobytes() == _attributes(spec, ds).tobytes()
        # group-major, positives before negatives, in the spec's counts
        want = [(g, y) for g, (n_pos, n_neg) in enumerate(spec.group_label_counts(split))
                for y, n in ((1, n_pos), (-1, n_neg)) for _ in range(n)]
        assert list(zip(groups.tolist(), labels.tolist())) == want


@pytest.mark.parametrize("rows", [1, 7, 2 * datagen._CSV_CHUNK_ROWS + 5])
def test_dataset_csv_from_blocks_matches_one_dataset(tmp_path, rows):
    spec = majority_spec(d_core=5, d_spu=3, n_train=300, n_ood_test=1000)
    write_dataset_csv(generate(spec, "ood_test"), tmp_path / "whole.csv")
    write_dataset_csv(generate_blocks(spec, "ood_test", rows), tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_generation_memory_is_the_dataset_plus_one_block():
    spec = majority_spec(d_core=100, d_spu=50, n_train=5000)
    generate(spec, "train")
    tracemalloc.start()
    try:
        ds = generate(spec, "train")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (5000, 150)
    assert peak <= 1.2 * ds.features.nbytes


def test_block_memory_does_not_grow_with_the_split():
    """From N to 4N pool rows a whole-split layout and its row streams would
    add about 34 bytes a row (2.0 MB here); drawing each block's own rows
    keeps the growth within one block of features."""
    def peak(n_ood_test):
        spec = majority_spec(d_core=100, d_spu=50, n_ood_test=n_ood_test)
        tracemalloc.start()
        try:
            for _ in generate_blocks(spec, "ood_test", 512):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 20_000
    peak(n)  # one-time allocations stay out of the peaks
    assert peak(4 * n) - peak(n) < 512 * 150 * 8


# ---------------------------------------------------------------------------
# Mixture tables
# ---------------------------------------------------------------------------

def class_totals(t) -> tuple[int, int]:
    """(Y=0 total, Y=1 total) of a ``mixture_table``."""
    return tuple(t.sum(axis=1).tolist())


def attr_totals(t) -> tuple[int, int]:
    """(Z=0 total, Z=1 total) of a ``mixture_table``."""
    return tuple(t.sum(axis=0).tolist())


def pi(t, y: int) -> float:
    """P(Z=1 | Y=y) of a ``mixture_table``."""
    return int(t[y, 1]) / class_totals(t)[y]


def test_independent_table_matches_product_of_marginals():
    t = mixture_table(10_000, 0.5, 0.6, 0.0)
    assert t.shape == (2, 2) and t.dtype == np.int64 and not t.flags.writeable
    assert t[1, 1] == 3000 and t[1, 0] == 2000
    assert t[0, 1] == 3000 and t[0, 0] == 2000
    assert class_totals(t) == (5000, 5000)
    assert attr_totals(t) == (4000, 6000)
    assert pi(t, 1) == pi(t, 0) == 0.6


def test_maximal_table_matches_exhaustive_frechet_search():
    # Oracle: enumerate every feasible non-negative integer table with the
    # fixed marginals and take the one with the largest (Y=1, Z=1) cell.
    total, n_y1, n_z1 = 10_000, 5000, 6000
    best = None
    for c11 in range(0, min(n_y1, n_z1) + 1):
        c10 = n_y1 - c11
        c01 = n_z1 - c11
        c00 = total - c11 - c10 - c01
        if min(c10, c01, c00) >= 0:
            best = c11
    t = mixture_table(total, 0.5, 0.6, 1.0)
    assert int(t[1, 1]) == best == 5000
    assert int(t[0, 1]) == 1000
    assert pi(t, 1) == 1.0 and pi(t, 0) == 0.2


def test_correlation_level_midpoint_interpolates():
    t = mixture_table(10_000, 0.5, 0.6, 0.5)
    assert int(t[1, 1]) == 4000  # halfway between 3000 and 5000


def test_one_degree_of_freedom():
    # With all three marginals fixed, tables are uniquely determined by the
    # free cell: enumerate and confirm a bijection.
    total = 200
    t0 = mixture_table(total, 0.5, 0.6, 0.0)
    n_y1 = class_totals(t0)[1]
    n_z1 = attr_totals(t0)[1]
    seen = set()
    for c11 in range(max(0, n_y1 + n_z1 - total), min(n_y1, n_z1) + 1):
        cells = (c11, n_y1 - c11, n_z1 - c11, total - n_y1 - n_z1 + c11)
        assert min(cells) >= 0
        seen.add(cells)
    assert len(seen) == min(n_y1, n_z1) - max(0, n_y1 + n_z1 - total) + 1


def test_marginal_fidelity_rational():
    for level in (0.0, 0.3, 0.7, 1.0):
        t = mixture_table(9973, 0.4, 0.55, level)
        total = int(t.sum())
        pi1 = Fraction(int(t[1, 1]), class_totals(t)[1])
        pi0 = Fraction(int(t[0, 1]), class_totals(t)[0])
        p_y1 = Fraction(class_totals(t)[1], total)
        p_z1 = pi1 * p_y1 + pi0 * (1 - p_y1)
        assert p_z1 == Fraction(attr_totals(t)[1], total)


def test_infeasible_marginals_rejected():
    with pytest.raises(InfeasibleMarginalsError):
        mixture_table(0, 0.5, 0.5, 0.0)
    with pytest.raises(InfeasibleMarginalsError):
        mixture_table(10, 0.01, 0.5, 0.0)
    with pytest.raises(ValueError):
        mixture_table(100, 0.5, 0.5, 1.5)


def table_spec(t, **kw) -> ShiftSpec:
    """The attribute-mode spec with a table's total, pi1, pi0 and p_y1."""
    spec = ShiftSpec(n_train=int(t.sum()), pi1=pi(t, 1), pi0=pi(t, 0),
                     p_y1=class_totals(t)[1] / int(t.sum()), **kw)
    spec.validate()
    return spec


def test_spec_from_table_round_trip():
    t = mixture_table(10_000, 0.5, 0.6, 1.0)
    spec = table_spec(t, d_core=50, d_spu=10, sigma_core=5.0, sigma_spu=1.0)
    assert spec.pi1 == 1.0 and spec.pi0 == 0.2 and spec.p_y1 == 0.5
    assert spec.n_train == 10_000
    # regenerating cell counts from the parameters reproduces the table exactly
    counts = spec.group_label_counts("train")
    assert counts[1][0] == int(t[1, 1])   # positives in Z=1
    assert counts[1][1] == int(t[0, 1])   # negatives in Z=1
    assert counts[0][0] == int(t[1, 0])
    assert counts[0][1] == int(t[0, 0])


def test_independent_table_spec_has_equal_conditionals():
    t = mixture_table(10_000, 0.5, 0.6, 0.0)
    spec = table_spec(t, d_core=10, d_spu=2, sigma_core=1.0, sigma_spu=1.0)
    assert spec.pi1 == spec.pi0 == 0.6


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_dataset_csv_round_trip_bytes(tmp_path):
    ds = generate(majority_spec(n_train=50, d_core=4, d_spu=2), "train")
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_dataset_csv(ds, p1)
    back = read_dataset_csv(p1)
    write_dataset_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.groups, ds.groups)


def test_dataset_csv_header_and_precision(tmp_path):
    ds = generate(majority_spec(n_train=5, d_core=2, d_spu=1), "train")
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "y,z,x0,x1,x2"
    first = lines[1].split(",")
    assert first[0] in ("-1", "1")
    assert all(len(v.replace("-", "").replace(".", "").replace("e", "").replace("+", "")) <= 10
               for v in first[2:])


def _reference_csv(ds) -> str:
    """The dataset CSV built one value at a time with ``format(v, ".9g")``."""
    lines = ["y,z," + ",".join(f"x{j}" for j in range(ds.n_features))]
    for y, z, row in zip(ds.labels, ds.groups, ds.features):
        lines.append(f"{int(y)},{int(z)}," + ",".join(format(float(v), ".9g") for v in row))
    return "\n".join(lines) + "\n"


def _reference_features(text: str) -> np.ndarray:
    rows = [[float(v) for v in line.split(",")[2:]] for line in text.splitlines()[1:]]
    return np.array(rows, dtype=float)


EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e21, -1e21, 1e-5,
               123456789.5, 0.1234567895, 9.9999999995, 1.00000000049999,
               -999999999.6, 1e300, np.pi, -np.e]


def _dataset(features, k_groups=3) -> Dataset:
    n = features.shape[0]
    return Dataset(features=features, labels=np.where(np.arange(n) % 2 == 0, 1, -1),
                   groups=np.arange(n, dtype=np.int64) % k_groups, split="ood_test",
                   k_groups=k_groups)


@pytest.mark.parametrize("n_rows", [0, 1, 2 * datagen._CSV_CHUNK_ROWS + 5])
def test_dataset_csv_matches_per_value_format(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    feats = rng.normal(scale=10.0, size=(n_rows, len(EDGE_VALUES)))
    if n_rows:
        feats[0] = EDGE_VALUES
        feats[-1, ::3] = np.inf
    ds = _dataset(feats)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    assert path.read_text() == _reference_csv(ds)


def test_dataset_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.normal(scale=10.0, size=(datagen._CSV_CHUNK_ROWS + 3, len(EDGE_VALUES)))
    feats[1] = EDGE_VALUES
    ds = _dataset(feats)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path, split="ood_test")
    expected = _reference_features(path.read_text())
    assert back.features.tobytes() == expected.tobytes()
    assert back.features.shape == ds.features.shape
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.groups, ds.groups)
    assert back.k_groups == ds.k_groups and back.split == "ood_test"
    again = tmp_path / "e.csv"
    write_dataset_csv(back, again)
    assert read_dataset_csv(again).features.tobytes() == back.features.tobytes()


def _assert_writer_matches_format(path, features):
    """Write ``features`` and compare the file with the per-value
    ``format(v, ".9g")`` reference, naming the first line that differs."""
    ds = _dataset(features)
    write_dataset_csv(ds, path)
    got, want = path.read_text().split("\n"), _reference_csv(ds).split("\n")
    diff = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert diff is None and len(got) == len(want), diff is not None and (got[diff], want[diff])


def _assert_values_match_format(tmp_path, values, n_cols=10):
    """As above for ``values`` padded with 0.5 to whole rows."""
    values = np.asarray(values, dtype=float)
    feats = np.concatenate([values, np.full(-values.size % n_cols, 0.5)]).reshape(-1, n_cols)
    _assert_writer_matches_format(tmp_path / "adv.csv", feats)


def _ulp_neighbours(x, steps=2):
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def test_writer_exact_at_powers_of_ten(tmp_path):
    values = [v for e in range(-15, 18) for sign in (1.0, -1.0)
              for v in _ulp_neighbours(sign * float(f"1e{e}"))]
    _assert_values_match_format(tmp_path, values)


def test_writer_exact_at_carries_and_ties(tmp_path):
    carries = [v for e in range(-14, 17) for sign in (1.0, -1.0)
               for v in _ulp_neighbours(sign * float(f"9.999999995e{e}"), 3)]
    # Ties in the 9th digit that a double holds exactly, then decimal ones
    # that no double hits exactly.
    ties = [100000000.5, 123456789.5, -999999998.5, 999999999.5,
            1.0000000005, 1.234567895, -9.876543215]
    _assert_values_match_format(tmp_path, carries + ties
                                + [np.nextafter(t, d) for t in ties for d in (0, np.inf)])


def test_writer_exact_at_format_boundaries(tmp_path):
    # 1e-4 and 1e9 switch between fixed and exponent notation; 1e-5 is the
    # first exponent below the switch.
    edges = [1e-4, 1e-5, 1e9, 9.9999999995e-5, 9.99999999e-5, 9.9999999995e-6,
             999999999.4, 999999999.6, 999999999.0, 1e9 - 0.5]
    values = [v for e in edges for sign in (1.0, -1.0) for v in _ulp_neighbours(sign * e, 3)]
    _assert_values_match_format(tmp_path, values)


def test_writer_exact_outside_the_fast_range(tmp_path):
    values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
              1e-310, np.inf, -np.inf, np.nan, -np.nan, 1e-14, 9.9999999e-15, 1e-300,
              -1.23456789e-100, 1.7976931348623157e308]
    values += [sign * float(f"{m}e{e}") for e in range(16, 22) for m in (1, 1.5, 9.87654321)
               for sign in (1.0, -1.0)]
    _assert_values_match_format(tmp_path, values)


def test_writer_exact_on_random_draws(tmp_path):
    rng = np.random.default_rng(20230502)
    normal = rng.normal(scale=10.0, size=500_000)
    log_uniform = np.exp(rng.uniform(np.log(1e-16), np.log(1e19), 500_000))
    log_uniform *= rng.choice([-1.0, 1.0], size=log_uniform.size)
    _assert_values_match_format(tmp_path, np.concatenate([normal, log_uniform]), n_cols=125)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.one_of(st.floats(allow_subnormal=True),
                                     st.floats(1e-14, 1e17), st.floats(-1e17, -1e-14))))
def test_writer_matches_format_property(tmp_path_factory, feats):
    _assert_writer_matches_format(tmp_path_factory.mktemp("prop") / "d.csv", feats)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_dataset_csv_round_trip_tiny(tmp_path, n_rows):
    ds = _dataset(np.full((n_rows, 3), 0.25), k_groups=2)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.features.shape == (n_rows, 3)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.groups, ds.groups)
    assert back.k_groups == 2


_FEATURE_FAULTS = [
    "1,0,0.5,0.25\n-1,1,0.5\n",          # ragged row
    "1,0,0.5,abc\n",                     # non-numeric field
    "1,0,0.5,0.25,0.125\n",              # more fields than the header
]
_LABEL_GROUP_FAULTS = [
    "1.5,0,0.5,0.25\n",                  # non-integer label
    "1,0,0.5,0.25\n7,0,0.5,0.25\n",      # label outside {-1, +1}
    "1,0,0.5,0.25\n-1,-1,0.5,0.25\n",    # negative group
]


@pytest.mark.parametrize("body", _FEATURE_FAULTS + _LABEL_GROUP_FAULTS)
def test_malformed_dataset_csv_names_path(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("y,z,x0,x1\n" + body)
    with pytest.raises(InvalidSpecError, match="bad.csv"):
        read_dataset_csv(path)
    for text in ("", "x,y,x0,x1\n", "y,z,x0,x1\n\xff,0,0.5,0.25\n"):
        path.write_bytes(text.encode("latin-1"))  # "\xff" as the byte 0xff
        with pytest.raises(InvalidSpecError, match="bad.csv"):
            read_dataset_csv(path)


@pytest.mark.parametrize("body", ["abc,0,0.5\n", "1,,0.5\n", "1\n"])
def test_dataset_labels_reject_non_numeric_label_or_group(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("y,z,x0\n1,0,0.5\n" + body)
    with pytest.raises(InvalidSpecError, match="bad.csv"):
        read_dataset_csv(path)


@pytest.mark.parametrize("body", ["1,0,0.5\n\n", "1,0,0.5\n\n-1,0,0.25\n"],
                         ids=["trailing", "between-rows"])
def test_dataset_csv_rejects_blank_line(tmp_path, body):
    # np.loadtxt would skip the blank line and load one or two rows.
    path = tmp_path / "bad.csv"
    path.write_text("y,z,x0\n" + body)
    with pytest.raises(InvalidSpecError, match="bad.csv.*line 3 is blank"):
        read_dataset_csv(path)


def test_spec_file_round_trip(tmp_path):
    for spec in (majority_spec(), attribute_spec(r_ts=(0.5, 0.5)),
                 majority_spec(k_groups=3, p_maj=None, r_tr=(0.5, 0.3, 0.2))):
        path = tmp_path / "spec.txt"
        write_spec_file(spec, path)
        back = parse_spec_items(dict(line.split("=", 1)
                                     for line in path.read_text().splitlines()))
        assert back == spec
