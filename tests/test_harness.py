import json
import tracemalloc
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest

from shiftlab import analysis, datagen, evaluator, harness
from shiftlab.analysis import load_json
from shiftlab.config import AnalysisOptions, ExperimentConfig, GridSpec
from shiftlab.datagen import ShiftSpec, generate, read_dataset_csv, write_dataset_csv
from shiftlab.errors import AnalysisError, ConfigError, MissingInputsError
from shiftlab.harness import (SWEEP_ARTIFACTS, moon_axis_groups, overlay_cells,
                              run_agreement_pipeline, run_gen_data,
                              run_spurious_series, run_sweep_pipeline,
                              sample_pairs)


def tiny_config(tmp_path, **shift_kw) -> ExperimentConfig:
    base = dict(d_core=12, d_spu=4, sigma_core=4.0, sigma_spu=1.0,
                n_train=300, p_maj=0.9, n_ood_test=1500, master_seed=5)
    base.update(shift_kw)
    return ExperimentConfig(
        shift=ShiftSpec(**base),
        grid=GridSpec(learning_rates=(1e-3, 1e-2, 1e-1), l2s=(0.0,),
                      batch_sizes=("full", 32), snapshot_epochs=(1, 3, 6),
                      n_seeds=2),
        analysis=AnalysisOptions(n_pairs=80),
        out_dir=tmp_path / "out")


@pytest.fixture()
def sweep_out(tmp_path):
    config = tiny_config(tmp_path)
    return config, run_sweep_pipeline(config)


def test_pipeline_writes_all_artifacts(sweep_out):
    config, out = sweep_out
    for name in SWEEP_ARTIFACTS:
        assert (config.out_dir / name).exists(), name
    n_lines = (config.out_dir / "results.csv").read_text().count("\n") - 1
    assert n_lines == config.grid.n_snapshots == len(out.evals)


def test_pipeline_leaves_no_temp_files(sweep_out):
    config, _ = sweep_out
    leftovers = list(config.out_dir.glob("*.tmp"))
    assert leftovers == []


def test_pipeline_rerun_byte_identical(sweep_out):
    config, _ = sweep_out
    first = {name: (config.out_dir / name).read_bytes() for name in SWEEP_ARTIFACTS}
    run_sweep_pipeline(config)
    for name in SWEEP_ARTIFACTS:
        assert (config.out_dir / name).read_bytes() == first[name], name


def test_manifest_records_each_artifact_size_and_crc(sweep_out):
    config, _ = sweep_out
    manifest = config.out_dir / "manifest.json"
    files = load_json(manifest)["files"]
    assert list(files) == [name for name in SWEEP_ARTIFACTS if name != "manifest.json"]
    for name, entry in files.items():
        data = (config.out_dir / name).read_bytes()
        assert entry == {"bytes": len(data), "crc32": zlib.crc32(data)}, name
    first = manifest.read_bytes()
    run_sweep_pipeline(config)
    assert manifest.read_bytes() == first


def test_pipeline_report_is_valid_json(sweep_out):
    config, out = sweep_out
    data = load_json(config.out_dir / "report.json")
    assert data["n_points"] == len(out.evals)
    assert data["quad_fit"]["beta2"] == pytest.approx(out.report.quad_fit.beta2,
                                                      rel=1e-11)


def test_results_row_order_matches_model_ids(sweep_out):
    config, out = sweep_out
    lines = (config.out_dir / "results.csv").read_text().splitlines()[1:]
    ids = [line.split(",")[0] for line in lines]
    assert ids == sorted(ids)
    assert ids == [r.model_id for r in out.records]


def test_sweep_predicts_each_distinct_snapshot_once(tmp_path, monkeypatch):
    config = tiny_config(tmp_path)
    calls = []
    predict_chunk = evaluator._predict_chunk

    def counted(features, weights, bias):
        calls.append((features.shape[0], [w.tobytes() for w in weights.T]))
        return predict_chunk(features, weights, bias)

    monkeypatch.setattr(evaluator, "_predict_chunk", counted)
    out = run_sweep_pipeline(config)
    distinct = {id(r.weights): r.weights.tobytes() for r in out.records}
    # two seeds of the full-batch cells share one weights array per snapshot
    assert len(distinct) < len(out.records)
    assert len(set(distinct.values())) == len(distinct)
    # at most _CHUNK columns per GEMM
    assert all(len(columns) <= evaluator._CHUNK for _, columns in calls)
    # within each block, one GEMM column per distinct weights array
    n, n_chunks = harness._BLOCK_ROWS, -(-len(distinct) // evaluator._CHUNK)
    sizes = [min(n, config.shift.n_ood_test - start)
             for start in range(0, config.shift.n_ood_test, n)]
    assert len(sizes) > 1 and len(calls) == len(sizes) * n_chunks
    for b, rows in enumerate(sizes):
        block = calls[b * n_chunks:(b + 1) * n_chunks]
        assert all(r == rows for r, _ in block)
        assert sorted(w for _, columns in block for w in columns) == sorted(distinct.values())

    pool = generate(config.shift, "ood_test")
    r_tr, r_ts = config.shift.train_weights(), config.shift.ood_weights()
    ref = tmp_path / "ref"
    ref.mkdir()
    evaluator.write_results_csv(
        [(r, evaluator.evaluate(r, pool, r_tr, r_ts)) for r in out.records],
        ref / "results.csv")
    (ref / "preds.csv").write_text("model_id,packed_hex\n" + "".join(
        f"{r.model_id},{np.packbits(r.predict(pool.features) == 1).tobytes().hex()}\n"
        for r in out.records))
    for name in ("results.csv", "preds.csv"):
        assert (config.out_dir / name).read_bytes() == (ref / name).read_bytes(), name


@pytest.mark.parametrize("rows", [1, 7, 1500, 2048, 4096])
def test_sweep_bytes_do_not_depend_on_pool_block_rows(sweep_out, tmp_path, monkeypatch, rows):
    config, out = sweep_out
    monkeypatch.setattr(harness, "_BLOCK_ROWS", rows)
    blocked = replace(config, out_dir=tmp_path / "blocked")
    again = run_sweep_pipeline(blocked)
    for name in SWEEP_ARTIFACTS:
        assert ((blocked.out_dir / name).read_bytes()
                == (config.out_dir / name).read_bytes()), name
    assert list(blocked.out_dir.glob("*.tmp")) == []
    assert repr(again.evals) == repr(out.evals)


def test_failed_fit_renames_no_pool_into_place(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AnalysisError("degenerate points")

    monkeypatch.setattr(analysis, "fit_curves", fail)
    config = tiny_config(tmp_path)
    with pytest.raises(AnalysisError):
        run_sweep_pipeline(config)
    assert not config.out_dir.exists()  # made by the first write only


def test_rerun_failing_a_write_keeps_the_previous_manifest(sweep_out, monkeypatch):
    # No file is renamed until every one is written, so the previous manifest
    # still vouches for the previous files, every one of them unchanged.
    config, _ = sweep_out
    before = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(evaluator, "write_preds_csv", fail)
    with pytest.raises(OSError):
        run_sweep_pipeline(replace(config, shift=replace(config.shift, master_seed=6)))
    assert {p.name: p.read_bytes() for p in config.out_dir.iterdir()} == before
    for name, entry in json.loads(before["manifest.json"])["files"].items():
        assert entry == {"bytes": len(before[name]), "crc32": zlib.crc32(before[name])}, name


def test_sweep_memory_does_not_hold_the_pool(tmp_path):
    """From n_ood_test = N to 4N a resident pool would add 3N * d_total * 8
    bytes to the sweep's peak; the streamed pass adds less than a quarter."""
    n = harness._BLOCK_ROWS

    def peak(n_ood_test):
        config = tiny_config(tmp_path / str(n_ood_test), d_spu=138, n_ood_test=n_ood_test)
        tracemalloc.start()
        try:
            run_sweep_pipeline(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * n) - peak(n) < 3 * n * 150 * 8 / 4


def test_sweep_releases_the_training_split_before_the_pool_pass(tmp_path, monkeypatch):
    generate, evaluate_snapshots = datagen.generate, evaluator.evaluate_snapshots
    train = []

    def generated(spec, split="train"):
        dataset = generate(spec, split)
        if split == "train":
            train.append(weakref.ref(dataset))
        return dataset

    def scored(*args):
        assert len(train) == 1 and train[0]() is None, "the training split is still held"
        return evaluate_snapshots(*args)

    monkeypatch.setattr(datagen, "generate", generated)
    monkeypatch.setattr(evaluator, "evaluate_snapshots", scored)
    config = tiny_config(tmp_path)
    run_sweep_pipeline(config)
    # the sweep writes no train.csv; gen-data rebuilds the split from the config
    run_gen_data(config)
    assert read_dataset_csv(config.out_dir / "train.csv").n_rows == config.shift.n_train


def test_agreement_memory_holds_one_bit_per_prediction(tmp_path):
    """From n_ood_test = N to 4N a bool prediction matrix would add
    3N * n_models bytes to agreement's peak; packed bits add an eighth of
    that, and everything agreement holds per pool row stays within a quarter."""
    n = harness._BLOCK_ROWS
    configs = []
    for n_ood_test in (n, 4 * n):
        config = tiny_config(tmp_path / str(n_ood_test), n_ood_test=n_ood_test)
        # 600 full-batch models from 30 trainings: many prediction rows, cheaply
        config = replace(config, grid=replace(config.grid, batch_sizes=("full",),
                                              snapshot_epochs=tuple(range(1, 11)),
                                              n_seeds=20))
        run_sweep_pipeline(config)
        configs.append(config)
    n_models = configs[0].grid.n_snapshots
    assert n_models == 600

    def peak(config):
        tracemalloc.start()
        try:
            run_agreement_pipeline(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_agreement_pipeline(configs[0])  # one-time allocations stay out of the peaks
    assert peak(configs[1]) - peak(configs[0]) < 3 * n * n_models / 4


def test_gen_data_streams_the_bytes_of_whole_splits(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_ROWS", 7)
    config = tiny_config(tmp_path)
    for path in run_gen_data(config)[:3]:
        ref = tmp_path / f"ref_{path.name}"
        write_dataset_csv(generate(config.shift, path.stem), ref)
        assert path.read_bytes() == ref.read_bytes(), path.name


@pytest.mark.parametrize("shift_kw", [
    {}, {"p_maj": None, "pi1": 0.9, "pi0": 0.3, "r_ts": (0.3, 0.7)},
    {"p_maj": None, "k_groups": 3, "r_tr": (0.6, 0.3, 0.1)},
], ids=["majority", "attribute", "kgroup"])
def test_gen_data_rebuilds_the_splits_a_sweep_uses(tmp_path, shift_kw):
    # A sweep writes no dataset CSV: gen-data on its config writes the
    # training split it trained on and the pool its manifest counts.
    config = tiny_config(tmp_path, **shift_kw)
    run_sweep_pipeline(config)
    assert not any((config.out_dir / f"{split}.csv").exists() for split in datagen.SPLITS)
    run_gen_data(config)
    for split in ("train", "ood_test"):
        ref = tmp_path / f"ref_{split}.csv"
        write_dataset_csv(generate(config.shift, split), ref)
        assert (config.out_dir / f"{split}.csv").read_bytes() == ref.read_bytes(), split
    pool = read_dataset_csv(config.out_dir / "ood_test.csv", split="ood_test")
    labels, groups, _ = datagen.row_layout(config.shift, "ood_test")
    assert pool.labels.tobytes() == labels.tobytes()
    assert pool.groups.tobytes() == groups.tobytes()
    counts = load_json(config.out_dir / "manifest.json")["ood_test_counts"]
    assert counts == [[int(np.sum((pool.groups == g) & (pool.labels == y))) for y in (1, -1)]
                      for g in range(config.shift.k_groups)]


def test_sweep_after_gen_data_leaves_its_files_out_and_intact(tmp_path):
    # gen-data and a sweep share one [output] dir.
    config = tiny_config(tmp_path)
    paths = run_gen_data(config)
    written = {path.name: path.read_bytes() for path in paths}
    run_sweep_pipeline(config)
    assert {path.name: path.read_bytes() for path in paths} == written
    assert not set(written) & set(load_json(config.out_dir / "manifest.json")["files"])
    alone = replace(config, out_dir=tmp_path / "alone")
    run_sweep_pipeline(alone)
    assert ((config.out_dir / "manifest.json").read_bytes()
            == (alone.out_dir / "manifest.json").read_bytes())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_failed_gen_data_keeps_the_previous_set_whole(tmp_path, monkeypatch, k):
    # The k-th of the second run's four writes completes, then fails: no
    # file of that run is renamed into place, and no temp file is left.
    config = tiny_config(tmp_path, master_seed=1)
    first = {path.name: path.read_bytes() for path in run_gen_data(config)}
    calls = []

    def failing_at_k(write):
        def wrapped(*args):
            write(*args)
            calls.append(write)
            if len(calls) == k:
                raise OSError("disk full")
        return wrapped

    monkeypatch.setattr(datagen, "write_dataset_csv", failing_at_k(datagen.write_dataset_csv))
    monkeypatch.setattr(datagen, "write_spec_file", failing_at_k(datagen.write_spec_file))
    with pytest.raises(OSError, match="disk full"):
        run_gen_data(config.with_overrides(master_seed=2))
    assert len(calls) == k
    assert {path.name: path.read_bytes() for path in config.out_dir.iterdir()} == first


def test_gen_data_writes_three_splits_and_spec(tmp_path):
    config = tiny_config(tmp_path)
    paths = run_gen_data(config)
    names = [p.name for p in paths]
    assert names == ["train.csv", "id_test.csv", "ood_test.csv", "spec.txt"]
    train = read_dataset_csv(config.out_dir / "train.csv")
    assert train.n_rows == 300


def test_series_single_value_equals_sweep(tmp_path):
    config = tiny_config(tmp_path)
    summary = run_spurious_series(config, "sdr", [4 / 12])
    assert len(summary["sweeps"]) == 1
    sub_dir = config.out_dir / summary["sweeps"][0]["out_dir"].split("/")[-1]
    direct = tiny_config(tmp_path)
    direct = direct.with_overrides(out_dir=tmp_path / "direct")
    run_sweep_pipeline(direct)
    assert (sub_dir / "results.csv").read_bytes() == \
        (tmp_path / "direct" / "results.csv").read_bytes()


def test_series_validates_knob_and_order(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(ConfigError):
        run_spurious_series(config, "noise", [0.1, 0.2])
    with pytest.raises(ConfigError):
        run_spurious_series(config, "sdr", [0.3, 0.1])
    with pytest.raises(ConfigError):
        run_spurious_series(config, "correlation_level", [0.0, 0.5])  # majority base


def test_series_summary_json(tmp_path):
    config = tiny_config(tmp_path)
    run_spurious_series(config, "p_maj", [0.7, 0.9])
    data = load_json(config.out_dir / "series.json")
    assert data["knob"] == "p_maj"
    assert data["values"] == [0.7, 0.9]
    assert len(data["sweeps"]) == 2
    assert all("curvature" in row for row in data["sweeps"])


def test_failed_series_leaves_no_stale_summary(tmp_path, monkeypatch):
    # A rerun at another seed finishes both sweeps and fails writing the
    # summary: the old series.json would report the first seed's curvatures
    # next to the second seed's report.json files.
    config = tiny_config(tmp_path, master_seed=1)
    run_spurious_series(config, "sdr", [0.25, 0.5])
    dump_json = analysis.dump_json

    def fail_on_summary(obj, path):
        if path.name == "series.json.tmp":
            raise OSError("disk full")
        dump_json(obj, path)

    monkeypatch.setattr(analysis, "dump_json", fail_on_summary)
    with pytest.raises(OSError, match="disk full"):
        run_spurious_series(config.with_overrides(master_seed=2), "sdr", [0.25, 0.5])
    assert not (config.out_dir / "series.json").exists()
    for sub in ("sdr_0p25", "sdr_0p5"):
        files = load_json(config.out_dir / sub / "manifest.json")["files"]
        for name, entry in files.items():
            data = (config.out_dir / sub / name).read_bytes()
            assert entry == {"bytes": len(data), "crc32": zlib.crc32(data)}, (sub, name)


def test_agreement_requires_sweep_outputs(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(MissingInputsError):
        run_agreement_pipeline(config)


def test_agreement_pipeline_outputs(sweep_out):
    config, _ = sweep_out
    out = run_agreement_pipeline(config)
    assert (config.out_dir / "agreement.csv").exists()
    assert (config.out_dir / "agreement_overlay.svg").exists()
    report = load_json(config.out_dir / "agreement_report.json")
    assert report["n_pairs"] == 80
    assert out.agreement_points.shape == (80, 2)
    # agreement values are valid fractions
    lines = (config.out_dir / "agreement.csv").read_text().splitlines()[1:]
    vals = [float(line.split(",")[2]) for line in lines]
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_agreement_single_pair_warns_without_spline(sweep_out):
    config, _ = sweep_out
    with pytest.warns(UserWarning):
        out = run_agreement_pipeline(config.with_overrides(n_pairs=1))
    assert out.verdict["verdict"] == "insufficient-points"
    assert out.agreement_points.shape == (1, 2)


def test_agreement_checks_disjoint_ranges_before_fitting(tmp_path, monkeypatch):
    config = tiny_config(tmp_path, master_seed=1)  # whose clouds do not overlap in x
    run_sweep_pipeline(config)
    fits = []

    class CountedSpline(analysis.SmoothingSpline):
        def __init__(self, *args, **kwargs):
            fits.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "SmoothingSpline", CountedSpline)
    out = run_agreement_pipeline(config)
    assert out.verdict["verdict"] == "disjoint-ranges"
    assert len(fits) == 0


def test_agreement_reason_names_the_first_cloud_short_of_knots(sweep_out):
    config, _ = sweep_out
    with pytest.warns(UserWarning, match="got 1$"):
        out = run_agreement_pipeline(config.with_overrides(n_pairs=1))
    assert out.verdict["reason"] == "smoothing spline needs >= 5 distinct x values, got 1"
    with pytest.raises(AnalysisError, match=out.verdict["reason"]):
        analysis.SmoothingSpline(out.agreement_points[:, 0], out.agreement_points[:, 1])


@pytest.mark.parametrize("gap,verdict,aligned", [
    (0.05, "agreement-overestimates", False),
    (0.025, "agreement-overestimates", True),  # above the margin comes first
    (0.01, "aligned", True),
    (-0.03, "aligned", True),
    (-0.05, "mixed", False),
])
def test_agreement_verdict_follows_the_spline_gap(sweep_out, monkeypatch, gap, verdict, aligned):
    # flat splines: the accuracy cloud's at 0, then the agreement cloud's at ``gap``
    config, _ = sweep_out
    levels = iter([0.0, gap])

    class FlatSpline:
        lam = 1.0

        def __init__(self, x, y, lam=None):
            self.level = next(levels)

        def predict(self, xs):
            return np.full(len(xs), self.level)

    monkeypatch.setattr(analysis, "SmoothingSpline", FlatSpline)
    report = run_agreement_pipeline(config).verdict
    assert (report["verdict"], report["aligned"]) == (verdict, aligned)
    assert report["overestimates"] == (verdict == "agreement-overestimates")
    assert report["max_abs_gap"] == abs(gap)


def test_agreement_pipeline_deterministic(sweep_out):
    config, _ = sweep_out
    a = run_agreement_pipeline(config)
    bytes_a = (config.out_dir / "agreement.csv").read_bytes()
    b = run_agreement_pipeline(config)
    assert (config.out_dir / "agreement.csv").read_bytes() == bytes_a
    assert np.array_equal(a.agreement_points, b.agreement_points)


def test_agreement_is_at_least_the_accuracy_bound(sweep_out):
    # Two models agree at least where both are right: a_ij >= acc_i + acc_j - 1.
    config, out = sweep_out
    run_agreement_pipeline(config.with_overrides(n_pairs=300))
    pool = generate(config.shift, "ood_test")  # the pool the sweep scored
    acc = {r.model_id: float(np.mean(r.predict(pool.features) == pool.labels))
           for r in out.records}
    d = config.out_dir
    rows = [line.split(",") for line in (d / "agreement.csv").read_text().splitlines()[1:]]
    assert len(rows) == 300
    for a, b, agreement in rows:
        assert float(agreement) >= acc[a] + acc[b] - 1.0 - 1e-11


def test_overlay_cells_majority_mode(tmp_path):
    config = tiny_config(tmp_path)
    from shiftlab.datagen import generate
    test_pool = generate(config.shift, "ood_test")
    masks, w_id, w_ood = overlay_cells(config.shift, test_pool.labels, test_pool.groups)
    assert w_id == (1 - 0.9, 0.9)
    assert w_ood == (0.5, 0.5)
    assert np.array_equal(masks[1], test_pool.groups == 1)


def test_overlay_cells_attribute_mode_uses_alignment(tmp_path):
    from shiftlab.datagen import generate
    spec = ShiftSpec(d_core=12, d_spu=4, sigma_core=4.0, sigma_spu=1.0,
                     n_train=300, pi1=0.9, pi0=0.3, n_ood_test=1500, master_seed=5)
    pool = generate(spec, "ood_test")
    masks, w_id, w_ood = overlay_cells(spec, pool.labels, pool.groups)
    # train alignment fraction: pi1*p_y1 + (1-pi0)*(1-p_y1) = 0.45 + 0.35
    assert w_id == pytest.approx((0.2, 0.8), abs=1e-12)
    assert w_ood == (0.5, 0.5)
    aligned = (2 * pool.groups - 1) * pool.labels > 0
    assert np.array_equal(masks[1], aligned)


def test_moon_axis_groups():
    spec = ShiftSpec(d_core=4, d_spu=1, sigma_core=1.0, sigma_spu=1.0,
                     n_train=100, p_maj=0.8, master_seed=0)
    assert moon_axis_groups(spec) == (1, 0)
    spec_k = ShiftSpec(d_core=4, d_spu=1, sigma_core=1.0, sigma_spu=1.0,
                       n_train=100, p_maj=None, k_groups=3,
                       r_tr=(0.2, 0.7, 0.1), master_seed=0)
    assert moon_axis_groups(spec_k) == (1, 2)


def test_pipeline_with_three_groups(tmp_path):
    spec = ShiftSpec(d_core=10, d_spu=4, sigma_core=3.0, sigma_spu=1.0,
                     n_train=600, p_maj=None, k_groups=3,
                     r_tr=(0.6, 0.3, 0.1), n_ood_test=1500, master_seed=8)
    config = ExperimentConfig(
        shift=spec,
        grid=GridSpec(learning_rates=(1e-2,), l2s=(0.0,), batch_sizes=(32,),
                      snapshot_epochs=(1, 4), n_seeds=2),
        out_dir=tmp_path / "k3")
    out = run_sweep_pipeline(config)
    header = (config.out_dir / "results.csv").read_text().splitlines()[0]
    assert "group_acc_2" in header and "tpr_2" in header
    assert all(len(ev.group_acc) == 3 for ev in out.evals)
    # moon axes follow the training mixture: majority group 0, minority group 2
    assert out.points.shape == (len(out.evals), 2)


def test_sample_pairs_properties():
    pairs = sample_pairs(10, 20, seed=3)
    assert len(pairs) == 20
    assert len(set(pairs)) == 20
    assert all(0 <= i < j < 10 for i, j in pairs)
    assert pairs == sample_pairs(10, 20, seed=3)
    assert sample_pairs(10, 20, seed=4) != pairs
    # requesting at least the total enumerates every pair
    all_pairs = sample_pairs(5, 100, seed=0)
    assert len(all_pairs) == 10


def _reference_pair(index, n):
    """Flat index in [0, n(n-1)/2) to the (i < j) pair, one row at a time."""
    i, row = 0, n - 1
    while index >= row:
        index -= row
        i += 1
        row -= 1
    return i, i + 1 + index


def test_sample_pairs_match_flat_index_reference():
    for n_models, n_pairs, seed in ((2, 1, 0), (7, 21, 1), (36, 150, 9), (211, 500, 3)):
        total = n_models * (n_models - 1) // 2
        rng = np.random.default_rng(seed)
        picks = (np.arange(total) if n_pairs >= total else
                 np.sort(rng.choice(total, size=n_pairs, replace=False)))
        expected = [_reference_pair(int(k), n_models) for k in picks]
        assert sample_pairs(n_models, n_pairs, seed) == expected
    assert sample_pairs(1, 5, 0) == []


def test_sample_pairs_memory_does_not_grow_with_all_pairs():
    """1,050 models have 550,725 pairs: two int64 arrays of them take 8.8 MB,
    while drawing 500 needs only the 1,050 row starts and the draw itself."""
    sample_pairs(1050, 500, 0)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        pairs = sample_pairs(1050, 500, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 500
    assert peak < 1_000_000


def test_agreement_matches_per_pair_reference(sweep_out, tmp_path):
    # 150 pairs span two full chunks of 64 and a partial one.
    config, swept = sweep_out
    out = run_agreement_pipeline(config.with_overrides(n_pairs=150, pair_seed=17))
    d = config.out_dir
    pool = generate(config.shift, "ood_test")  # the pool the sweep scored
    ids = [r.model_id for r in swept.records]
    preds = {r.model_id: r.predict(pool.features) for r in swept.records}
    masks, w_id, w_ood = overlay_cells(config.shift, pool.labels, pool.groups)

    def reweight(values):
        means = [float(np.mean(values[m])) for m in masks]
        return (sum(w * v for w, v in zip(w_id, means)),
                sum(w * v for w, v in zip(w_ood, means)))

    acc = np.array([reweight(preds[mid] == pool.labels) for mid in ids])
    records, agr = [], []
    for i, j in sample_pairs(len(ids), 150, 17):
        match = preds[ids[i]] == preds[ids[j]]
        agr.append(reweight(match))
        records.append(evaluator.AgreementRecord(ids[i], ids[j], float(np.mean(match))))
    assert np.array_equal(out.accuracy_points, acc)
    assert np.array_equal(out.agreement_points, np.array(agr))
    evaluator.write_agreement_csv(records, tmp_path / "reference.csv")
    assert (d / "agreement.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
