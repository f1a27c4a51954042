"""Experiment pipelines: generate, sweep, evaluate, analyze, render.

A sweep trains on the training split in memory and releases it, then makes
one pass over the OOD pool in blocks of ``_BLOCK_ROWS`` rows: each block is
drawn and predicted for every snapshot, so the pool's feature matrix never
exists whole and its predictions are kept as one bit per row and distinct
snapshot, counted once the pass ends.  A sweep writes only what its config
alone cannot rebuild: both splits are functions of the ``[shift]`` section,
and ``gen-data`` writes them.
Every command writes its files through ``commit``: all to temp names by each
format's one writer, then renamed, the set's marker last.  So a failed write
leaves the previous set as it was, a failed rename no marker over a mixed set,
and a rerun of one configuration identical bytes.  ``commit`` also makes the
directory, so a command that fails before it leaves no directory behind.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, datagen, evaluator, svg, trainer
from .config import AnalysisOptions, ExperimentConfig, SeriesSpec
from .datagen import ShiftSpec
from .errors import ConfigError, InvalidSpecError, MissingInputsError
from .rng import derive_stream

SWEEP_ARTIFACTS = ("models.csv", "weights.csv", "results.csv", "preds.csv",
                   "report.json", "moon.svg", "manifest.json")


# Rows per block of a split streamed from generation to its file or, for a
# sweep's OOD pool, to scoring: 0.6 MB of features at 150 columns.  A block is
# only predicted and packed, one GEMM and one pack per chunk of snapshots,
# and the packed bits do not depend on it: a block's trailing rows % 8
# decisions are carried into the next block's bytes.
_BLOCK_ROWS = 512


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def commit(files: dict, stale: tuple[Path, ...] = ()) -> None:
    """Run each ``files[path](tmp)`` into ``<name>.tmp``, in order (a writer may
    also fill a later path's), then remove the marker, the last path, when
    files precede it, and each ``stale`` path, and rename every file into
    place, the marker last.  Whatever fails, no ``.tmp`` file is left behind."""
    *others, marker = files
    try:
        for path, writer in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            writer(_tmp(path))
        # The marker must not vouch for a mix; a lone file's one rename is atomic.
        for path in (marker, *stale) if others else stale:
            path.unlink(missing_ok=True)
        for path in files:
            os.replace(_tmp(path), path)
    finally:
        for path in files:
            if _tmp(path).exists():
                _tmp(path).unlink()


def _atomic(path: Path, writer) -> None:
    """``commit`` of one file, under the name ``perfbench/spans.py`` traces."""
    commit({path: writer})


def check_out_dir(out_dir: Path) -> None:
    """NotADirectoryError unless the nearest existing one of ``out_dir`` and its
    ancestors is a directory; run before compute, it creates nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"not a directory: {existing}")


def _atomic_text(path: Path, text: str) -> None:
    """Unused by the pipelines; kept while ``perfbench/spans.py`` traces it."""
    _atomic(path, lambda p: p.write_text(text))


def _file_entry(path: Path) -> dict:
    """Byte size and CRC-32 (``zlib.crc32``) of a file, read 1 MB at a time."""
    size = crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
    return {"bytes": size, "crc32": crc}


def _write_manifest(paths: list[Path], spec: ShiftSpec, tmp: Path) -> None:
    """``manifest.json`` into ``tmp``: each of ``paths``' size and CRC-32, read
    from its temp file, and the OOD pool's ``[positives, negatives]`` per group.

    A sweep's marker: it removes the previous one at the start of its rename
    phase, so a sweep directory holds a complete artifact set exactly when its
    manifest verifies."""
    files = {path.name: _file_entry(_tmp(path)) for path in paths}
    counts = [list(cell) for cell in spec.group_label_counts("ood_test")]
    analysis.dump_json({"files": files, "ood_test_counts": counts}, tmp)


def _read_preds(config: ExperimentConfig, n_rows: int) -> tuple[list[str], np.ndarray]:
    """Model IDs and packed bits of the sweep's ``preds.csv`` over ``n_rows`` pool
    rows.  MissingInputsError if it or ``manifest.json`` is absent.
    InvalidSpecError naming the manifest if it is not JSON, lacks an entry, or
    gives pool counts other than the config's (the bits follow ``row_layout``'s
    rows), and naming ``preds.csv`` on a size or CRC-32 mismatch."""
    out_dir = config.out_dir
    path, manifest = out_dir / "preds.csv", out_dir / "manifest.json"
    for p in (path, manifest):
        if not p.exists():
            raise MissingInputsError(f"{p.name} not found in {out_dir}; run the sweep first")
    expected = [list(cell) for cell in config.shift.group_label_counts("ood_test")]
    what = "ood_test_counts"
    try:
        entries = json.loads(manifest.read_text())
        if entries[what] != expected:
            raise InvalidSpecError(f"{manifest}: the OOD pool's [positives, negatives] per "
                                   f"group {entries[what]} differ from the config's {expected}")
        what = path.name
        size, crc = (int(entries["files"][what][key]) for key in ("bytes", "crc32"))
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidSpecError(f"{manifest}: no valid entry for {what} ({exc!r})") from exc
    found_size = path.stat().st_size
    if found_size != size:
        raise InvalidSpecError(f"{path}: {found_size} bytes differ from "
                               f"{size} in the sweep's manifest.json")
    model_ids, packed, found_crc = evaluator.read_preds_matrix(path, n_rows)
    if found_crc != crc:
        raise InvalidSpecError(f"{path}: CRC-32 {found_crc:08x} differs from "
                               f"{crc:08x} in the sweep's manifest.json")
    return model_ids, packed


def moon_axis_groups(spec: ShiftSpec) -> tuple[int, int]:
    """(majority, minority) group indexes used for 2-D curve analysis."""
    if spec.k_groups == 2:
        return 1, 0
    w = spec.train_weights()
    return int(np.argmax(w)), int(np.argmin(w))


@dataclass
class SweepOutputs:
    records: list[trainer.ModelRecord]
    evals: list[evaluator.EvalRecord]
    report: analysis.CurveReport
    points: np.ndarray  # (n_models, 2) majority/minority accuracies
    out_dir: Path


def _moon_points(spec: ShiftSpec, evals: list[evaluator.EvalRecord]) -> np.ndarray:
    maj_g, min_g = moon_axis_groups(spec)
    return np.array([[ev.group_acc[maj_g], ev.group_acc[min_g]] for ev in evals])


def write_moon_svg(points: np.ndarray, report: analysis.CurveReport, path: Path) -> None:
    """``moon.svg`` at ``path``: the (majority, minority) points with the
    quadratic fit and, when there is one, the smoothing spline over their x range."""
    xs = np.linspace(float(points[:, 0].min()), float(points[:, 0].max()), 101)
    q = report.quad_fit
    fits = [("quadratic fit", q.beta0 + q.beta1 * xs + q.beta2 * xs * xs, "#d62728")]
    if report.spline is not None:
        fits.append(("smoothing spline", report.spline.predict(xs), "#2ca02c"))
    overlays = [svg.Overlay(label, list(zip(xs.tolist(), ys.tolist())), color)
                for label, ys, color in fits]
    style = svg.PlotStyle(title=f"model sweep ({len(points)} snapshots)")
    svg.emit_plot(points.tolist(), overlays, style, path)


def run_sweep_pipeline(config: ExperimentConfig) -> SweepOutputs:
    """Generate data, train the grid, evaluate, fit curves, emit artifacts."""
    spec = config.shift
    out_dir = config.out_dir
    check_out_dir(out_dir)

    # The training split is held only while the grid trains.
    result = trainer.sweep(datagen.generate(spec, "train"),
                           config.grid.build(spec.master_seed))
    if not result.records:
        raise trainer.DivergenceError(0, "every grid cell diverged")

    evals, pred_rows = evaluator.evaluate_snapshots(
        result.records, datagen.generate_blocks(spec, "ood_test", _BLOCK_ROWS),
        spec.train_weights(), spec.ood_weights())
    points = _moon_points(spec, evals)
    report = analysis.fit_curves(points, probit_eps=config.analysis.probit_eps,
                                 spline_lambda=config.analysis.spline_lambda)
    files = {**_model_store(result.records, out_dir),
             out_dir / "results.csv": lambda p: evaluator.write_results_csv(
                 list(zip(result.records, evals)), p),
             out_dir / "preds.csv": lambda p: evaluator.write_preds_csv(pred_rows, p),
             out_dir / "report.json": lambda p: analysis.dump_json(report.to_dict(), p),
             out_dir / "moon.svg": lambda p: write_moon_svg(points, report, p)}
    if result.failures:
        files[out_dir / "failures.csv"] = lambda p: trainer.write_failures_csv(result.failures, p)
    listed = list(files)
    files[out_dir / "manifest.json"] = lambda p: _write_manifest(listed, spec, p)
    # A previous run's failures.csv may name cells this run did not fail.
    commit(files, stale=(out_dir / "failures.csv",))

    return SweepOutputs(records=result.records, evals=evals,
                        report=report, points=points, out_dir=out_dir)


def _model_store(records, out_dir: Path) -> dict:
    """``commit`` entries: one ``trainer.write_model_store`` writes both temp files."""
    models, weights = out_dir / "models.csv", out_dir / "weights.csv"
    return {models: lambda p: trainer.write_model_store(records, p, _tmp(weights)),
            weights: lambda p: None}


def _write_model_store_atomic(records, out_dir: Path) -> None:
    """Unused by the pipelines; kept while ``perfbench/spans.py`` traces it."""
    commit(_model_store(records, out_dir))


# ---------------------------------------------------------------------------
# Knob series
# ---------------------------------------------------------------------------

def run_spurious_series(config: ExperimentConfig, knob: str,
                        values: list[float]) -> dict:
    """One sweep per knob value with a shared master seed; summarizes curvature."""
    if len(values) < 1:
        raise ConfigError("series needs at least one value")
    # Every value's spec is checked before the first sweep writes anything.
    config = replace(config, series=SeriesSpec(knob, tuple(values)))
    # A previous summary would report sweeps this run may not finish.
    (config.out_dir / "series.json").unlink(missing_ok=True)
    rows = []
    for value in values:
        out = run_sweep_pipeline(config.series_sweep(value))
        rows.append({
            "value": value,
            "out_dir": str(out.out_dir),
            "n_points": out.report.n_points,
            "curvature": out.report.curvature,
            "abs_curvature": abs(out.report.curvature),
            "curvature_se": out.report.quad_fit.se_beta2,
            "probit_r2": out.report.probit_fit.r2,
            "linear_r2": out.report.linear_fit.r2,
        })

    summary = {"knob": knob, "values": list(values), "sweeps": rows}
    _atomic(config.out_dir / "series.json", lambda p: analysis.dump_json(summary, p))
    return summary


# ---------------------------------------------------------------------------
# Agreement pipeline
# ---------------------------------------------------------------------------

def sample_pairs(n_models: int, n_pairs: int, seed: int) -> list[tuple[int, int]]:
    """Unordered (i < j) model pairs, drawn without replacement by flat index
    into the row-major list of all pairs; each index is mapped to its pair
    through the rows' start indexes, so the list itself is never built."""
    starts = np.concatenate([[0], np.cumsum(np.arange(n_models - 1, 0, -1))])
    total = int(starts[-1])
    rng = np.random.default_rng(seed)
    picks = (np.arange(total) if n_pairs >= total else
             np.sort(rng.choice(total, size=n_pairs, replace=False)))
    first = np.searchsorted(starts, picks, side="right") - 1
    second = picks - starts[first] + first + 1
    return list(zip(first.tolist(), second.tolist()))


# Verdict thresholds: the share of the common range where agreement must clear
# accuracy by ``margin``, and the widest gap at which the splines are aligned.
_OVERESTIMATE_SHARE = 0.8
_ALIGNMENT_BAND = 0.03


@dataclass
class AgreementOutputs:
    verdict: dict
    accuracy_points: np.ndarray
    agreement_points: np.ndarray


def overlay_cells(spec: ShiftSpec, labels: np.ndarray, groups: np.ndarray
                  ) -> tuple[list[np.ndarray], tuple[float, ...], tuple[float, ...]]:
    """Row masks and (ID, OOD) mixture weights for the agreement overlay, given
    the pool's per-row labels and groups.

    The overlay compares per-cell reweighted quantities between the training
    mixture (x axis) and the shifted mixture (y axis).  The cells are the
    subpopulations whose proportions actually shift: the dataset groups, except
    in attribute mode, where the within-group class balance is what changes
    and the shifting unit is the alignment cell (attribute equal to label
    versus opposite).  Attribute-group reweighting alone moves ID and OOD
    values by at most |r_ts - r_tr| * |acc_1 - acc_0|, which stays in the
    noise for these configurations.
    """
    if spec.mode == "attribute":
        aligned = ((2 * groups - 1) * labels) > 0
        w_id = spec.pi1 * spec.p_y1 + (1.0 - spec.pi0) * (1.0 - spec.p_y1)
        return [~aligned, aligned], (1.0 - w_id, w_id), (0.5, 0.5)
    masks = [groups == g for g in range(spec.k_groups)]
    return masks, spec.train_weights(), spec.ood_weights()


def run_agreement_pipeline(config: ExperimentConfig) -> AgreementOutputs:
    """Compare paired-model agreement with accuracy in (ID, OOD) coordinates.

    Requires a completed sweep in the config's output directory, and takes
    the pair count and seed from its ``[analysis]`` section.  Accuracy is
    agreement with the labels, so both clouds are counted and reduced alike:
    x reweights per-cell means by the training mixture, y by the shifted one.
    Cubic smoothing splines fitted to each cloud are compared over the
    common x range.
    """
    opts: AnalysisOptions = config.analysis
    out_dir = config.out_dir
    pair_seed = (opts.pair_seed if opts.pair_seed is not None
                 else derive_stream(config.shift.master_seed, 0x5052))

    labels, groups, _ = datagen.row_layout(config.shift, "ood_test")
    model_ids, packed = _read_preds(config, labels.size)
    masks, w_id, w_ood = overlay_cells(config.shift, labels, groups)
    cells, cell_rows = [np.packbits(m) for m in masks], [np.count_nonzero(m) for m in masks]

    def cloud(n: int, rows) -> tuple[np.ndarray, np.ndarray]:
        """(ID, OOD) reweighted cell means of ``n`` packed-row pairs and each pair's
        matching share of the pool; ``rows(s)`` gives pairs s to s + 64 as ``(a, b)``."""
        points, share = np.empty((n, 2)), np.empty(n)
        for s in range(0, n, 64):
            counts = evaluator.matching_counts(*rows(s), cells)
            means = [counts[:, i] / size for i, size in enumerate(cell_rows)]
            points[s:s + 64] = np.stack([sum(w * v for w, v in zip(w_id, means)),
                                         sum(w * v for w, v in zip(w_ood, means))], axis=1)
            # the cells partition the pool, so their counts add up to all its rows
            share[s:s + 64] = counts.sum(axis=1) / labels.size
        return points, share

    positive = np.packbits(labels == 1)
    acc_points, _ = cloud(len(model_ids), lambda s: (packed[s:s + 64], positive))
    pairs = sample_pairs(len(model_ids), opts.n_pairs, pair_seed)
    agr_points, agreement = cloud(len(pairs), lambda s: packed[np.array(pairs[s:s + 64]).T])
    agreement_records = [evaluator.AgreementRecord(model_ids[i], model_ids[j], a)
                         for (i, j), a in zip(pairs, agreement.tolist())]

    verdict: dict = {"n_pairs": len(pairs), "pair_seed": pair_seed, "margin": opts.margin,
                     "alignment_band": _ALIGNMENT_BAND}
    # Both clouds' knot counts, then their x ranges, are checked before any fit.
    shortfall = (analysis.spline_shortfall(acc_points[:, 0])
                 or analysis.spline_shortfall(agr_points[:, 0]))
    overlays = []
    if shortfall:
        warnings.warn(f"agreement overlay spline skipped: {shortfall}")
        verdict.update(verdict="insufficient-points", reason=shortfall)
    else:
        lo = max(float(acc_points[:, 0].min()), float(agr_points[:, 0].min()))
        hi = min(float(acc_points[:, 0].max()), float(agr_points[:, 0].max()))
        if hi <= lo:
            verdict["verdict"] = "disjoint-ranges"
        else:
            acc_spline, agr_spline = (analysis.SmoothingSpline(
                points[:, 0], points[:, 1], lam=opts.spline_lambda)
                for points in (acc_points, agr_points))
            xs = np.linspace(lo, hi, 101)
            acc_ys, agr_ys = acc_spline.predict(xs), agr_spline.predict(xs)
            gap = agr_ys - acc_ys
            above = float(np.mean(gap >= opts.margin))
            max_abs = float(np.max(np.abs(gap)))
            verdict.update({
                "common_range": [lo, hi],
                "lambda_accuracy": acc_spline.lam,
                "lambda_agreement": agr_spline.lam,
                "fraction_above_margin": above,
                "mean_gap": float(np.mean(gap)),
                "max_abs_gap": max_abs,
                "overestimates": above >= _OVERESTIMATE_SHARE,
                "aligned": max_abs <= _ALIGNMENT_BAND,
            })
            verdict["verdict"] = ("agreement-overestimates" if verdict["overestimates"]
                                  else "aligned" if verdict["aligned"] else "mixed")
            overlays = [svg.Overlay(label, list(zip(xs.tolist(), ys.tolist())), color)
                        for label, ys, color in (("accuracy spline", acc_ys, "#1f77b4"),
                                                 ("agreement spline", agr_ys, "#d62728"))]

    style = svg.PlotStyle(title="accuracy vs agreement", x_label="ID value",
                          y_label="OOD value", point_color="#1f77b4")

    commit({out_dir / "agreement.csv": lambda p: evaluator.write_agreement_csv(
                agreement_records, p),
            out_dir / "agreement_overlay.svg": lambda p: svg.emit_plot(
                acc_points.tolist(), overlays, style, p,
                extra_groups=[(agr_points.tolist(), "#d62728", "agreement pairs")]),
            out_dir / "agreement_report.json": lambda p: analysis.dump_json(verdict, p)})

    return AgreementOutputs(verdict=verdict, accuracy_points=acc_points, agreement_points=agr_points)


def run_gen_data(config: ExperimentConfig) -> list[Path]:
    """Commit train / id_test / ood_test CSVs plus the resolved spec file,
    ``spec.txt`` last as the set's marker."""
    spec = config.shift
    files = {config.out_dir / f"{split}.csv": lambda p, split=split:
             datagen.write_dataset_csv(datagen.generate_blocks(spec, split, _BLOCK_ROWS), p)
             for split in datagen.SPLITS}
    files[config.out_dir / "spec.txt"] = lambda p: datagen.write_spec_file(spec, p)
    commit(files)
    return list(files)
