"""Per-subpopulation evaluation, model mixtures, and the sweep's CSV files.

Evaluation runs once against a single group-balanced test pool; the
in-distribution and shifted views are reweightings of the same per-group
accuracies:

    id_acc  = sum_g r_tr[g] * group_acc[g]
    ood_acc = sum_g r_ts[g] * group_acc[g]

so the two views differ only through the mixture weights, never through
sampling noise.

A sweep's snapshots are scored together in one pass over the pool, one
block of rows at a time: each chunk of at most 16 distinct weight vectors is
one GEMM per block, thresholded and packed, and the block's (group, label)
cell masks are packed alongside.  Every count is taken once, after the pass.
A GEMM may round a decision value differently from one model's GEMV, so, as
for training, prediction bytes are promised per machine and BLAS kernel.

Predictions are held packed, one bit per pool row (``np.packbits`` order:
row 0 in the high bit of byte 0, zero bits padding the last byte), from
scoring to the agreement counts; ``preds.csv`` holds them as hex.  Every
count, of correct rows and of agreeing pairs alike, is a popcount of
``~(a ^ b) & cell`` over packed rows (``matching_counts``).
"""

from __future__ import annotations

import csv
import os
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .datagen import Dataset, check_mixture, check_unquoted, format_sig
from .errors import DimensionMismatchError, EmptyGroupError, InvalidSpecError
from .trainer import ModelRecord


@dataclass(frozen=True)
class EvalRecord:
    model_id: str
    group_acc: tuple[float, ...]
    tpr: tuple[float, ...]
    tnr: tuple[float, ...]
    id_acc: float
    ood_acc: float
    # Raw counts per group, kept so the accuracy decomposition can be checked
    # in exact integer arithmetic.  Absent for expectation-valued records
    # (exact-mode mixtures).
    n_pos: tuple[int, ...] | None = None
    n_neg: tuple[int, ...] | None = None
    correct_pos: tuple[int, ...] | None = None
    correct_neg: tuple[int, ...] | None = None

    @property
    def k_groups(self) -> int:
        return len(self.group_acc)


@dataclass(frozen=True)
class AgreementRecord:
    model_a: str
    model_b: str
    agreement: float


# Distinct snapshots per pool GEMM: bounds the decision block at 16 doubles a row.
_CHUNK = 16

# Set bits of each byte value; np.bitwise_count needs numpy >= 2.0.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

PREDS_HEADER = "model_id,packed_hex"


def _cell_masks(test: Dataset) -> np.ndarray:
    """``(2k x rows)`` bool masks of the (group, label) cells, labels in
    {-1, +1}: group 0's positives, group 0's negatives, group 1's positives
    and so on."""
    cell = 2 * test.groups + (test.labels != 1)
    return cell == np.arange(2 * test.k_groups)[:, None]


def _pool_counts(cells: np.ndarray, r_tr: tuple[float, ...], r_ts: tuple[float, ...]
                 ) -> tuple[np.ndarray, list[int], list[int]]:
    """The packed positive rows, the rows per group and the rows per cell of the
    packed ``_cell_masks`` ``cells``.  InvalidSpecError on bad mixture weights
    for the pool's groups, EmptyGroupError on a group with no rows."""
    totals = _POPCOUNT[cells].sum(axis=1, dtype=np.int64)
    sizes = (totals[0::2] + totals[1::2]).tolist()
    check_mixture(r_tr, len(sizes), "r_tr")
    check_mixture(r_ts, len(sizes), "r_ts")
    for g, n_g in enumerate(sizes):
        if n_g == 0:
            raise EmptyGroupError(f"group {g} has no rows in the test pool")
    return np.bitwise_or.reduce(cells[0::2], axis=0), sizes, totals.tolist()


def _record(model_id: str, correct: list[int], sizes: list[int],
            totals: list[int], r_tr: tuple[float, ...], r_ts: tuple[float, ...]
            ) -> EvalRecord:
    """One EvalRecord from integer counts; ``correct`` and ``totals`` hold
    (positive, negative) pairs per group."""
    n_pos, n_neg = totals[0::2], totals[1::2]
    c_pos, c_neg = correct[0::2], correct[1::2]
    group_acc = [(cp + cn) / n for cp, cn, n in zip(c_pos, c_neg, sizes)]
    tpr = [cp / n if n else float("nan") for cp, n in zip(c_pos, n_pos)]
    tnr = [cn / n if n else float("nan") for cn, n in zip(c_neg, n_neg)]
    id_acc = float(sum(w * a for w, a in zip(r_tr, group_acc)))
    ood_acc = float(sum(w * a for w, a in zip(r_ts, group_acc)))
    return EvalRecord(model_id=model_id, group_acc=tuple(group_acc), tpr=tuple(tpr),
                      tnr=tuple(tnr), id_acc=id_acc, ood_acc=ood_acc,
                      n_pos=tuple(n_pos), n_neg=tuple(n_neg),
                      correct_pos=tuple(c_pos), correct_neg=tuple(c_neg))


def evaluate_predictions(model_id: str, preds: np.ndarray, test: Dataset,
                         r_tr: tuple[float, ...], r_ts: tuple[float, ...]) -> EvalRecord:
    """Score fixed predictions (labels in {-1,+1}) against the test pool."""
    cells = np.packbits(_cell_masks(test), axis=1)
    positive, sizes, totals = _pool_counts(cells, r_tr, r_ts)
    correct = matching_counts(np.packbits(preds == 1), positive, cells).tolist()
    return _record(model_id, correct, sizes, totals, r_tr, r_ts)


def _predict_chunk(features: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``(rows x columns)`` bool block, True where x . w + b >= 0, for the
    stacked ``(features x columns)`` weights and their biases: one GEMM."""
    return features @ weights + bias >= 0.0


def evaluate_snapshots(records: list[ModelRecord], test: Dataset | Iterable[Dataset],
                       r_tr: tuple[float, ...], r_ts: tuple[float, ...]
                       ) -> tuple[list[EvalRecord], list[tuple[str, np.ndarray]]]:
    """Score every record against the test pool: its EvalRecord and its
    ``(model_id, packed)`` row, in record order.  ``packed`` holds one bit per
    pool row, set for +1, as ``np.packbits`` lays it out; records that share a
    snapshot share one ``packed`` array.

    ``test`` is the pool, or consecutive blocks of it as
    ``datagen.generate_blocks`` yields them; a whole pool is the one-block
    case.  Records sharing one weights array and bias (full-batch copies
    across seeds) are predicted once.  The distinct snapshots are stacked
    ``_CHUNK`` at a time once per pass, and each block is one GEMM per chunk;
    a block's decisions and its (group, label) cell masks are only packed,
    and every count is taken from the packed bits after the pass.  A block's
    last ``rows % 8`` bits are carried into the next block's bytes, so the
    bits do not depend on where the blocks end.
    """
    column: dict[tuple[int, float], int] = {}
    distinct: list[ModelRecord] = []
    for r in records:
        key = (id(r.weights), r.bias)
        if key not in column:
            column[key] = len(distinct)
            distinct.append(r)
    chunks = [distinct[start:start + _CHUNK] for start in range(0, len(distinct), _CHUNK)]

    # packed parts and carried tail of each chunk's rows, then of the cell masks
    stacked, parts, tails = None, [[] for _ in range(len(chunks) + 1)], []
    for block in [test] if isinstance(test, Dataset) else test:
        if stacked is None:
            for r in distinct:
                if r.weights.shape[0] != block.n_features:
                    raise DimensionMismatchError(
                        f"model {r.model_id} has {r.weights.shape[0]} weights, "
                        f"data has {block.n_features} features")
            stacked = [(np.stack([r.weights for r in chunk], axis=1),
                        np.array([r.bias for r in chunk])) for chunk in chunks]
            tails = [np.zeros((n, 0), bool) for n in [b.size for _, b in stacked]
                     + [2 * block.k_groups]]
        decisions = (_predict_chunk(block.features, w, b).T for w, b in stacked)
        for c, rows in enumerate(chain(decisions, [_cell_masks(block)])):
            pending = np.concatenate([tails[c], rows], axis=1)
            whole = pending.shape[1] - pending.shape[1] % 8
            parts[c].append(np.packbits(pending[:, :whole], axis=1))
            tails[c] = pending[:, whole:].copy()
    if stacked is None:
        raise EmptyGroupError("the test pool has no rows")

    def packed(c: int) -> np.ndarray:
        rows = np.concatenate([*parts[c], np.packbits(tails[c], axis=1)], axis=1)
        parts[c].clear()
        return rows

    cells = packed(-1)
    positive, sizes, totals = _pool_counts(cells, r_tr, r_ts)
    bits: list[np.ndarray] = []
    counts: list[list[int]] = []
    for c in range(len(chunks)):
        rows = packed(c)
        bits += list(rows)
        counts += matching_counts(rows, positive, cells).tolist()
    evals, pred_rows = [], []
    for r in records:
        j = column[(id(r.weights), r.bias)]
        evals.append(_record(r.model_id, counts[j], sizes, totals, r_tr, r_ts))
        pred_rows.append((r.model_id, bits[j]))
    return evals, pred_rows


def matching_counts(a: np.ndarray, b: np.ndarray, cells: list[np.ndarray]) -> np.ndarray:
    """``(rows x cells)`` counts of the bits where packed rows ``a`` and ``b``
    (either may be one row, broadcast) agree inside each packed cell mask:
    popcounts of ``~(a ^ b) & cell``.  A mask's zero padding bits keep the
    padding out of every count."""
    same = ~(a ^ b)
    return np.stack([_POPCOUNT[same & cell].sum(axis=-1, dtype=np.int64) for cell in cells],
                    axis=-1)


def evaluate(model: ModelRecord, test: Dataset, r_tr: tuple[float, ...],
             r_ts: tuple[float, ...]) -> EvalRecord:
    preds = model.predict(test.features)
    return evaluate_predictions(model.model_id, preds, test, r_tr, r_ts)


def model_mixture(model_a: ModelRecord, model_b: ModelRecord, p: float,
                  test: Dataset, r_tr: tuple[float, ...], r_ts: tuple[float, ...],
                  mode: str = "exact", seed: int = 0) -> EvalRecord:
    """Interpolate two classifiers with a biased coin of probability ``p``.

    ``exact`` returns the expectation directly: every accuracy field is
    p * (model_a value) + (1-p) * (model_b value), which traces the straight
    chord between the two models.  ``sampled`` flips one seeded coin per test
    row and scores the composite predictions.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidSpecError(f"mixture probability must be in [0,1], got {p}")
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        take_a = rng.random(test.n_rows) < p
        preds = np.where(take_a, model_a.predict(test.features),
                         model_b.predict(test.features))
        return evaluate_predictions(
            f"mix[{model_a.model_id}|{model_b.model_id}|p={format_sig(p)}|sampled]",
            preds, test, r_tr, r_ts)
    if mode != "exact":
        raise InvalidSpecError(f"unknown mixture mode {mode!r}")

    ra = evaluate(model_a, test, r_tr, r_ts)
    rb = evaluate(model_b, test, r_tr, r_ts)

    def mix(a, b):
        return tuple(p * x + (1.0 - p) * y for x, y in zip(a, b))

    return EvalRecord(
        model_id=f"mix[{model_a.model_id}|{model_b.model_id}|p={format_sig(p)}]",
        group_acc=mix(ra.group_acc, rb.group_acc), tpr=mix(ra.tpr, rb.tpr),
        tnr=mix(ra.tnr, rb.tnr),
        id_acc=p * ra.id_acc + (1.0 - p) * rb.id_acc,
        ood_acc=p * ra.ood_acc + (1.0 - p) * rb.ood_acc)


# ---------------------------------------------------------------------------
# Results / predictions files
# ---------------------------------------------------------------------------

def write_results_csv(records: list[tuple[ModelRecord, EvalRecord]],
                      path: str | Path) -> None:
    """One row per (model, evaluation) pair, in one write, every float at
    ``%.12g``; InvalidSpecError on a model ID ``csv.writer`` would quote."""
    if not records:
        raise InvalidSpecError("no evaluation records to write")
    check_unquoted((ev.model_id for _, ev in records), path)
    k = records[0][1].k_groups
    header = ["model_id", "epoch", "lr", "l2", "batch_size", "seed",
              *(f"{name}_{g}" for name in ("group_acc", "tpr", "tnr") for g in range(k)),
              "id_acc", "ood_acc"]
    values = tuple(v for model, ev in records for v in (
        ev.model_id, model.epoch, model.hyperparams.learning_rate, model.hyperparams.l2,
        model.hyperparams.batch_size, model.hyperparams.seed,
        *ev.group_acc, *ev.tpr, *ev.tnr, ev.id_acc, ev.ood_acc))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n"
                 + ("%s,%s,%.12g,%.12g,%s,%s" + ",%.12g" * (3 * k + 2) + "\n")
                 * len(records) % values)


def read_results_csv(path: str | Path, columns: tuple[str, ...] = ()) -> list[dict[str, str]]:
    """Rows of a results.csv; InvalidSpecError naming ``path`` if its header
    lacks one of ``columns``, a row's field count differs from the header's,
    or the file is not UTF-8 text that the csv module can parse."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise InvalidSpecError(f"{path} has no {missing[0]!r} column")
            rows = []
            for row in filter(None, reader):  # a blank line is no row
                if len(row) != len(header):
                    raise InvalidSpecError(f"{path}, line {reader.line_num}: {len(row)} fields "
                                           f"under a {len(header)}-field header")
                rows.append(dict(zip(header, row)))
            return rows
        except UnicodeDecodeError as exc:
            raise InvalidSpecError(f"{path} is not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise InvalidSpecError(f"{path}, line {reader.line_num}: {exc}") from exc


def predictions_bits(preds: np.ndarray) -> str:
    """'1' for +1 and '0' for -1, one character per test row."""
    return np.where(preds == 1, 49, 48).astype(np.uint8).tobytes().decode("ascii")


def bits_to_predictions(bits: str) -> np.ndarray:
    return np.where(np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"), 1, -1)


def write_preds_csv(rows: list[tuple[str, np.ndarray]], path: str | Path) -> None:
    """``model_id,packed_hex`` lines, one write per row: each packed row
    (``evaluate_snapshots``' rows) as lowercase hex, two digits a byte.  A
    model ID that ``csv.writer`` would quote raises InvalidSpecError instead."""
    check_unquoted((mid for mid, _ in rows), path)
    with open(path, "w", newline="") as fh:
        fh.write(PREDS_HEADER + "\n")
        for mid, packed in rows:
            fh.write(f"{mid},{packed.tobytes().hex()}\n")


def read_preds_csv(path: str | Path) -> dict[str, str]:
    """Unused by the pipelines; kept while ``perfbench/spans.py`` traces it."""
    with open(path, newline="") as fh:
        return {row["model_id"]: row["packed_hex"] for row in csv.DictReader(fh)}


def read_preds_matrix(path: str | Path, n_rows: int) -> tuple[list[str], np.ndarray, int]:
    """The model IDs in file order, their ``(models x ceil(n_rows / 8))``
    predictions packed as ``evaluate_snapshots`` packs them, and the CRC-32
    (``zlib.crc32``) of all the file's bytes, from one binary pass that decodes
    each line into a matrix allocated once, for as many rows as the file could
    hold, and returned cut to the rows read.  InvalidSpecError on a header
    other than ``PREDS_HEADER``, a row other than ``2 * ceil(n_rows / 8)``
    lowercase hex digits, or a pad bit set past row ``n_rows``."""
    width, pad = -(-n_rows // 8), (1 << (-n_rows % 8)) - 1
    ids: list[str] = []
    with open(path, "rb") as fh:
        header = fh.readline()
        crc = zlib.crc32(header)
        if header != PREDS_HEADER.encode() + b"\n":
            found = header[:80].decode(errors="replace").strip()
            raise InvalidSpecError(f"{path}: header {found!r} is not {PREDS_HEADER!r}")
        # each line holds at least a comma, the hex and a newline; the last may lack it
        capacity = (os.fstat(fh.fileno()).st_size - len(header) + 1) // (2 * width + 2)
        packed = np.zeros((capacity, width), dtype=np.uint8)
        for line in fh:
            crc = zlib.crc32(line, crc)
            mid, _, hexed = line.rstrip(b"\n").partition(b",")
            mid = mid.decode(errors="replace")
            if len(hexed) != 2 * width or hexed.translate(None, b"0123456789abcdef"):
                raise InvalidSpecError(f"{path}: model {mid!r}'s predictions are not "
                                       f"{2 * width} lowercase hex digits ({n_rows} rows)")
            packed[len(ids)] = row = np.frombuffer(bytes.fromhex(hexed.decode()), np.uint8)
            if pad and row[-1] & pad:
                raise InvalidSpecError(f"{path}: model {mid!r} sets a pad bit past row {n_rows}")
            ids.append(mid)
    return ids, packed[:len(ids)], crc


def write_agreement_csv(records: list[AgreementRecord], path: str | Path) -> None:
    """One row per pair, in one write, the agreement at ``%.12g``;
    InvalidSpecError on a model ID ``csv.writer`` would quote."""
    check_unquoted((mid for r in records for mid in (r.model_a, r.model_b)), path)
    values = tuple(v for r in records for v in (r.model_a, r.model_b, r.agreement))
    with open(path, "w", newline="") as fh:
        fh.write("model_a,model_b,agreement\n" + "%s,%s,%.12g\n" * len(records) % values)
