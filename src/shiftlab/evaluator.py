"""Per-subpopulation evaluation, model mixtures, and the sweep's CSV files.

Evaluation runs once against a single group-balanced test pool; the
in-distribution and shifted views are reweightings of the same per-group
accuracies:

    id_acc  = sum_g r_tr[g] * group_acc[g]
    ood_acc = sum_g r_ts[g] * group_acc[g]

so the two views differ only through the mixture weights, never through
sampling noise.

A sweep's snapshots are scored together, one block of pool rows at a time:
each chunk of at most 16 distinct weight vectors is one GEMM per block,
thresholded into a ``(rows x chunk)`` bool block whose per-(group, label)
counts are added up across blocks into every column's record.  A GEMM may
round a decision value differently from one model's GEMV, so, as for
training, prediction bytes are promised per machine and BLAS kernel.

Predictions are held packed, one bit per pool row (``np.packbits`` order:
row 0 in the high bit of byte 0, zero bits padding the last byte), from
scoring to ``preds.csv`` and back to the agreement counts, which are
popcounts of ``~(a ^ b) & cell`` over packed rows.
"""

from __future__ import annotations

import csv
import os
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset, format_sig
from .errors import DimensionMismatchError, EmptyGroupError, InvalidSpecError
from .trainer import FULL_BATCH, ModelRecord


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
    epoch: int = 0

    @property
    def k_groups(self) -> int:
        return len(self.group_acc)


@dataclass(frozen=True)
class AgreementRecord:
    model_a: str
    model_b: str
    agreement: float


def _check_weights(weights: tuple[float, ...], k: int, name: str) -> None:
    if len(weights) != k:
        raise InvalidSpecError(f"{name} must have {k} entries")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise InvalidSpecError(f"{name} must sum to 1")


# Distinct snapshots per pool GEMM: bounds the decision block at 16 doubles a row.
_CHUNK = 16

# Set bits of each byte value; np.bitwise_count needs numpy >= 2.0.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _group_cells(test: Dataset) -> tuple[list[np.ndarray], list[int], list[int]]:
    """The (positive, negative) row masks of each group in group order, the row
    count per group and the row count per mask."""
    sizes, cells = [], []
    for g in range(test.k_groups):
        idx = test.groups == g
        sizes.append(int(np.count_nonzero(idx)))
        cells += [idx & (test.labels == 1), idx & (test.labels == -1)]
    return cells, sizes, [int(np.count_nonzero(cell)) for cell in cells]


def _check_pool(sizes: list[int], r_tr: tuple[float, ...], r_ts: tuple[float, ...]) -> None:
    """InvalidSpecError on bad mixture weights for the pool's groups (``sizes``
    holds each group's rows), EmptyGroupError on a group with no rows."""
    _check_weights(r_tr, len(sizes), "r_tr")
    _check_weights(r_ts, len(sizes), "r_ts")
    for g, n_g in enumerate(sizes):
        if n_g == 0:
            raise EmptyGroupError(f"group {g} has no rows in the test pool")


def _column_counts(correct: np.ndarray, cells: list[np.ndarray]) -> np.ndarray:
    """Correct rows of each cell (columns), per column of a ``(rows x columns)``
    bool block (rows)."""
    return np.stack([np.count_nonzero(correct & cell[:, None], axis=0) for cell in cells],
                    axis=1)


def _record(model_id: str, epoch: int, correct: list[int], sizes: list[int],
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
                      correct_pos=tuple(c_pos), correct_neg=tuple(c_neg), epoch=epoch)


def evaluate_predictions(model_id: str, preds: np.ndarray, test: Dataset,
                         r_tr: tuple[float, ...], r_ts: tuple[float, ...],
                         epoch: int = 0) -> EvalRecord:
    """Score fixed predictions (labels in {-1,+1}) against the test pool."""
    cells, sizes, totals = _group_cells(test)
    _check_pool(sizes, r_tr, r_ts)
    correct = _column_counts((preds == test.labels)[:, None], cells)[0].tolist()
    return _record(model_id, epoch, correct, sizes, totals, r_tr, r_ts)


def _predict_chunk(features: np.ndarray, chunk: list[ModelRecord]) -> np.ndarray:
    """``(rows x len(chunk))`` bool block, True where w . x + b >= 0: one GEMM."""
    weights = np.stack([r.weights for r in chunk], axis=1)
    return features @ weights + np.array([r.bias for r in chunk]) >= 0.0


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
    across seeds) are predicted once.  The distinct snapshots are predicted
    ``_CHUNK`` at a time, one GEMM per chunk and block; only integer
    (group, label) counts and packed prediction bits are kept from block to
    block.  A block's last ``rows % 8`` decisions are carried into the next
    block's bytes, so the bits do not depend on where the blocks end.
    """
    column: dict[tuple[int, float], int] = {}
    distinct: list[ModelRecord] = []
    for r in records:
        key = (id(r.weights), r.bias)
        if key not in column:
            column[key] = len(distinct)
            distinct.append(r)
    chunks = [distinct[start:start + _CHUNK] for start in range(0, len(distinct), _CHUNK)]

    sizes = totals = counts = None
    packed: list[list[np.ndarray]] = [[] for _ in chunks]
    tails = [np.zeros((len(chunk), 0), dtype=bool) for chunk in chunks]
    for block in [test] if isinstance(test, Dataset) else test:
        cells, block_sizes, block_totals = _group_cells(block)
        if counts is None:
            for r in distinct:
                if r.weights.shape[0] != block.n_features:
                    raise DimensionMismatchError(
                        f"model {r.model_id} has {r.weights.shape[0]} weights, "
                        f"data has {block.n_features} features")
            sizes, totals = np.zeros(len(block_sizes), np.int64), np.zeros(len(cells), np.int64)
            counts = np.zeros((len(distinct), len(cells)), np.int64)
        sizes += block_sizes
        totals += block_totals
        positive = block.labels == 1
        for c, chunk in enumerate(chunks):
            ones = _predict_chunk(block.features, chunk)
            counts[c * _CHUNK:c * _CHUNK + len(chunk)] += _column_counts(
                ones == positive[:, None], cells)
            pending = np.concatenate([tails[c], ones.T], axis=1)
            whole = pending.shape[1] - pending.shape[1] % 8
            packed[c].append(np.packbits(pending[:, :whole], axis=1))
            tails[c] = pending[:, whole:]
    if counts is None:
        raise EmptyGroupError("the test pool has no rows")
    sizes, totals = sizes.tolist(), totals.tolist()
    _check_pool(sizes, r_tr, r_ts)

    bits: list[np.ndarray] = []
    for parts, tail in zip(packed, tails):
        bits += list(np.concatenate([*parts, np.packbits(tail, axis=1)], axis=1))
        parts.clear()
    evals, pred_rows = [], []
    for r in records:
        j = column[(id(r.weights), r.bias)]
        evals.append(_record(r.model_id, r.epoch, counts[j].tolist(), sizes, totals,
                             r_tr, r_ts))
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
    return evaluate_predictions(model.model_id, preds, test, r_tr, r_ts,
                                epoch=model.epoch)


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

def results_header(k_groups: int) -> list[str]:
    return (["model_id", "epoch", "lr", "l2", "batch_size", "seed"]
            + [f"group_acc_{g}" for g in range(k_groups)]
            + [f"tpr_{g}" for g in range(k_groups)]
            + [f"tnr_{g}" for g in range(k_groups)]
            + ["id_acc", "ood_acc"])


def write_results_csv(records: list[tuple[ModelRecord, EvalRecord]],
                      path: str | Path) -> None:
    if not records:
        raise InvalidSpecError("no evaluation records to write")
    k = records[0][1].k_groups
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(results_header(k))
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


def read_results_csv(path: str | Path, columns: tuple[str, ...] = ()) -> list[dict[str, str]]:
    """Rows of a results.csv; InvalidSpecError naming ``path`` if its header
    lacks one of ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidSpecError(f"{path} has no {missing[0]!r} column")
        return list(reader)


def predictions_bits(preds: np.ndarray) -> str:
    """'1' for +1 and '0' for -1, one character per test row."""
    return np.where(preds == 1, 49, 48).astype(np.uint8).tobytes().decode("ascii")


def bits_to_predictions(bits: str) -> np.ndarray:
    return np.where(np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"), 1, -1)


def write_preds_csv(rows: list[tuple[str, np.ndarray]], n_rows: int,
                    path: str | Path) -> None:
    """``model_id,bits`` lines, as ``csv.writer`` would write them, one write
    per row: each row's first ``n_rows`` packed bits (``evaluate_snapshots``'
    rows) spelled as '1' for +1 and '0' for -1, expanded one row at a time.
    A model ID that ``csv.writer`` would quote (one holding ``,``, ``"``, CR
    or LF) raises InvalidSpecError instead."""
    for mid, _ in rows:
        if any(c in mid for c in ',"\r\n'):
            raise InvalidSpecError(f"model ID {mid!r} cannot be written to {path} unquoted")
    with open(path, "w", newline="") as fh:
        fh.write("model_id,bits\n")
        for mid, packed in rows:
            bits = (np.unpackbits(packed, count=n_rows) + ord("0")).tobytes().decode("ascii")
            fh.write(f"{mid},{bits}\n")


def read_preds_csv(path: str | Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        return {row["model_id"]: row["bits"] for row in csv.DictReader(fh)}


def read_preds_matrix(path: str | Path, n_rows: int) -> tuple[list[str], np.ndarray, int]:
    """The model IDs in file order, their ``(models x ceil(n_rows / 8))``
    predictions packed as ``evaluate_snapshots`` packs them (one bit per row,
    set for +1), and the CRC-32 (``zlib.crc32``) of all the file's bytes, from
    one binary pass that packs each line as it validates it.  The packed
    matrix is allocated once, for as many rows as the file could hold (each
    at least ``n_rows + 2`` bytes), and returned cut to the rows read.
    InvalidSpecError on a header other than ``model_id,bits``, a bit-string
    not ``n_rows`` long, or a character other than 0/1."""
    ids: list[str] = []
    with open(path, "rb") as fh:
        header = fh.readline()
        crc = zlib.crc32(header)
        if header != b"model_id,bits\n":
            raise InvalidSpecError(f"{path}: header is not model_id,bits")
        # the last line may lack its newline
        capacity = (os.fstat(fh.fileno()).st_size - len(header) + 1) // (n_rows + 2)
        packed = np.zeros((capacity, -(-n_rows // 8)), dtype=np.uint8)
        for line in fh:
            crc = zlib.crc32(line, crc)
            mid, _, bits = line.rstrip(b"\n").partition(b",")
            mid, codes = mid.decode(errors="replace"), np.frombuffer(bits, dtype=np.uint8)
            if codes.size != n_rows:
                raise InvalidSpecError(f"{path}: model {mid!r} has {codes.size} "
                                       f"predictions, expected {n_rows}")
            if np.count_nonzero((codes == ord("0")) | (codes == ord("1"))) != n_rows:
                raise InvalidSpecError(f"{path}: predictions must be 0/1 characters")
            packed[len(ids)] = np.packbits(codes == ord("1"))
            ids.append(mid)
    return ids, packed[:len(ids)], crc


def write_agreement_csv(records: list[AgreementRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_a", "model_b", "agreement"])
        for r in records:
            writer.writerow([r.model_a, r.model_b, format_sig(r.agreement)])
