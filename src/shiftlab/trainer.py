"""Logistic-regression sweeps by plain gradient descent.

The objective for labels y in {-1, +1} is

    J(w, b) = mean_i log(1 + exp(-y_i (w . x_i + b))) + (l2 / 2) ||w||^2,

minimized from an all-zeros start by full-batch gradient descent or
mini-batch SGD without momentum and without learning-rate decay.  Snapshots
taken at intermediate epochs are first-class models: the sweep deliberately
keeps under-trained, oscillating, and converged classifiers alike, because
the accuracy-curve analysis needs the whole spectrum.

The prediction rule is fixed everywhere: predict +1 iff w . x + b >= 0
(the boundary tie resolves to +1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset, check_unquoted
from .errors import DimensionMismatchError, DivergenceError, InvalidSpecError
from .rng import derive_stream

FULL_BATCH = "full"


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float
    l2: float = 0.0
    batch_size: int | str = FULL_BATCH
    snapshot_epochs: tuple[int, ...] = (1, 5, 10, 25)
    seed: int = 0

    def cell_id(self) -> str:
        """Content-derived identifier: reordering a grid never renames models."""
        bs = self.batch_size if self.batch_size == FULL_BATCH else f"{int(self.batch_size)}"
        return f"lr{self.learning_rate:.6g}-l2{self.l2:.6g}-b{bs}-s{self.seed:016x}"

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise InvalidSpecError(f"learning_rate must be positive and finite, "
                                   f"got {self.learning_rate}")
        if not 0 <= self.l2 < np.inf:
            raise InvalidSpecError(f"l2 must be non-negative and finite, got {self.l2}")
        if self.batch_size != FULL_BATCH:
            if not isinstance(self.batch_size, int) or self.batch_size <= 0:
                raise InvalidSpecError(f"batch_size must be 'full' or a positive int")
        snaps = self.snapshot_epochs
        if not snaps or any(e <= 0 for e in snaps):
            raise InvalidSpecError("snapshot_epochs must be non-empty and positive")
        if any(a >= b for a, b in zip(snaps, snaps[1:])):
            raise InvalidSpecError("snapshot_epochs must be strictly increasing")


@dataclass(frozen=True)
class ModelRecord:
    """A trained linear classifier snapshot: predict +1 iff w . x + b >= 0."""

    model_id: str
    weights: np.ndarray
    bias: float
    epoch: int
    train_loss: float
    hyperparams: HyperParams

    def __post_init__(self):
        self.weights.setflags(write=False)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}; the tie at the boundary resolves to +1."""
        if features.shape[1] != self.weights.shape[0]:
            raise DimensionMismatchError(
                f"model {self.model_id} has {self.weights.shape[0]} weights, "
                f"data has {features.shape[1]} features")
        return np.where(features @ self.weights + self.bias >= 0.0, 1, -1).astype(np.int64)


def _softplus(v: np.ndarray) -> np.ndarray:
    # log(1 + exp(v)) without overflow.
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def mean_logistic_loss(weights: np.ndarray, bias: float, dataset: Dataset,
                       l2: float = 0.0) -> float:
    # Diverging weights legitimately overflow to inf here; the caller treats
    # a non-finite value as divergence, so the overflow warning is noise.
    with np.errstate(over="ignore"):
        margins = dataset.labels * (dataset.features @ weights + bias)
        loss = float(np.mean(_softplus(-margins)))
        return loss + 0.5 * l2 * float(weights @ weights)


def gradient_lipschitz_bound(dataset: Dataset, l2: float = 0.0) -> float:
    """Upper bound on the objective's gradient Lipschitz constant.

    The logistic Hessian is bounded by (1/4n) X~^T X~ with the bias column
    appended, so max_i ||x~_i||^2 / 4 + l2 dominates its largest eigenvalue.
    """
    row_sq = np.max(np.einsum("ij,ij->i", dataset.features, dataset.features)) + 1.0
    return float(row_sq) / 4.0 + l2


def train(dataset: Dataset, hp: HyperParams) -> list[ModelRecord]:
    """Gradient descent with per-snapshot records; deterministic per (dataset, hp).

    Gradients are accumulated in row order (full batch) or in the order of the
    per-epoch permutation derived from (hp.seed, epoch), so reruns and
    truncated reruns on one machine and BLAS kernel reproduce snapshots
    exactly.  This is the one-seed, one-column case of the stacked kernel
    that ``sweep`` uses; a cell trained there among other columns agrees with
    this to about 1 ulp per step, because BLAS reductions over several
    columns may round differently.  The seed axis changes no bit.
    """
    outcome = _descend(dataset, [[[hp]]])[0][0]
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def _descend(dataset: Dataset, stack: list[list[list[HyperParams]]]
             ) -> list[list[list[ModelRecord] | DivergenceError]]:
    """Train S groups of C columns as one seed stack of (d x C) weight matrices.

    Each group shares one batch order (its seed's, or row order for full
    batch); all share the batch size and snapshot epochs.  A step is one
    batched matmul, one BLAS GEMM per seed slice, on rows gathered straight
    from the features into buffers allocated once per stack, so every slice
    rounds as a lone group would.  The cells of column (s, j) share its lr and
    l2, and entry [s][j] of the result is their snapshot records, or the
    DivergenceError (a non-finite iterate or snapshot loss) that froze the
    column at zero with lr 0 and left it no records; a frozen column changes
    no bit of any other.
    """
    if dataset.split != "train":
        raise InvalidSpecError(f"training requires the train split, got {dataset.split!r}")
    hp = stack[0][0][0]
    X = dataset.features
    y = dataset.labels.astype(np.float64)
    (n, d), S, C = X.shape, len(stack), len(stack[0])
    step = n if hp.batch_size == FULL_BATCH else int(hp.batch_size)
    gather = hp.batch_size != FULL_BATCH
    # Rows :d of Wb hold the weights and row d the bias, so one division,
    # one lr product and one subtraction update both; G is laid out alike.
    Wb, G = np.zeros((2, S, d + 1, C))
    T = np.empty((S, d, C))
    lr = np.array([[cells[0].learning_rate for cells in group] for group in stack])
    l2 = np.array([[cells[0].l2 for cells in group] for group in stack])
    lr_w = np.repeat(lr[:, None, :], d + 1, axis=1)
    l2_w = np.repeat(l2[:, None, :], d, axis=1)
    views = (Wb[:, :d], Wb[:, d:], G[:, :d], G[:, d:])
    sizes = {min(step, n - start) for start in range(0, n, step)}
    buffers = {m: (np.empty((S, m, d)) if gather else X, *np.empty((3, S, m, C)))
               for m in sizes}
    alive = np.ones((S, C), dtype=bool)
    outcomes: list[list] = [[[] for _ in group] for group in stack]

    for epoch in range(1, hp.snapshot_epochs[-1] + 1):
        if gather:
            orders = np.array([np.random.default_rng(derive_stream(group[0][0].seed, epoch))
                               .permutation(n) for group in stack])
            ye = y[orders]
        else:
            ye = y
        # Unstable settings legitimately blow the iterates up to inf and nan;
        # that path is reported as DivergenceError, so the warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, step):
                Xb, F, E, Q = buffers[min(step, n - start)]
                if gather:  # "clip" writes straight into Xb; "raise" would buffer
                    X.take(orders[..., start:start + step], axis=0, out=Xb, mode="clip")
                _step(Xb, ye[..., start:start + step, None], Wb, G, *views, lr_w, l2_w,
                      T, F, E, Q)
        finite = alive & np.all(np.isfinite(Wb), axis=1)
        if epoch in hp.snapshot_epochs:
            for s, k in zip(*np.nonzero(finite)):
                w, bias = Wb[s, :d, k].copy(), float(Wb[s, d, k])
                loss = mean_logistic_loss(w, bias, dataset, float(l2[s, k]))
                if not np.isfinite(loss):
                    finite[s, k] = False
                    continue
                outcomes[s][k].extend(ModelRecord(
                    model_id=f"{cell.cell_id()}e{epoch:04d}", weights=w, bias=bias,
                    epoch=epoch, train_loss=loss, hyperparams=cell)
                    for cell in stack[s][k])
        for s, k in zip(*np.nonzero(alive & ~finite)):
            outcomes[s][k] = DivergenceError(epoch)
            for arr in (Wb, lr_w, l2_w):
                arr[s, :, k] = 0.0
        alive &= finite
        if not alive.any():
            break
    return outcomes


def _step(Xb, yb, Wb, G, W, b, Gw, Gb, lr_w, l2_w, T, F, E, Q) -> None:
    """One in-place descent step on batch rows ``Xb`` with labels ``yb``.

    ``W`` and ``b`` are the weight and bias rows of ``Wb``, ``Gw`` and
    ``Gb`` those of ``G``.  Per seed slice this is bitwise
    ``W -= lr * (-(Xb.T @ coef) / m + l2 * W)`` and
    ``b -= lr * (-coef.sum(axis=0) / m)`` with ``coef = yb * sigmoid(-margins)``.
    """
    m = Xb.shape[-2]
    np.matmul(Xb, W, out=F)
    F += b
    F *= yb  # margins
    # d/df log(1+e^{-f}) = -sigmoid(-f), computed overflow-free:
    # e = exp(-|f|), then (e where f >= 0, else 1) / (1 + e)
    np.exp(np.copysign(F, -1.0, out=E), out=E)
    np.maximum(E, np.less(F, 0.0, out=Q), out=Q)
    E += 1.0
    Q /= E
    Q *= yb  # coef
    np.matmul(Xb.swapaxes(-1, -2), Q, out=Gw)
    np.add.reduce(Q, axis=-2, keepdims=True, out=Gb)
    G /= -m
    Gw += np.multiply(l2_w, W, out=T)
    G *= lr_w
    Wb -= G


def check_grid(grid: list[HyperParams]) -> list[str]:
    """Cell IDs of a non-empty grid of valid cells with distinct IDs."""
    if not grid:
        raise InvalidSpecError("the hyperparameter grid is empty")
    ids = [hp.cell_id() for hp in grid]
    if len(set(ids)) != len(ids):
        raise InvalidSpecError("two cells share a cell ID: values repeat, "
                               "or agree to the 6 significant digits it prints")
    return ids


@dataclass
class SweepResult:
    records: list[ModelRecord]
    failures: list[tuple[str, HyperParams, str]]


def sweep(dataset: Dataset, grid: list[HyperParams]) -> SweepResult:
    """Train every grid cell; cell failures are recorded, not fatal.

    Cells that share a batch order (batch size, snapshot epochs and, for
    SGD, seed) form one group of columns sorted by cell ID, so any
    permutation of a grid yields the same bytes.  Groups that share batch
    size, snapshot epochs and column count train as one seed stack; each
    seed slice rounds exactly as its group trained alone, so stacking
    changes no byte.  Full-batch descent ignores the seed: each (lr, l2)
    trajectory is trained once and recorded under every seed's model ID.
    Records are sorted by model_id; failures keep grid order.
    """
    ids = check_grid(grid)
    groups: dict[tuple, dict[tuple[float, float], list[HyperParams]]] = {}
    for hp in sorted(grid, key=HyperParams.cell_id):
        seed = None if hp.batch_size == FULL_BATCH else hp.seed
        key = (hp.batch_size, seed, hp.snapshot_epochs)
        groups.setdefault(key, {}).setdefault((hp.learning_rate, hp.l2), []).append(hp)

    stacks: dict[tuple, list[list[list[HyperParams]]]] = {}
    for (batch_size, _, snaps), group in groups.items():
        stacks.setdefault((batch_size, snaps, len(group)), []).append(list(group.values()))

    records: list[ModelRecord] = []
    failed: dict[str, str] = {}
    for stack in stacks.values():
        for outcomes, columns in zip(_descend(dataset, stack), stack):
            for outcome, cells in zip(outcomes, columns):
                if isinstance(outcome, DivergenceError):
                    failed.update((hp.cell_id(), str(outcome)) for hp in cells)
                else:
                    records.extend(outcome)
    records.sort(key=lambda r: r.model_id)
    failures = [(cell, hp, failed[cell]) for cell, hp in zip(ids, grid) if cell in failed]
    return SweepResult(records=records, failures=failures)


# ---------------------------------------------------------------------------
# Model store
# ---------------------------------------------------------------------------

def write_model_store(records: list[ModelRecord], models_path: str | Path,
                      weights_path: str | Path) -> None:
    """``models.csv`` (hyperparameters) in one write and ``weights.csv`` (bias,
    weights) one record at a time, so no whole-file copy of the weights is
    made; every float at ``format_sig``'s 12 digits (``%.12g``).  A model ID
    that ``csv.writer`` would quote raises InvalidSpecError."""
    check_unquoted((r.model_id for r in records), models_path)
    models = tuple(v for r in records for v in (
        r.model_id, r.hyperparams.learning_rate, r.hyperparams.l2, r.hyperparams.batch_size,
        r.epoch, r.hyperparams.seed, r.train_loss))
    with open(models_path, "w", newline="") as fh:
        fh.write("model_id,lr,l2,batch_size,epoch,seed,train_loss\n"
                 + "%s,%.12g,%.12g,%s,%s,%s,%.12g\n" * len(records) % models)
    d = records[0].weights.shape[0] if records else 0
    line = "%s" + ",%.12g" * (d + 1) + "\n"
    with open(weights_path, "w", newline="") as fh:
        fh.write(",".join(["model_id", "b"] + [f"w{j}" for j in range(d)]) + "\n")
        for r in records:
            fh.write(line % (r.model_id, r.bias, *r.weights.tolist()))


def write_failures_csv(failures: list[tuple[str, HyperParams, str]], path: str | Path) -> None:
    """One row per ``SweepResult.failures`` entry, in one write, rates at ``%.12g``."""
    values = tuple(v for cell, hp, msg in failures
                   for v in (cell, hp.learning_rate, hp.l2, hp.batch_size, hp.seed, msg))
    with open(path, "w", newline="") as fh:
        fh.write("cell,lr,l2,batch_size,seed,error\n"
                 + "%s,%.12g,%.12g,%s,%s,%s\n" * len(failures) % values)


def read_model_store(models_path: str | Path, weights_path: str | Path) -> list[ModelRecord]:
    """A ``write_model_store`` pair's records, sorted by model ID.  A missing column,
    short row, non-number or unknown model ID raises InvalidSpecError naming the file."""
    hps: dict[str, tuple[HyperParams, int, float]] = {}
    records, path = [], models_path
    try:  # restval "" makes a short row's missing fields fail to parse, as None would not
        with open(models_path, newline="") as fh:
            for row in csv.DictReader(fh, restval=""):
                bs = row["batch_size"]
                hp = HyperParams(
                    learning_rate=float(row["lr"]), l2=float(row["l2"]),
                    batch_size=bs if bs == FULL_BATCH else int(bs),
                    snapshot_epochs=(int(row["epoch"]),), seed=int(row["seed"]))
                hps[row["model_id"]] = (hp, int(row["epoch"]), float(row["train_loss"]))
        path = weights_path
        with open(weights_path, newline="") as fh:
            for row in csv.DictReader(fh, restval=""):
                hp, epoch, loss = hps[row["model_id"]]
                values = np.array([row["b"], *(row[f"w{j}"] for j in range(len(row) - 2))],
                                  dtype=float)  # each parsed as float() parses it
                records.append(ModelRecord(model_id=row["model_id"], weights=values[1:],
                                           bias=float(values[0]), epoch=epoch,
                                           train_loss=loss, hyperparams=hp))
    except (KeyError, ValueError) as exc:
        raise InvalidSpecError(f"malformed model store file {path}: {exc!r}") from None
    records.sort(key=lambda r: r.model_id)
    return records
