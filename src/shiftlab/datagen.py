"""Synthetic subpopulation-shift datasets.

Feature model: each row carries core features drawn around ``y * 1`` and
spurious features drawn around ``a * 1``,

    x_core | y ~ N(y * 1, sigma_core^2 I),
    x_spu  | a ~ N(a * 1, sigma_spu^2 I),

with label ``y`` in {-1, +1} and spurious attribute value ``a``.  Three
grouping modes are supported:

* majority mode (2 groups, ``pi1``/``pi0`` unset): group 1 is the majority
  subpopulation where the attribute agrees with the label (``a = y``); group 0
  is the minority where ``a = -y``.  ``p_maj`` fixes the majority fraction of
  the training split and labels are balanced within each group.
* attribute mode (2 groups, ``pi1``/``pi0`` set): the group IS the attribute,
  ``a = +1`` for group 1 and ``a = -1`` for group 0, with conditional rates
  P(Z=1|Y=1) = pi1 and P(Z=1|Y=0) = pi0.  ``|pi1 - pi0|`` is the level of
  spurious correlation; ``pi1 == pi0`` makes label and attribute independent.
* k-group mode (``k_groups > 2``): group g gets its own attribute value
  ``a_g`` evenly spaced in [-1, +1], labels balanced within groups, train
  mixture given by ``r_tr``.

All counts are exact (largest-remainder apportionment, floor/ceil label
splits); randomness only ever enters through the per-row feature noise, which
is derived from ``(master_seed, split, row index)`` so generation is
deterministic and order-independent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DegenerateDimensionError, InfeasibleMarginalsError, InvalidSpecError
from .rng import MASK64, row_streams, stream_normals

SPLITS = ("train", "id_test", "ood_test")
_SPLIT_SCOPE = {"train": 0x5452, "id_test": 0x4944, "ood_test": 0x4F4F}

_WEIGHT_SUM_TOL = 1e-12


def _apportion(total: int, weights: tuple[float, ...]) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Largest-remainder method; ties broken by lower index, so the result is
    deterministic.
    """
    raw = [total * w for w in weights]
    counts = [int(np.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(range(len(weights)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _split_pos(count: int, p_pos: float) -> int:
    """Positive-label count for a block: floor/ceil split, never Bernoulli."""
    return int(np.floor(p_pos * count + 0.5))


@dataclass(frozen=True)
class ShiftSpec:
    """Full parameterization of the data-generating process."""

    d_core: int
    d_spu: int
    sigma_core: float
    sigma_spu: float
    n_train: int
    p_maj: float | None = None
    pi1: float | None = None
    pi0: float | None = None
    p_y1: float = 0.5
    n_id_test: int = 10_000
    n_ood_test: int = 10_000
    r_tr: tuple[float, ...] | None = None
    r_ts: tuple[float, ...] | None = None
    k_groups: int = 2
    master_seed: int = 0

    @property
    def d_total(self) -> int:
        return self.d_core + self.d_spu

    @property
    def mode(self) -> str:
        if self.k_groups > 2:
            return "kgroup"
        if self.pi1 is None and self.pi0 is None:
            return "majority"
        return "attribute"

    @property
    def p_z1(self) -> float:
        """Attribute marginal P(Z=1) in attribute mode."""
        if self.mode != "attribute":
            raise InvalidSpecError("p_z1 is only defined in attribute mode")
        return self.pi1 * self.p_y1 + self.pi0 * (1.0 - self.p_y1)

    def validate(self) -> None:
        if self.d_core == 0:
            raise DegenerateDimensionError("d_core must be positive")
        if self.d_core < 0 or self.d_spu < 0:
            raise InvalidSpecError("feature dimensions must be non-negative")
        if not (0 < self.sigma_core < np.inf and 0 < self.sigma_spu < np.inf):
            raise InvalidSpecError("noise scales must be positive and finite")
        if self.n_train <= 0 or self.n_id_test <= 0 or self.n_ood_test <= 0:
            raise InvalidSpecError("sample counts must be positive")
        if max(self.d_core, self.d_spu, self.n_train, self.n_id_test, self.n_ood_test) >= 2**63:
            raise InvalidSpecError("feature and sample counts must be below 2**63")
        if not 0.0 < self.p_y1 < 1.0:
            raise InvalidSpecError(f"p_y1 must be in (0,1), got {self.p_y1}")
        if self.k_groups < 2:
            raise InvalidSpecError("k_groups must be at least 2")
        if not 0 <= self.master_seed <= MASK64:
            raise InvalidSpecError("master_seed must fit in 64 bits")
        if (self.pi1 is None) != (self.pi0 is None):
            raise InvalidSpecError("pi1 and pi0 must be set together")

        mode = self.mode
        if mode == "majority":
            if self.p_maj is None or not 0.0 < self.p_maj < 1.0:
                raise InvalidSpecError("majority mode requires p_maj in (0,1)")
        elif mode == "attribute":
            if not (0.0 <= self.pi1 <= 1.0 and 0.0 <= self.pi0 <= 1.0):
                raise InvalidSpecError("pi1 and pi0 must lie in [0,1]")
            if not 0.0 < self.p_z1 < 1.0:
                raise InvalidSpecError("P(Z=1) = pi1*p_y1 + pi0*(1-p_y1) must lie in (0,1)")
        else:
            if self.pi1 is not None:
                raise InvalidSpecError("k-group mode does not take pi1/pi0")
            if self.r_tr is None:
                raise InvalidSpecError("k-group mode requires explicit r_tr")

        for name, weights in (("r_tr", self.r_tr), ("r_ts", self.r_ts)):
            if weights is None:
                continue
            if len(weights) != self.k_groups:
                raise InvalidSpecError(f"{name} must have {self.k_groups} entries")
            if not all(0.0 <= w <= 1.0 for w in weights):  # NaN fails here too
                raise InvalidSpecError(f"{name} entries must lie in [0,1]")
            if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
                raise InvalidSpecError(f"{name} must sum to 1 within {_WEIGHT_SUM_TOL}")
        if self.r_tr is not None and mode != "kgroup":
            implied = self.train_weights()
            if any(abs(a - b) > 1e-9 for a, b in zip(self.r_tr, implied)):
                raise InvalidSpecError("explicit r_tr conflicts with the 2-group parameters")

    def train_weights(self) -> tuple[float, ...]:
        """Group mixture of the training (in-distribution) population."""
        mode = self.mode
        if mode == "majority":
            return (1.0 - self.p_maj, self.p_maj)
        if mode == "attribute":
            return (1.0 - self.p_z1, self.p_z1)
        return tuple(self.r_tr)

    def ood_weights(self) -> tuple[float, ...]:
        """Group mixture of the shifted test population (equal by default)."""
        if self.r_ts is not None:
            return tuple(self.r_ts)
        return tuple(1.0 / self.k_groups for _ in range(self.k_groups))

    def group_label_counts(self, split: str) -> list[tuple[int, int]]:
        """Exact (positives, negatives) per group for one split."""
        if split not in SPLITS:
            raise InvalidSpecError(f"unknown split {split!r}")
        n = {"train": self.n_train, "id_test": self.n_id_test, "ood_test": self.n_ood_test}[split]
        mode = self.mode

        if mode == "attribute":
            if split == "train" or split == "id_test":
                # Class-first so class counts are exact; attribute within class.
                n_pos = _split_pos(n, self.p_y1)
                n_neg = n - n_pos
                n11 = _split_pos(n_pos, self.pi1)
                n01 = _split_pos(n_neg, self.pi0)
                return [(n_pos - n11, n_neg - n01), (n11, n01)]
            # Shifted pool: group-first, within-group label rates held fixed.
            p_z1 = self.p_z1
            cond_pos = (
                (1.0 - self.pi1) * self.p_y1 / (1.0 - p_z1),
                self.pi1 * self.p_y1 / p_z1,
            )
            groups = _apportion(n, self.ood_weights())
            return [(_split_pos(g, cond_pos[z]), g - _split_pos(g, cond_pos[z]))
                    for z, g in enumerate(groups)]

        # Majority and k-group modes: labels balanced within every group.
        if mode == "majority" and split == "train":
            n_maj = int(np.floor(self.p_maj * n + 0.5))
            groups = [n - n_maj, n_maj]
        else:
            weights = self.train_weights() if split in ("train", "id_test") else self.ood_weights()
            groups = _apportion(n, weights)
        return [(_split_pos(g, self.p_y1), g - _split_pos(g, self.p_y1)) for g in groups]

    def attribute_values(self) -> tuple[float, ...]:
        """Per-group attribute value ``a_g`` (k-group mode only)."""
        k = self.k_groups
        return tuple(-1.0 + 2.0 * g / (k - 1) for g in range(k))


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with labels, group tags, and a split tag."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    split: str
    k_groups: int

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.groups.shape != (n,):
            raise InvalidSpecError("features, labels, and groups must align")
        for arr in (self.features, self.labels, self.groups):
            arr.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def generate(spec: ShiftSpec, split: str = "train") -> Dataset:
    """Draw one dataset for ``split``; deterministic in (spec, split, seed).

    Rows are laid out group-major (positives before negatives within each
    group); feature noise for row ``i`` comes from its own counter-based
    stream, so the layout and the noise are independent of each other.
    This is the one-block case of ``generate_blocks``: the feature matrix is
    allocated once and filled ``_GEN_BLOCK_ROWS`` rows at a time, so memory
    stays at about the finished dataset plus one draw.
    """
    return next(generate_blocks(spec, split))


def row_layout(spec: ShiftSpec, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, groups and attribute values of the rows of ``split``: group-major,
    positives before negatives within each group, in the counts
    ``spec.group_label_counts(split)`` gives.  The layout holds no randomness,
    so a split's row order follows from its spec alone."""
    spec.validate()
    ends = _cell_ends(spec, split)
    return _layout_rows(spec, ends, 0, int(ends[-1]))


def _cell_ends(spec: ShiftSpec, split: str) -> np.ndarray:
    """One past the last row of each (group, label) cell of ``split``, in
    ``row_layout``'s order."""
    return np.cumsum([c for cell in spec.group_label_counts(split) for c in cell])


def _layout_rows(spec: ShiftSpec, ends: np.ndarray, start: int, stop: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``row_layout`` of rows ``start`` to ``stop`` alone: each row's cell is
    found among the cell ``ends``, so no row outside them is laid out."""
    cell = np.searchsorted(ends, np.arange(start, stop), side="right").astype(np.int64)
    labels, groups = 1 - 2 * (cell & 1), cell >> 1
    if spec.mode == "majority":
        attr = np.where(groups == 1, labels, -labels).astype(np.float64)
    elif spec.mode == "attribute":
        attr = np.where(groups == 1, 1.0, -1.0)
    else:
        attr = np.array(spec.attribute_values())[groups]
    return labels, groups, attr


def generate_blocks(spec: ShiftSpec, split: str, rows: int | None = None) -> Iterator[Dataset]:
    """The rows of ``generate(spec, split)`` as consecutive Datasets of at most
    ``rows`` rows (all rows in one block when None), laid out by ``row_layout``.

    Each block's layout and row streams are computed for its own rows, and
    every block's features are drawn into one buffer, reused from block to
    block, so a block is valid only until the next one is drawn and memory
    stays at about one block, whatever the split's size.  Since every row has
    its own stream, the bytes do not depend on the block size.
    """
    spec.validate()
    ends = _cell_ends(spec, split)
    n = int(ends[-1])
    rows = n if rows is None else rows
    buffer = np.empty((min(rows, n), spec.d_total))
    for start in range(0, n, rows):
        labels, groups, attr = _layout_rows(spec, ends, start, min(start + rows, n))
        streams = row_streams(spec.master_seed, _SPLIT_SCOPE[split], labels.shape[0], start)
        features = _draw_features(spec, labels, attr, streams, buffer[:labels.shape[0]])
        yield Dataset(features=features, labels=labels, groups=groups,
                      split=split, k_groups=spec.k_groups)


# Rows per draw inside a block: bounds the draw's temporaries (about five
# draw-sized uint64/float64 arrays) to under 1 MB at 150 features.
_GEN_BLOCK_ROWS = 128


def _draw_features(spec: ShiftSpec, labels: np.ndarray, attr: np.ndarray,
                   streams: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Feature rows ``label + sigma_core * noise`` and ``attr + sigma_spu * noise``,
    drawn ``_GEN_BLOCK_ROWS`` rows at a time straight into ``out``; ``streams``
    are the rows' streams."""
    dc = spec.d_core
    for start in range(0, labels.shape[0], _GEN_BLOCK_ROWS):
        sl = slice(start, start + _GEN_BLOCK_ROWS)
        noise = stream_normals(streams[sl], spec.d_total)
        out[sl, :dc] = labels[sl, None] + spec.sigma_core * noise[:, :dc]
        out[sl, dc:] = attr[sl, None] + spec.sigma_spu * noise[:, dc:]
    return out


# ---------------------------------------------------------------------------
# Fixed-marginals mixture tables (2 x 2)
# ---------------------------------------------------------------------------

def mixture_table(total: int, class_balance: float, attr_balance: float,
                  correlation_level: float) -> np.ndarray:
    """The 2x2 table of training-sample counts with fixed marginals and one
    free correlation knob: a read-only int64 array indexed ``[y][z]``.

    With the grand total, the class marginal, and the attribute marginal all
    fixed, a single degree of freedom remains: the (Y=1, Z=1) cell.
    ``correlation_level`` interpolates it linearly from its independence value
    (product of marginals, level 0) to its Frechet upper bound (level 1),
    rounding to the nearest feasible integer.
    """
    if total <= 0:
        raise InfeasibleMarginalsError("total must be positive")
    if not (0.0 < class_balance < 1.0 and 0.0 < attr_balance < 1.0):
        raise InfeasibleMarginalsError("marginals must lie strictly in (0,1)")
    if not 0.0 <= correlation_level <= 1.0:
        raise ValueError(f"correlation_level must be in [0,1], got {correlation_level}")

    n_y1 = _split_pos(total, class_balance)
    n_z1 = _split_pos(total, attr_balance)
    n_y0 = total - n_y1
    n_z0 = total - n_z1
    if min(n_y1, n_y0, n_z1, n_z0) <= 0:
        raise InfeasibleMarginalsError("a marginal rounded to zero; no valid table exists")

    lo = max(0, n_y1 + n_z1 - total)
    hi = min(n_y1, n_z1)
    independent = n_y1 * n_z1 / total
    target = independent + correlation_level * (hi - independent)
    c11 = min(max(int(np.floor(target + 0.5)), lo), hi)
    counts = np.array([[n_z0 - (n_y1 - c11), n_z1 - c11],
                       [n_y1 - c11, c11]], dtype=np.int64)
    counts.setflags(write=False)
    return counts


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def format_sig(x: float, digits: int = 12) -> str:
    """Decimal rendering with a fixed number of significant digits."""
    return format(float(x), f".{digits}g")


def check_unquoted(ids: Iterable[str], path: str | Path) -> None:
    """InvalidSpecError on the first ID ``csv.writer`` would quote (``,``, ``"``, CR, LF)."""
    for mid in ids:
        if "," in mid or '"' in mid or "\r" in mid or "\n" in mid:
            raise InvalidSpecError(f"model ID {mid!r} cannot be written to {path} unquoted")


# Rows formatted per ``%`` and write.  Longer texts format slower: a 25k x 150
# pool took 1.80 s at 64 rows, 1.83 s at 256 and 1.91 s at 1,024, and 16 rows
# gained little (1.74 s; 2-vCPU host, median of 3).
_CSV_CHUNK_ROWS = 64


def write_dataset_csv(dataset: Dataset | Iterable[Dataset], path: str | Path) -> None:
    """CSV with header ``y,z,x0,...``; each row is ``y,z`` then the features.

    ``dataset`` is one Dataset or consecutive blocks of one, as
    ``generate_blocks`` yields them; the bytes are the same either way.
    Every field is ``"%.9g" % v`` (labels and groups print as ``%d`` would),
    formatted ``_CSV_CHUNK_ROWS`` rows at a time by one ``%`` over a repeated
    row format, as ``trainer.write_model_store`` does.  The text round-trips
    exactly: ``read_dataset_csv`` returns the doubles it denotes.
    """
    blocks = [dataset] if isinstance(dataset, Dataset) else dataset
    line = None
    with open(path, "w", newline="") as fh:
        for block in blocks:
            if line is None:
                fh.write("y,z," + ",".join(f"x{j}" for j in range(block.n_features)) + "\n")
                line = "%.9g," * (block.n_features + 1) + "%.9g\n"
            for start in range(0, block.n_rows, _CSV_CHUNK_ROWS):
                sl = slice(start, start + _CSV_CHUNK_ROWS)
                rows = np.column_stack((block.labels[sl], block.groups[sl], block.features[sl]))
                fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def read_dataset_csv(path: str | Path, split: str = "train") -> Dataset:
    """Parse a ``write_dataset_csv`` file back into a Dataset.

    Each feature is the double its ``%.9g`` text denotes, so the round trip is
    exact; the features are a read-only view of the parsed block.  Bytes that
    are not UTF-8, a bad header, a blank line, a ragged row, a non-numeric
    field, a non-integer label or group, a label outside {-1, +1} or a
    negative group raises InvalidSpecError naming ``path``.
    """
    def rows(fh):
        # np.loadtxt skips blank lines; a dataset file has none.
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                raise InvalidSpecError(f"malformed dataset CSV {path}: line {number} is blank")
            yield line

    with open(path) as fh:
        try:  # ValueError: a non-numeric field, or bytes that are not UTF-8
            header = fh.readline().rstrip("\n").split(",")
            if header[:2] != ["y", "z"]:
                raise InvalidSpecError(f"unexpected dataset header in {path}")
            body_start = fh.tell()
            empty = not fh.readline()
            fh.seek(body_start)
            body = (np.empty((0, len(header))) if empty
                    else np.loadtxt(rows(fh), delimiter=",", comments=None, ndmin=2))
        except ValueError as exc:
            raise InvalidSpecError(f"malformed dataset CSV {path}: {exc}") from exc
    if body.shape[1] != len(header):
        raise InvalidSpecError(f"malformed dataset CSV {path}: rows have "
                               f"{body.shape[1]} fields, the header names {len(header)}")
    labels, groups = body[:, 0].astype(np.int64), body[:, 1].astype(np.int64)
    if not (np.array_equal(labels, body[:, 0]) and np.array_equal(groups, body[:, 1])):
        raise InvalidSpecError(f"malformed dataset CSV {path}: non-integer label or group")
    if not np.all(np.abs(labels) == 1):
        raise InvalidSpecError(f"malformed dataset CSV {path}: a label outside {{-1, +1}}")
    if np.any(groups < 0):
        raise InvalidSpecError(f"malformed dataset CSV {path}: a negative group")
    k = int(groups.max()) + 1 if groups.size else 2
    return Dataset(features=body[:, 2:], labels=labels, groups=groups,
                   split=split, k_groups=max(k, 2))


def write_spec_file(spec: ShiftSpec, path: str | Path) -> None:
    """Sorted ``key=value`` lines of the fields that are set, floats at 12
    digits: a ``[shift]`` section body, which ``config.load_config`` reads."""
    lines = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = ",".join(format_sig(v) for v in value)
        elif isinstance(value, float):
            value = format_sig(value)
        if value is not None:
            lines.append(f"{f.name}={value}")
    Path(path).write_text("\n".join(sorted(lines)) + "\n")
