"""Experiment configuration: one INI-style file determines every output.

Sections: ``[shift]`` (data-generating parameters, keys named after the
ShiftSpec fields), ``[grid]`` (hyperparameter grid), ``[analysis]`` (probit
clamp, spline lambda, agreement pair sampling), ``[output]`` (directory), and
optionally ``[series]`` (knob sweeps).  Hyperparameter seeds are derived from
the master seed, so overriding ``--seed`` reseeds the whole pipeline.
Outputs are byte-identical across reruns on one machine and BLAS kernel;
another kernel may round the training reductions differently.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import ShiftSpec, parse_spec_items
from .errors import ConfigError, InvalidSpecError
from .rng import derive_stream
from .trainer import FULL_BATCH, HyperParams


@dataclass(frozen=True)
class GridSpec:
    """Sweep grid: 150 training cells, snapshotted out to convergence.

    The snapshot list runs to 100 epochs so that every configuration in a
    knob series reaches its converged regime; curvature comparisons across
    sweeps are only meaningful when the sweeps are in the same phase.
    """

    learning_rates: tuple[float, ...] = tuple(np.logspace(-4, -1, 5))
    l2s: tuple[float, ...] = (0.0, 1e-4, 1e-2)
    batch_sizes: tuple[int | str, ...] = (FULL_BATCH, 32)
    snapshot_epochs: tuple[int, ...] = (1, 2, 5, 10, 25, 50, 100)
    n_seeds: int = 5

    def build(self, master_seed: int) -> list[HyperParams]:
        """Every (lr, l2, batch size, seed) cell; the seeds derive from
        ``master_seed``."""
        seeds = [derive_stream(master_seed, 0x5345, k) for k in range(self.n_seeds)]
        return [HyperParams(learning_rate=float(lr), l2=float(l2), batch_size=bs,
                            max_epochs=self.snapshot_epochs[-1],
                            snapshot_epochs=self.snapshot_epochs, seed=seed)
                for lr in self.learning_rates for l2 in self.l2s
                for bs in self.batch_sizes for seed in seeds]

    @property
    def n_snapshots(self) -> int:
        return (len(self.learning_rates) * len(self.l2s) * len(self.batch_sizes)
                * self.n_seeds * len(self.snapshot_epochs))


@dataclass(frozen=True)
class AnalysisOptions:
    probit_eps: float = 1e-3
    spline_lambda: float | str = "gcv"
    n_pairs: int = 500
    pair_seed: int | None = None
    margin: float = 0.02

    def validate(self) -> None:
        """Range-check the options the analysis stage reads after training."""
        if not 0.0 < self.probit_eps < 0.5:
            raise ConfigError(f"[analysis] probit_eps must be in (0, 0.5), got {self.probit_eps}")
        if self.spline_lambda != "gcv" and not self.spline_lambda > 0.0:
            raise ConfigError("[analysis] spline_lambda must be 'gcv' or > 0, "
                              f"got {self.spline_lambda}")
        if self.n_pairs < 1:
            raise ConfigError(f"[analysis] n_pairs must be at least 1, got {self.n_pairs}")


@dataclass(frozen=True)
class SeriesSpec:
    knob: str = "sdr"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    shift: ShiftSpec
    grid: GridSpec = field(default_factory=GridSpec)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    out_dir: Path = Path("out")
    series: SeriesSpec | None = None

    def with_overrides(self, out_dir: str | Path | None = None,
                       master_seed: int | None = None) -> "ExperimentConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=Path(out_dir))
        if master_seed is not None:
            cfg = replace(cfg, shift=replace(cfg.shift, master_seed=master_seed))
        return cfg


def parse_floats(raw: str) -> tuple[float, ...]:
    """Comma-separated floats, as in ``[grid]`` lists and ``[series] values``."""
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v.strip())


def _batches(raw: str) -> tuple[int | str, ...]:
    out: list[int | str] = []
    for v in raw.split(","):
        v = v.strip()
        if not v:
            continue
        out.append(FULL_BATCH if v == FULL_BATCH else int(v))
    return tuple(out)


def _parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       comment_prefixes=("#",))
    parser.optionxform = str  # keep key case
    return parser


def _read_section(parser: configparser.ConfigParser, name: str, path: Path,
                  readers: dict) -> dict:
    """Parse every key of section ``name`` with its reader, if the section exists."""
    kwargs = {}
    for key, raw in (parser[name].items() if name in parser else ()):
        if key not in readers:
            raise ConfigError(f"unknown [{name}] key {key!r} in {path}")
        try:
            kwargs[key] = readers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad [{name}] value for {key!r}: {exc}") from exc
    return kwargs


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = _parser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if "shift" not in parser:
        raise ConfigError(f"{path} is missing the [shift] section")

    try:
        spec = parse_spec_items(dict(parser["shift"]))
    except (InvalidSpecError, ValueError) as exc:
        raise ConfigError(f"bad [shift] section in {path}: {exc}") from exc

    grid = GridSpec(**_read_section(parser, "grid", path, {
        "learning_rates": parse_floats, "l2s": parse_floats, "batch_sizes": _batches,
        "snapshot_epochs": _ints, "n_seeds": int}))
    analysis = AnalysisOptions(**_read_section(parser, "analysis", path, {
        "probit_eps": float, "n_pairs": int, "pair_seed": int, "margin": float,
        "spline_lambda": lambda raw: raw if raw == "gcv" else float(raw)}))
    analysis.validate()
    out_dir = _read_section(parser, "output", path, {"dir": Path}).get("dir", Path("out"))
    series = None
    if "series" in parser:
        series = SeriesSpec(**_read_section(parser, "series", path,
                                            {"knob": str, "values": parse_floats}))

    try:
        grid_hp = grid.build(spec.master_seed)
        if not grid_hp:
            raise InvalidSpecError("the hyperparameter grid is empty")
        if len({hp.cell_id() for hp in grid_hp}) != len(grid_hp):
            raise InvalidSpecError("two cells share a cell ID: values repeat, "
                                   "or agree to the 6 significant digits it prints")
        for hp in grid_hp:
            hp.validate()
    except InvalidSpecError as exc:
        raise ConfigError(f"bad [grid] section in {path}: {exc}") from exc

    return ExperimentConfig(shift=spec, grid=grid, analysis=analysis,
                            out_dir=out_dir, series=series)


def _num(value: float) -> str:
    # repr is the shortest string that parses back to the same double.
    return repr(float(value))


def write_config(config: ExperimentConfig, path: str | Path) -> None:
    """Serialize a config; load_config(write_config(c)) reproduces c."""
    spec = config.shift
    lines = ["[shift]"]
    for name in ("d_core", "d_spu", "n_train", "n_id_test", "n_ood_test",
                 "k_groups", "master_seed"):
        lines.append(f"{name}={getattr(spec, name)}")
    for name in ("sigma_core", "sigma_spu", "p_maj", "pi1", "pi0", "p_y1"):
        value = getattr(spec, name)
        if value is not None:
            lines.append(f"{name}={_num(value)}")
    for name in ("r_tr", "r_ts"):
        value = getattr(spec, name)
        if value is not None:
            lines.append(f"{name}={','.join(_num(v) for v in value)}")

    g = config.grid
    lines += ["", "[grid]",
              f"learning_rates={','.join(_num(v) for v in g.learning_rates)}",
              f"l2s={','.join(_num(v) for v in g.l2s)}",
              f"batch_sizes={','.join(str(b) for b in g.batch_sizes)}",
              f"snapshot_epochs={','.join(str(e) for e in g.snapshot_epochs)}",
              f"n_seeds={g.n_seeds}"]

    a = config.analysis
    lines += ["", "[analysis]",
              f"probit_eps={_num(a.probit_eps)}",
              f"spline_lambda={a.spline_lambda if a.spline_lambda == 'gcv' else _num(a.spline_lambda)}",
              f"n_pairs={a.n_pairs}",
              f"margin={_num(a.margin)}"]
    if a.pair_seed is not None:
        lines.append(f"pair_seed={a.pair_seed}")

    lines += ["", "[output]", f"dir={config.out_dir}"]

    if config.series is not None:
        lines += ["", "[series]", f"knob={config.series.knob}",
                  f"values={','.join(_num(v) for v in config.series.values)}"]
    Path(path).write_text("\n".join(lines) + "\n")
