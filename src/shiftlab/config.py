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

from .analysis import PROBIT_EPS_DEFAULT
from .datagen import ShiftSpec, format_sig, mixture_table
from .errors import ConfigError, InfeasibleMarginalsError, InvalidSpecError
from .rng import derive_stream
from .trainer import FULL_BATCH, HyperParams, check_grid

SERIES_KNOBS = ("sdr", "p_maj", "correlation_level")


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
                            snapshot_epochs=self.snapshot_epochs, seed=seed)
                for lr in self.learning_rates for l2 in self.l2s
                for bs in self.batch_sizes for seed in seeds]

    @property
    def n_snapshots(self) -> int:
        return (len(self.learning_rates) * len(self.l2s) * len(self.batch_sizes)
                * self.n_seeds * len(self.snapshot_epochs))


@dataclass(frozen=True)
class AnalysisOptions:
    probit_eps: float = PROBIT_EPS_DEFAULT
    spline_lambda: float | str = "gcv"
    n_pairs: int = 500
    pair_seed: int | None = None
    margin: float = 0.02

    def validate(self) -> None:
        """Range-check the options the analysis stage reads after training."""
        if not 0.0 < self.probit_eps < 0.5:
            raise ConfigError(f"[analysis] probit_eps must be in (0, 0.5), got {self.probit_eps}")
        if self.spline_lambda != "gcv" and not 0.0 < self.spline_lambda < np.inf:
            raise ConfigError("[analysis] spline_lambda must be 'gcv' or finite and > 0, "
                              f"got {self.spline_lambda}")
        if self.n_pairs < 1:
            raise ConfigError(f"[analysis] n_pairs must be at least 1, got {self.n_pairs}")
        if self.pair_seed is not None and self.pair_seed < 0:
            raise ConfigError(f"[analysis] pair_seed must be >= 0, got {self.pair_seed}")
        if not np.isfinite(self.margin):
            raise ConfigError(f"[analysis] margin must be finite, got {self.margin}")


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
                       master_seed: int | None = None, n_pairs: int | None = None,
                       pair_seed: int | None = None) -> "ExperimentConfig":
        """This config with each setting given (not None) replaced, unchecked."""
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=Path(out_dir))
        if master_seed is not None:
            cfg = replace(cfg, shift=replace(cfg.shift, master_seed=master_seed))
        analysis = {k: v for k, v in (("n_pairs", n_pairs), ("pair_seed", pair_seed))
                    if v is not None}
        return replace(cfg, analysis=replace(cfg.analysis, **analysis))

    def validate(self) -> None:
        """Check every run setting before any compute: ConfigError, or a spec check's
        own error led by its section (``[shift]``, ``[grid]``, ``[series] knob=value:``)."""
        label = "[shift]"
        try:
            self.shift.validate()
            for g, cell in enumerate(self.shift.group_label_counts("ood_test")):
                if sum(cell) == 0:
                    raise InvalidSpecError(f"group {g} gets no rows of the OOD pool "
                                           f"(n_ood_test={self.shift.n_ood_test})")
            label = "[grid]"
            check_grid(self.grid.build(self.shift.master_seed))
            self.analysis.validate()
            values = list(self.series.values) if self.series else []
            if not np.all(np.isfinite(values)) or sorted(values) != values:
                raise ConfigError(f"[series] values must be finite and ascending, got {values}")
            tags = [_knob_tag(v) for v in values]
            if len(set(tags)) != len(tags):
                raise ConfigError("[series] values must differ in the 6 significant digits "
                                  f"their output directories are named by, got {values}")
            for value in values:  # an empty list is left to the series command
                label = f"[series] {self.series.knob}={value:g}:"
                _spec_for_knob(self.shift, self.series.knob, value).validate()
        except (InvalidSpecError, InfeasibleMarginalsError) as exc:
            raise type(exc)(f"{label} {exc}") from exc


def _knob_tag(value: float) -> str:
    """The name a series value's output directory ends in, as in ``p_maj_0p7``."""
    return format_sig(value, 6).replace(".", "p").replace("-", "m")


def _spec_for_knob(spec: ShiftSpec, knob: str, value: float) -> ShiftSpec:
    if knob == "sdr":
        return replace(spec, d_spu=int(round(value * spec.d_core)))
    if knob == "p_maj":
        if spec.mode != "majority":
            raise ConfigError("p_maj series requires a majority-mode base spec")
        return replace(spec, p_maj=float(value))
    if knob == "correlation_level":
        if spec.mode != "attribute":
            raise ConfigError("correlation_level series requires pi1/pi0 in the base spec")
        if not 0.0 <= value <= 1.0:
            raise InvalidSpecError(f"correlation_level must be in [0, 1], got {value}")
        (c00, c01), (c10, c11) = mixture_table(spec.n_train, spec.p_y1, spec.p_z1,
                                               float(value)).tolist()
        return replace(spec, pi1=c11 / (c10 + c11), pi0=c01 / (c00 + c01))
    raise ConfigError(f"unknown series knob {knob!r}; expected one of {SERIES_KNOBS}")


def _listed(parse):
    """A reader of comma-separated values, each read by ``parse``; empty items are skipped."""
    return lambda raw: tuple(parse(v.strip()) for v in raw.split(",") if v.strip())


parse_floats = _listed(float)  # weight and [grid] float lists, [series] values and --values

_SHIFT_READERS = {
    **dict.fromkeys(("d_core", "d_spu", "n_train", "n_id_test", "n_ood_test", "k_groups",
                     "master_seed"), int),
    **dict.fromkeys(("sigma_core", "sigma_spu", "p_maj", "pi1", "pi0", "p_y1"), float),
    "r_tr": parse_floats, "r_ts": parse_floats,
}


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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    parser.optionxform = str  # keep key case
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if "shift" not in parser:
        raise ConfigError(f"{path} is missing the [shift] section")

    try:
        spec = ShiftSpec(**_read_section(parser, "shift", path, _SHIFT_READERS))
    except TypeError as exc:  # a missing key
        raise ConfigError(f"bad [shift] {exc} (in {path})") from exc

    grid = GridSpec(**_read_section(parser, "grid", path, {
        "learning_rates": parse_floats, "l2s": parse_floats, "snapshot_epochs": _listed(int),
        "batch_sizes": _listed(lambda v: v if v == FULL_BATCH else int(v)), "n_seeds": int}))
    analysis = AnalysisOptions(**_read_section(parser, "analysis", path, {
        "probit_eps": float, "n_pairs": int, "pair_seed": int, "margin": float,
        "spline_lambda": lambda raw: raw if raw == "gcv" else float(raw)}))
    out_dir = _read_section(parser, "output", path, {"dir": Path}).get("dir", Path("out"))
    series = None
    if "series" in parser:
        series = SeriesSpec(**_read_section(parser, "series", path,
                                            {"knob": str, "values": parse_floats}))
    config = ExperimentConfig(shift=spec, grid=grid, analysis=analysis,
                              out_dir=out_dir, series=series)
    try:
        config.validate()
    except (InvalidSpecError, InfeasibleMarginalsError) as exc:
        raise ConfigError(f"bad {exc} (in {path})") from exc
    return config
