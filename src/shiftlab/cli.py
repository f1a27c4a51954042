"""Command-line front end.

Subcommands: gen-data, sweep, analyze, series, agreement, theory, plot.
Exit codes: 1 configuration error, 2 data generation, 3 training,
4 analysis, 5 I/O.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import analysis, evaluator, harness, theory
from .config import SERIES_KNOBS, ExperimentConfig, load_config, parse_floats
from .errors import AnalysisError, ConfigError, InvalidSpecError, MissingInputsError, ShiftLabError

EXIT_IO = 5


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="output directory override")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master seed override")


def _load(args) -> ExperimentConfig:
    return load_config(args.config).with_overrides(
        out_dir=args.out, master_seed=getattr(args, "seed", None),
        n_pairs=getattr(args, "pairs", None), pair_seed=getattr(args, "pair_seed", None))


@functools.cache  # main parses every call with the one parser a process builds
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shiftlab",
                                     description="subpopulation-shift sweep laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write train/id_test/ood_test CSVs")
    _add_common(p)

    p = sub.add_parser("sweep", help="run the full sweep pipeline")
    _add_common(p)

    p = sub.add_parser("analyze", help="re-fit curves from an existing results.csv")
    _add_common(p, seed=False)
    p.add_argument("--results", default=None, help="results.csv path (default: <out>/results.csv)")

    p = sub.add_parser("series", help="run a knob series of sweeps")
    _add_common(p)
    p.add_argument("--knob", choices=SERIES_KNOBS, default=None)
    p.add_argument("--values", default=None, help="comma-separated knob values")

    p = sub.add_parser("agreement", help="paired-model agreement overlay")
    _add_common(p)
    p.add_argument("--pairs", type=int, default=None, help="number of model pairs")
    p.add_argument("--pair-seed", type=int, default=None)

    p = sub.add_parser("theory", help="closed-form gap, Monte Carlo check, ROC traversal")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("--p-y1", type=float, default=0.5)
    p.add_argument("--pi1", type=float, default=0.9)
    p.add_argument("--pi0", type=float, default=0.3)
    p.add_argument("--mu0", type=float, default=-1.0)
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--s1", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--n-thresholds", type=int, default=101)
    p.add_argument("--mc-samples", type=int, default=1_000_000)

    p = sub.add_parser("plot", help="moon.svg, with its curve fits, from an existing results.csv")
    _add_common(p, seed=False)
    p.add_argument("--results", default=None)

    return parser


def _results_fit(config: ExperimentConfig, args) -> tuple[np.ndarray, analysis.CurveReport]:
    """The moon-axis points of ``results.csv`` and their curve fits."""
    results_path = Path(args.results) if args.results else config.out_dir / "results.csv"
    if not results_path.exists():
        raise MissingInputsError(f"{results_path} not found; run the sweep first")
    columns = tuple(f"group_acc_{g}" for g in harness.moon_axis_groups(config.shift))
    rows = evaluator.read_results_csv(results_path, columns)
    if not rows:
        raise AnalysisError(f"{results_path} has no rows")
    try:
        points = np.array([[float(r[c]) for c in columns] for r in rows])
    except ValueError as exc:
        raise InvalidSpecError(f"{results_path}: bad accuracy value: {exc}") from exc
    harness.check_out_dir(config.out_dir)
    return points, analysis.fit_curves(points, probit_eps=config.analysis.probit_eps,
                                       spline_lambda=config.analysis.spline_lambda)


def _cmd_gen_data(args) -> int:
    config = _load(args)
    for path in harness.run_gen_data(config):
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    out = harness.run_sweep_pipeline(config)
    q = out.report.quad_fit
    print(f"sweep: {len(out.evals)} snapshots -> {out.out_dir}")
    print(f"curvature beta2 = {q.beta2:.6g} (se {q.se_beta2:.3g}), "
          f"probit R^2 = {out.report.probit_fit.r2:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    config = _load(args)
    _, report = _results_fit(config, args)
    harness._atomic(config.out_dir / "report.json",
                    lambda p: analysis.dump_json(report.to_dict(), p))
    print(config.out_dir / "report.json")
    return 0


def _cmd_series(args) -> int:
    config = _load(args)
    knob = args.knob or (config.series.knob if config.series else None)
    values = list(config.series.values) if config.series else None
    if args.values:
        try:
            values = list(parse_floats(args.values))
        except ValueError as exc:
            raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
    if not knob or not values:
        raise ConfigError("series needs --knob/--values or a [series] config section")
    summary = harness.run_spurious_series(config, knob, values)
    for row in summary["sweeps"]:
        print(f"{knob}={row['value']:g}: curvature={row['curvature']:.5g} "
              f"probit_r2={row['probit_r2']:.4f}")
    return 0


def _cmd_agreement(args) -> int:
    out = harness.run_agreement_pipeline(_load(args))
    print(f"agreement verdict: {out.verdict.get('verdict')}")
    return 0


def _cmd_theory(args) -> int:
    pop = theory.PopulationSpec(p_y1=args.p_y1, pi1=args.pi1, pi0=args.pi0)
    score = theory.ScoreModel(mu0=args.mu0, mu1=args.mu1, s0=args.s0, s1=args.s1)
    theory.check_thresholds(args.n_thresholds)
    theory.check_gap_inputs(args.threshold, args.mc_samples, args.seed)
    out_dir = Path(args.out)
    harness.check_out_dir(out_dir)
    summary = theory.gap_summary(pop, score, args.threshold,
                                 n_samples=args.mc_samples, seed=args.seed)
    points = theory.roc_traverse(pop, score, n_thresholds=args.n_thresholds)

    def write_both(traversal: Path, summary_path: Path) -> None:
        theory.write_traversal_csv(points, traversal)
        analysis.dump_json(summary, summary_path)

    harness._atomic_set([out_dir / "roc_traversal.csv", out_dir / "theory_summary.json"],
                        write_both)
    print(out_dir / "roc_traversal.csv")
    print(out_dir / "theory_summary.json")
    print(f"closed-form gap {summary['closed_form_gap']:.6f}, "
          f"MC {summary['mc_gap']:.6f} +/- {summary['mc_se']:.6f} "
          f"({summary['verdict']})")
    return 0


def _cmd_plot(args) -> int:
    config = _load(args)
    points, report = _results_fit(config, args)
    print(harness.write_moon_svg(config.out_dir, points, report))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "series": _cmd_series,
    "agreement": _cmd_agreement,
    "theory": _cmd_theory,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ShiftLabError as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
