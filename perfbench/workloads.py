"""The benchmark's workloads, their output checks and fingerprints.

Every workload drives shiftlab through its public entry point,
``shiftlab.cli.main``, on a config that set-up writes and loads back.  The
workload seed becomes the config's ``master_seed`` and seeds the theory
draws, so one seed gives the same inputs and, on one machine and BLAS
kernel, the same outputs.

Why these two (see also ``BENCHMARK.json``):

* ``flagship_sweep`` is one seed of the ROADMAP's flagship sweep: the
  acceptance shift and the default grid with ``n_seeds=1`` (30 of its 150
  cells, 210 snapshots, about 11 s).  SGD is about 70% of it, so trainer
  changes show here.  The full 150-cell sweep takes about 47 s, so a run
  could time it only once; four to six one-seed sweeps give a median instead.
* ``fullbatch_widepool`` runs no SGD: a wide spurious block and a 25k-row
  test pool put the time into dataset CSV writes, full-batch GD, prediction
  bit-strings and prediction.  Full-batch GD ignores the seed, so its two
  seeds train the same snapshots: 95 of its 210 are distinct.
  It then reads its artifacts back (analyze, agreement) and runs the theory
  checks, so the read side and the analysis and theory modules are measured
  too, and a writer change that saves on writes but costs on reads shows as
  one net change.

A third workload, ``reanalysis``, ran the read side alone in a 15 s window.
It was dropped as unsteady: host speed on the test machine shifts by up to
1.8x for seconds to minutes at a time, and one batch of ten runs spread 0.26
of its median.  Its read side now runs inside ``fullbatch_widepool``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

AGREEMENT_VERDICTS = ("agreement-overestimates", "aligned", "mixed",
                      "insufficient-points", "disjoint-ranges")
CURVATURE_RTOL = 1e-6  # analyze re-reads results.csv at 12 significant digits
REWEIGHT_TOL = 1e-9
MIN_CONSISTENT_FRAC = 0.9

# The acceptance BASE_SHIFT; "tiny" shrinks it for the benchmark's self-test.
_BASE_SHIFT = dict(d_core=100, d_spu=10, sigma_core=10.0, sigma_spu=1.0,
                   n_train=3000, p_maj=0.9)
_TINY_N_TRAIN = 400
_TINY_GRID = dict(learning_rates=(1e-3, 1e-2, 1e-1), l2s=(0.0,),
                  snapshot_epochs=(1, 2, 5), n_seeds=2)


def fresh_import():
    """Import shiftlab anew (numpy stays loaded) and return its modules."""
    for name in [m for m in sys.modules if m == "shiftlab" or m.startswith("shiftlab.")]:
        del sys.modules[name]
    importlib.import_module("shiftlab.cli")
    names = ("cli", "config", "harness", "datagen", "trainer", "evaluator",
             "analysis", "theory", "svg", "errors")
    return SimpleNamespace(**{n: sys.modules[f"shiftlab.{n}"] for n in names})


def call_cli(lab, argv: list[str]) -> int:
    """One CLI operation; its printing is swallowed, a crash counts as failed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return lab.cli.main(argv)
    except Exception:  # the run goes on and reports the operation as failed
        traceback.print_exc()
        return -1


def render_ini(cfg) -> str:
    """``cfg`` as a config file whose floats keep every digit.

    ``config.write_config`` prints floats at 12 significant digits, which
    moves the default log-spaced learning rates; this keeps the sweep the
    CLI runs identical to the in-memory one.
    """
    def text(v) -> str:
        if isinstance(v, tuple):
            return ",".join(text(x) for x in v)
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    lines = []
    for section, obj in (("shift", cfg.shift), ("grid", cfg.grid), ("analysis", cfg.analysis)):
        lines.append(f"[{section}]")
        lines += [f"{f.name}={text(getattr(obj, f.name))}" for f in fields(obj)
                  if getattr(obj, f.name) is not None]
    lines += ["[output]", f"dir={cfg.out_dir}"]
    return "\n".join(lines) + "\n"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class State:
    """What set-up built and what the units and checks share."""

    lab: SimpleNamespace
    config: object
    ini: Path
    work: Path
    seed: int
    tiny: bool
    exit_codes: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _safe(name: str, fn) -> Check:
    """Run one check; a missing or malformed file fails it, not the run."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return Check(name, bool(ok), detail)


def _report_fingerprint(lab, report: dict) -> dict:
    lam = report["spline"]["lambda"] if report.get("spline") else None
    grid = lab.analysis.GCV_GRID
    edge = lam is not None and any(math.isclose(lam, g, rel_tol=1e-9)
                                   for g in (grid[0], grid[-1]))
    return {"beta2": report["quad_fit"]["beta2"], "probit_r2": report["probit_fit"]["r2"],
            "gcv_lambda": lam, "lambda_at_grid_edge": edge}


def full_unique_frac(out: Path) -> float:
    """Distinct full-batch snapshots over full-batch snapshots in the store."""
    full = {r["model_id"] for r in _read_csv(out / "models.csv") if r["batch_size"] == "full"}
    with open(out / "weights.csv", newline="") as fh:
        rows = [tuple(r[1:]) for r in csv.reader(fh) if r[0] in full]
    return len(set(rows)) / len(rows) if rows else 0.0


def sweep_checks(state: State, crescent: bool) -> list[Check]:
    lab, cfg, out, codes = state.lab, state.config, state.config.out_dir, state.exit_codes
    n_cells = len(cfg.grid.build(cfg.shift.master_seed))
    n_snap = len(cfg.grid.snapshot_epochs)

    def artifacts():
        missing = [a for a in lab.harness.SWEEP_ARTIFACTS if not (out / a).is_file()]
        return not missing, f"missing {missing}" if missing else "all present"

    def row_count():
        failures = out / "failures.csv"
        n_failed = len(_read_csv(failures)) if failures.exists() else 0
        want = (n_cells - n_failed) * n_snap
        got = len(_read_csv(out / "results.csv"))
        models = len(_read_csv(out / "models.csv"))
        return got == want == models, f"results {got}, models {models}, expected {want}"

    def accuracies():
        r_tr, r_ts = cfg.shift.train_weights(), cfg.shift.ood_weights()
        worst = 0.0
        for row in _read_csv(out / "results.csv"):
            acc = [float(row[f"group_acc_{g}"]) for g in range(len(r_tr))]
            if not all(0.0 <= a <= 1.0 for a in acc):
                return False, f"{row['model_id']} group_acc {acc} outside [0, 1]"
            worst = max(worst,
                        abs(float(row["id_acc"]) - sum(w * a for w, a in zip(r_tr, acc))),
                        abs(float(row["ood_acc"]) - sum(w * a for w, a in zip(r_ts, acc))))
        return worst <= REWEIGHT_TOL, f"largest reweighting error {worst:.3g}"

    checks = [
        Check("exit_code", all(c == 0 for c in codes), f"exit codes {sorted(set(codes))}"),
        _safe("artifacts_present", artifacts),
        _safe("results_rows", row_count),
        _safe("accuracies", accuracies),
    ]
    if crescent:
        def bends():
            beta2 = json.loads((out / "report.json").read_text())["quad_fit"]["beta2"]
            return beta2 > 0.0, f"beta2 {beta2:.6g}"
        checks.append(_safe("crescent", bends))
    return checks


class SweepWorkload:
    """A CLI sweep per unit, optionally followed by reading its artifacts back.

    Every grid cell is one operation, and so is every later CLI call.
    """

    n_pairs, n_populations, mc_samples, n_thresholds = 500, 10, 1_000_000, 1001

    def __init__(self, name: str, d_spu: int, n_ood_test: int, batch_sizes: tuple,
                 n_seeds: int, crescent: bool, read_back: bool):
        self.name = name
        self.shift = dict(_BASE_SHIFT, d_spu=d_spu, n_ood_test=n_ood_test)
        self.batch_sizes = batch_sizes
        self.n_seeds = n_seeds
        self.crescent = crescent
        self.read_back = read_back

    def config(self, lab, seed: int, tiny: bool, out: Path):
        shift = dict(self.shift, master_seed=seed)
        grid = dict(batch_sizes=self.batch_sizes, n_seeds=self.n_seeds)
        if tiny:
            shift.update(n_train=_TINY_N_TRAIN, n_ood_test=shift["n_ood_test"] // 10)
            grid.update(_TINY_GRID)
        analysis = lab.config.AnalysisOptions(n_pairs=50 if tiny else self.n_pairs)
        return lab.config.ExperimentConfig(shift=lab.datagen.ShiftSpec(**shift),
                                           grid=lab.config.GridSpec(**grid),
                                           analysis=analysis, out_dir=out)

    def _theory_argv(self, state: State) -> list[list[str]]:
        rng = np.random.default_rng([state.seed, 0x7468656F7279])
        n, samples, thresholds = ((2, 10_000, 11) if state.tiny else
                                  (self.n_populations, self.mc_samples, self.n_thresholds))
        argv = []
        for k in range(n):
            p_y1, pi1, pi0, threshold = (rng.uniform(0.3, 0.7), rng.uniform(0.55, 0.95),
                                         rng.uniform(0.05, 0.45), rng.uniform(-0.5, 0.5))
            argv.append(["theory", "--p-y1", repr(p_y1), "--pi1", repr(pi1),
                         "--pi0", repr(pi0), "--threshold", repr(threshold),
                         "--n-thresholds", str(thresholds), "--mc-samples", str(samples),
                         "--seed", str(int(rng.integers(2**31))),
                         "--out", str(state.work / f"theory_{k}")])
        return argv

    def prepare(self, state: State) -> None:
        """The CLI calls that read the sweep's artifacts back."""
        state.extra["analyze_out"] = state.work / "analyze"
        state.extra["argv"] = ([
            ["analyze", "--config", str(state.ini), "--out", str(state.extra["analyze_out"]),
             "--results", str(state.config.out_dir / "results.csv")],
            ["agreement", "--config", str(state.ini)],
        ] + self._theory_argv(state)) if self.read_back else []

    def unit(self, state: State) -> tuple[int, int]:
        code = call_cli(state.lab, ["sweep", "--config", str(state.ini)])
        n_cells = len(state.config.grid.build(state.seed))
        failures = state.config.out_dir / "failures.csv"
        failed = n_cells if code != 0 else (len(_read_csv(failures)) if failures.exists() else 0)
        codes = [call_cli(state.lab, argv) for argv in state.extra["argv"]]
        state.exit_codes += [code] + codes
        return n_cells + len(codes), failed + sum(c != 0 for c in codes)

    def _consistent_frac(self, state: State) -> float:
        """Share of theory populations whose closed form is within 3 SE of Monte Carlo."""
        verdicts = [json.loads((Path(argv[-1]) / "theory_summary.json").read_text())["verdict"]
                    for argv in state.extra["argv"] if argv[0] == "theory"]
        return verdicts.count("consistent") / len(verdicts)

    def checks(self, state: State) -> list[Check]:
        out = state.config.out_dir
        checks = sweep_checks(state, self.crescent)
        if not self.read_back:
            return checks

        def curvature():
            want = json.loads((out / "report.json").read_text())["quad_fit"]["beta2"]
            got = json.loads((state.extra["analyze_out"] / "report.json").read_text())
            got = got["quad_fit"]["beta2"]
            return (abs(got - want) <= CURVATURE_RTOL * max(1.0, abs(want)),
                    f"analyze beta2 {got:.9g}, sweep beta2 {want:.9g}")

        def verdict():
            v = json.loads((out / "agreement_report.json").read_text()).get("verdict")
            return v in AGREEMENT_VERDICTS, f"verdict {v!r}"

        def consistency():
            frac = self._consistent_frac(state)
            return frac >= MIN_CONSISTENT_FRAC, f"consistent_frac {frac:.3g}"

        return checks + [_safe("analyze_curvature", curvature),
                         _safe("agreement_verdict", verdict),
                         _safe("theory_consistent", consistency)]

    def fingerprint(self, state: State) -> dict:
        out = state.config.out_dir
        report = json.loads((out / "report.json").read_text())
        fingerprint = _report_fingerprint(state.lab, report)
        fingerprint["full_unique_frac"] = full_unique_frac(out)
        if self.read_back:
            agreement = json.loads((out / "agreement_report.json").read_text())
            fingerprint["agreement_verdict"] = agreement.get("verdict")
            fingerprint["theory_consistent_frac"] = self._consistent_frac(state)
        return fingerprint


WORKLOADS = {w.name: w for w in (
    SweepWorkload("flagship_sweep", d_spu=10, n_ood_test=10_000,
                  batch_sizes=("full", 32), n_seeds=1, crescent=True, read_back=False),
    SweepWorkload("fullbatch_widepool", d_spu=50, n_ood_test=25_000,
                  batch_sizes=("full",), n_seeds=2, crescent=False, read_back=True),
)}
