"""Span tracing of shiftlab's layers, done from outside the package.

The tracer replaces the module attributes and methods that the pipelines
call (``trainer.train``, ``ModelRecord.predict``, ``datagen.write_dataset_csv``,
``theory.monte_carlo_gap`` and so on) with wrappers that record a span per
call: its metric key, layer, start, end and parent span.  Nothing under
``src/`` changes; the wrappers are removed again by :meth:`Tracer.uninstall`.

A pipeline looks these names up at call time (``datagen.generate(...)`` inside
``harness``, ``train(...)`` inside ``trainer.sweep``), so patching the module
attribute is enough to see every call.  ``cli`` imports ``load_config`` by
name, so that reference is patched on ``cli`` itself.

Spans stay in memory; :meth:`Tracer.spans_json` renders them when the run
ends.  A layer's self time is the summed duration of its spans minus the time
covered by their child spans, so the layers' self times add up to the traced
wall time, less the benchmark's own glue.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("datagen", "trainer", "evaluator", "analysis", "theory", "harness",
          "config", "svg")

# Per-layer metrics and their units.  Which end-to-end metric and workload
# each should move is tabled in README.md.
PER_LAYER = {
    "datagen.generate_s": "s",
    "datagen.write_csv_s": "s",
    "datagen.read_csv_s": "s",
    "datagen.rows": "count",
    "datagen.csv_mb": "MB",
    "datagen.self_s": "s",
    "trainer.sgd_s": "s",
    "trainer.sgd_us_per_step": "us",
    "trainer.full_s": "s",
    "trainer.steps": "count",
    "trainer.full_unique_frac": "frac",
    "trainer.cells_failed": "count",
    "trainer.store_write_s": "s",
    "trainer.store_mb": "MB",
    "trainer.self_s": "s",
    "evaluator.predict_s": "s",
    "evaluator.bits_s": "s",
    "evaluator.score_s": "s",
    "evaluator.write_s": "s",
    "evaluator.read_s": "s",
    "evaluator.rows_scored": "count",
    "evaluator.self_s": "s",
    "analysis.fit_curves_s": "s",
    "analysis.spline_s": "s",
    "analysis.spline_knots": "count",
    "analysis.self_s": "s",
    "theory.mc_s": "s",
    "theory.roc_s": "s",
    "theory.mc_samples": "count",
    "theory.consistent_frac": "frac",
    "theory.self_s": "s",
    "harness.write_s": "s",
    "harness.artifact_mb": "MB",
    "harness.self_s": "s",
    "config.load_s": "s",
    "svg.render_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "frac",
    "failed_frac": "frac",
    "check_failures": "count",
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


def _size_mb(*paths) -> float:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists()) / 1e6


class Tracer:
    """Records spans around calls into the instrumented shiftlab attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner, attr: str, key, hook=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``key`` is the span name, or a function of the bound arguments that
        returns it; the layer is the part before the first dot.  ``hook`` is
        called as ``hook(arguments, result, exception)`` after the call, to
        record counts.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            name = key(bound) if callable(key) else key
            result = exc = None
            with tracer.span(name, name.split(".", 1)[0]):
                try:
                    result = original(*args, **kwargs)
                except Exception as err:
                    exc = err
                    raise
                finally:
                    if hook is not None:
                        hook(bound, result, exc)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, lab) -> None:
        """Instrument every layer boundary the workloads cross."""
        c = self.counts
        full_seen: set[bytes] = set()

        def on_dataset(bound, result, exc):
            if result is not None:
                c["datagen.rows"] += result.n_rows
            if "path" in bound:
                c["datagen.csv_mb"] += _size_mb(bound["path"])

        def train_key(bound):
            full = bound["hp"].batch_size == lab.trainer.FULL_BATCH
            return "trainer.full_s" if full else "trainer.sgd_s"

        def on_train(bound, records, exc):
            hp, n = bound["hp"], bound["dataset"].n_rows
            full = hp.batch_size == lab.trainer.FULL_BATCH
            epochs = exc.epoch if isinstance(exc, lab.errors.DivergenceError) \
                else hp.snapshot_epochs[-1]
            steps = epochs * (1 if full else -(-n // int(hp.batch_size)))
            c["trainer.steps"] += steps
            c["trainer.sgd_steps"] += 0 if full else steps
            if exc is not None:
                c["trainer.cells_failed"] += 1
            elif full:
                for r in records:
                    full_seen.add(r.weights.tobytes() + repr(r.bias).encode())
                c["trainer.full_snapshots"] += len(records)
                c["trainer.full_unique"] = len(full_seen)

        def on_store(bound, result, exc):
            c["trainer.store_mb"] += _size_mb(bound["models_path"], bound["weights_path"])

        def on_score(bound, result, exc):
            c["evaluator.rows_scored"] += len(bound["preds"])

        def on_spline(bound, result, exc):
            if exc is None:
                c["analysis.spline_knots"] += bound["self"].knots.size

        def on_mc(bound, result, exc):
            c["theory.mc_samples"] += bound["n_samples"]

        def on_summary(bound, result, exc):
            c["theory.summaries"] += 1
            c["theory.consistent"] += result is not None and result["verdict"] == "consistent"

        def on_atomic(bound, result, exc):
            c["harness.artifact_mb"] += _size_mb(bound["path"])

        def on_store_atomic(bound, result, exc):
            out = Path(bound["out_dir"])
            c["harness.artifact_mb"] += _size_mb(out / "models.csv", out / "weights.csv")

        self.wrap(lab.cli, "main", "harness.cli")
        self.wrap(lab.cli, "load_config", "config.load_s")
        self.wrap(lab.harness, "run_sweep_pipeline", "harness.sweep")
        self.wrap(lab.harness, "run_agreement_pipeline", "harness.agreement")
        self.wrap(lab.harness, "_atomic", "harness.write_s", on_atomic)
        self.wrap(lab.harness, "_atomic_text", "harness.write_s")
        self.wrap(lab.harness, "_write_model_store_atomic", "harness.write_s", on_store_atomic)
        self.wrap(lab.datagen, "generate", "datagen.generate_s", on_dataset)
        self.wrap(lab.datagen, "write_dataset_csv", "datagen.write_csv_s", on_dataset)
        self.wrap(lab.datagen, "read_dataset_csv", "datagen.read_csv_s", on_dataset)
        self.wrap(lab.trainer, "train", train_key, on_train)
        self.wrap(lab.trainer, "write_model_store", "trainer.store_write_s", on_store)
        self.wrap(lab.trainer.ModelRecord, "predict", "evaluator.predict_s")
        self.wrap(lab.evaluator, "evaluate_predictions", "evaluator.score_s", on_score)
        self.wrap(lab.evaluator, "predictions_bits", "evaluator.bits_s")
        for name in ("write_results_csv", "write_preds_csv", "write_agreement_csv"):
            self.wrap(lab.evaluator, name, "evaluator.write_s")
        for name in ("read_results_csv", "read_preds_csv", "bits_to_predictions"):
            self.wrap(lab.evaluator, name, "evaluator.read_s")
        self.wrap(lab.analysis, "fit_curves", "analysis.fit_curves_s")
        self.wrap(lab.analysis.SmoothingSpline, "__init__", "analysis.spline_s", on_spline)
        self.wrap(lab.analysis.SmoothingSpline, "predict", "analysis.spline_s")
        self.wrap(lab.theory, "gap_summary", "theory.gap_summary", on_summary)
        self.wrap(lab.theory, "monte_carlo_gap", "theory.mc_s", on_mc)
        self.wrap(lab.theory, "roc_traverse", "theory.roc_s")
        self.wrap(lab.svg, "render_scatter", "svg.render_s")

    # -- results -----------------------------------------------------------

    def _durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive time per span name and self time per layer.

        A span nested inside another of the same name (``_atomic_text``
        calling ``_atomic``) is not counted twice in the inclusive total.
        """
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            self_time[span.layer] += duration - child_time[i]
            ancestor = span.parent
            while ancestor is not None and self.spans[ancestor].name != span.name:
                ancestor = self.spans[ancestor].parent
            if ancestor is None:
                inclusive[span.name] += duration
        return inclusive, self_time

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric except the run-level ``failed_frac`` and
        ``check_failures``, which the caller adds."""
        inclusive, self_time = self._durations()
        c = self.counts
        out = {}
        for name, unit in PER_LAYER.items():
            if unit == "s" and name.split(".")[0] in LAYERS and not name.endswith(".self_s"):
                out[name] = inclusive.get(name, 0.0)
        for layer in LAYERS:
            if f"{layer}.self_s" in PER_LAYER:
                out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        for name in ("datagen.rows", "datagen.csv_mb", "trainer.steps",
                     "trainer.cells_failed", "trainer.store_mb",
                     "evaluator.rows_scored", "analysis.spline_knots",
                     "theory.mc_samples", "harness.artifact_mb"):
            out[name] = c[name]
        out["trainer.sgd_us_per_step"] = (1e6 * out["trainer.sgd_s"] / c["trainer.sgd_steps"]
                                          if c["trainer.sgd_steps"] else 0.0)
        out["trainer.full_unique_frac"] = (c["trainer.full_unique"] / c["trainer.full_snapshots"]
                                           if c["trainer.full_snapshots"] else 0.0)
        out["theory.consistent_frac"] = (c["theory.consistent"] / c["theory.summaries"]
                                         if c["theory.summaries"] else 0.0)
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.accounted_frac"] = sum(self_time.get(l, 0.0) for l in LAYERS) / traced_wall
        return out

    def spans_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
