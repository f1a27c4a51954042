"""The benchmark's tracer (``perfbench/spans.py``) wraps shiftlab names by
attribute lookup, so a renamed or deleted name breaks the traced benchmark
run; this checks that every wrapped name exists and is restored."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from shiftlab import (analysis, cli, config, datagen, errors, evaluator, harness, svg,
                      theory, trainer)

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_uninstall_restores_it():
    lab = SimpleNamespace(cli=cli, config=config, harness=harness, datagen=datagen,
                          trainer=trainer, evaluator=evaluator, analysis=analysis,
                          theory=theory, svg=svg, errors=errors)
    owners = [*vars(lab).values(), trainer.ModelRecord, analysis.SmoothingSpline]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_spans().Tracer()
    try:
        tracer.install(lab)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            wrapper = vars(owner)[attr]
            assert wrapper is not original and wrapper.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items()), owner
