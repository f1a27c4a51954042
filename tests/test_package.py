"""Package hygiene: ``src/shiftlab`` stays numpy-only, and its exports resolve."""

import ast
import sys
from pathlib import Path

import shiftlab

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftlab"


def test_src_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "shiftlab"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert len(list(SRC.glob("*.py"))) > 1
    assert outside == []


def test_every_exported_name_resolves():
    assert [name for name in shiftlab.__all__ if not hasattr(shiftlab, name)] == []
