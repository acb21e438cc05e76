"""The benchmark's tracer (`perfbench/tracer.py`) wraps covmin entry points
by module and attribute path. Each must still resolve to a callable, or its
per-layer metrics would silently read as missing."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    """ENTRY_POINTS as written in the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {TRACER}")


def test_tracer_entry_points_resolve_to_callables():
    entry_points = _entry_points()
    assert entry_points
    for module, path in entry_points:
        assert module.split(".")[0] == "covmin"
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, path)
