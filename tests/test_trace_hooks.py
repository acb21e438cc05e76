"""The benchmark's tracer (`perfbench/tracer.py`) wraps covmin entry points
by module and attribute path. Each must still resolve to a callable, or its
per-layer metrics would silently read as missing. The benchmark's own
self-test must pass against the current API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "perfbench self-test: ok" in done.stdout
