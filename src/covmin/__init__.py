"""Coverage-preserving minimization of action-sequence test suites.

Each top-level name loads its submodule on first use (PEP 562), so
`from covmin import load_dataset` imports neither numpy nor the pipeline.
"""

import sys

__version__ = "0.1.0"

# Each exported name and the submodule that defines it, in `__all__` order.
_SUBMODULE = {
    "RunConfig": "config",
    "Dataset": "dataset",
    "load_dataset": "dataset",
    "BlockId": "blocks",
    "CoverageMap": "reduction",
    "build_coverage": "blocks",
    "ReductionResult": "reduction",
    "reduce_problem": "reduction",
    "PipelineResult": "harness",
    "run_pipeline": "harness",
    "bench": "harness",
    "vdr": "harness",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_SUBMODULE[name]}"
    # The import statement's own path, unlike importlib.import_module, is
    # the one `python -X importtime` reports.
    __import__(module)
    value = getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
