"""Coverage-preserving minimization of action-sequence test suites."""

from .config import RunConfig
from .dataset import Dataset, load_dataset
from .blocks import BlockId, build_coverage
from .reduction import CoverageMap, ReductionResult, reduce_problem
from .harness import PipelineResult, run_pipeline, bench, vdr

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "Dataset",
    "load_dataset",
    "BlockId",
    "CoverageMap",
    "build_coverage",
    "ReductionResult",
    "reduce_problem",
    "PipelineResult",
    "run_pipeline",
    "bench",
    "vdr",
    "__version__",
]
