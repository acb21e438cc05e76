"""End-to-end pipeline and benchmark harness.

`run_pipeline` chains clustering, coverage construction, problem reduction
and the genetic search, and returns a result whose JSON form is a pure
function of (dataset, config, seed). `bench` runs the pipeline against the
baseline algorithms over repeated derived seeds and tabulates sizes, costs
and effect sizes.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass

from . import baselines
from .blocks import build_coverage
from .config import RunConfig
from .dataset import Dataset
from .reduction import CoverageMap, ReductionResult, reduce_problem
from .search import mocco_run

logger = logging.getLogger(__name__)


def component_seed(seed: int, index: int) -> int:
    """Per-component search seed, decorrelated from the run seed."""
    return seed ^ index


@dataclass(frozen=True)
class Solution:
    selected: frozenset
    per_component: tuple[frozenset, ...]
    total_cost: int


SOLVERS = ("mocco", "exhaustive")


def solve(reduction: ReductionResult, costs, algorithm: str,
          config: RunConfig, seed: int) -> Solution:
    """Minimize every component's cover map with the genetic search
    ("mocco") or the exact solver ("exhaustive") and take the union with the
    necessary inputs. Component `idx` gets the seed `component_seed(seed,
    idx)`. `mocco_run` is looked up in this module on every call, so a
    wrapper installed here sees each one."""
    if algorithm not in SOLVERS:
        raise ValueError(f"unknown solver {algorithm!r}; known: {', '.join(SOLVERS)}")
    per_component = tuple(
        mocco_run(comp.cover, costs, config, component_seed(seed, idx))
        if algorithm == "mocco" else baselines.exhaustive_optimal(comp.cover, costs)
        for idx, comp in enumerate(reduction.components)
    )
    selected = reduction.necessary.union(*per_component)
    return Solution(
        selected=selected,
        per_component=per_component,
        total_cost=sum(costs[i] for i in selected),
    )


def vdr(selected, vulnerabilities) -> float:
    """Vulnerability detection rate: fraction of vulnerabilities for which
    some detecting group is wholly contained in the selected set."""
    if not vulnerabilities:
        logger.warning("no vulnerability records; detection rate defaults to 1.0")
        return 1.0
    chosen = frozenset(selected)
    detected = sum(
        1 for _, groups in vulnerabilities
        if any(group <= chosen for group in groups)
    )
    return detected / len(vulnerabilities)


@dataclass(frozen=True)
class PipelineResult:
    config_label: str
    seed: int
    selected: frozenset
    total_cost: int
    original_cost: int
    block_count: int
    necessary: frozenset
    component_sizes: tuple[int, ...]
    component_selected: tuple[frozenset, ...]
    reduction_iterations: int
    vdr: float

    def to_dict(self) -> dict:
        return {
            "config": self.config_label,
            "seed": self.seed,
            "selected": sorted(self.selected),
            "total_cost": self.total_cost,
            "original_cost": self.original_cost,
            "block_count": self.block_count,
            "necessary": sorted(self.necessary),
            "component_sizes": list(self.component_sizes),
            "component_selected": [sorted(s) for s in self.component_selected],
            "reduction_iterations": self.reduction_iterations,
            "vdr": self.vdr,
        }


def run_pipeline(dataset: Dataset, config: RunConfig,
                 seed: int | None = None) -> PipelineResult:
    """Full minimization run. Deterministic for a given (dataset, config,
    seed); wall-clock time is deliberately kept out of the result."""
    if seed is None:
        seed = config.seed
    costs = dataset.costs()
    coverage = build_coverage(dataset, config, seed)
    reduction = reduce_problem(coverage.cover, costs)
    solution = solve(reduction, costs, "mocco", config, seed)
    return PipelineResult(
        config_label=config.label(),
        seed=seed,
        selected=solution.selected,
        total_cost=solution.total_cost,
        original_cost=sum(costs.values()),
        block_count=len(coverage.all_blocks()),
        necessary=reduction.necessary,
        component_sizes=tuple(len(c.inputs) for c in reduction.components),
        component_selected=solution.per_component,
        reduction_iterations=reduction.iterations,
        vdr=vdr(solution.selected, dataset.vulnerabilities),
    )


ALGORITHMS = ("mocco", "greedy", "random", "art", "exhaustive")


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    config_label: str
    seed: int
    repetition: int
    size: int
    cost: int
    runtime_ms: float
    vdr: float
    covers_all: bool

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "config": self.config_label,
            "seed": self.seed,
            "repetition": self.repetition,
            "size": self.size,
            "cost": self.cost,
            "runtime_ms": round(self.runtime_ms, 3),
            "vdr": self.vdr,
            "covers_all": self.covers_all,
        }


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    a12: dict[tuple[str, str], float]

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "a12_cost": {f"{a}|{b}": v for (a, b), v in sorted(self.a12.items())},
        }


def run_repetition(dataset: Dataset, config: RunConfig, algorithms,
                   seed: int, repetition: int,
                   coverage: CoverageMap | None = None) -> list[BenchRow]:
    """One benchmark repetition. The greedy, random and adaptive-sampling
    baselines run on the full instance; the genetic search and the exact
    solver run after problem reduction. The random baseline draws as many
    inputs as the largest selection produced by the other algorithms in the
    same repetition (or the reduced instance size when it runs alone).
    Every algorithm returns only its selection; `record` scores each row
    from it and the coverage map."""
    costs = dataset.costs()
    if coverage is None:
        coverage = build_coverage(dataset, config, seed)
    reduction = reduce_problem(coverage.cover, costs)
    universe = coverage.all_blocks()
    rows: list[BenchRow] = []
    sizes: list[int] = []

    def record(name: str, selected: frozenset, started: float) -> None:
        runtime_ms = (time.perf_counter() - started) * 1000.0
        rows.append(BenchRow(
            algorithm=name,
            config_label=config.label(),
            seed=seed,
            repetition=repetition,
            size=len(selected),
            cost=sum(costs[i] for i in selected),
            runtime_ms=runtime_ms,
            vdr=vdr(selected, dataset.vulnerabilities),
            covers_all=coverage.cover_of_set(selected) >= universe,
        ))
        sizes.append(len(selected))

    for name in algorithms:
        if name == "random":
            continue  # needs the other selection sizes; runs last
        started = time.perf_counter()
        if name in SOLVERS:
            selected = solve(reduction, costs, name, config, seed).selected
        elif name == "greedy":
            selected = baselines.greedy_cover(coverage.cover, costs)
        elif name == "art":
            selected = baselines.art_select(dataset, config, seed)
        else:
            raise ValueError(f"unknown algorithm {name!r}")
        record(name, selected, started)

    if "random" in algorithms:
        if sizes:
            n = max(sizes)
        else:
            n = len(reduction.necessary) + sum(
                len(c.inputs) for c in reduction.components)
        started = time.perf_counter()
        record("random", baselines.random_select(frozenset(costs), n, seed), started)
    return rows


def bench(dataset: Dataset, config: RunConfig, algorithms=ALGORITHMS,
          repetitions: int | None = None, seed: int | None = None,
          jobs: int = 1, coverage: CoverageMap | None = None) -> BenchReport:
    if seed is None:
        seed = config.seed
    if repetitions is None:
        repetitions = config.repetitions
    algorithms = tuple(algorithms)
    # Repetition seeds step by 2**32, so `component_seed(seed + (r << 32), idx)`
    # never repeats across repetitions for any idx < 2**32.
    reps = [(dataset, config, algorithms, seed + (r << 32), r, coverage)
            for r in range(repetitions)]
    if jobs > 1 and repetitions > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_repetition, *zip(*reps)))
    else:
        chunks = [run_repetition(*args) for args in reps]
    rows = tuple(row for chunk in chunks for row in chunk)

    cost_samples: dict[str, list[int]] = {name: [] for name in algorithms}
    for row in rows:
        cost_samples[row.algorithm].append(row.cost)
    a12: dict[tuple[str, str], float] = {}
    for a in algorithms:
        for b in algorithms:
            if a != b and cost_samples[a] and cost_samples[b]:
                a12[(a, b)] = baselines.a12_effect_size(
                    cost_samples[a], cost_samples[b])
    return BenchReport(rows=rows, a12=a12)


def write_bench_csv(report: BenchReport, path) -> None:
    fields = ["algorithm", "config", "seed", "repetition", "size", "cost",
              "runtime_ms", "vdr", "covers_all"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in report.rows:
            writer.writerow(row.to_dict())
