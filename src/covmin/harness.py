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
import os
import time
from dataclasses import dataclass

from . import baselines
from .blocks import build_coverage
from .config import RunConfig
from .dataset import Dataset, ValidationError
from .reduction import ReductionResult, reduce_problem
from .search import mocco_run

logger = logging.getLogger(__name__)

# The most repetitions a bench may run; each runs every algorithm once.
MAX_REPETITIONS = 10_000


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


def run_pipeline(dataset: Dataset, config: RunConfig, seed: int = 0) -> PipelineResult:
    """Full minimization run. Deterministic for a given (dataset, config,
    seed); wall-clock time is deliberately kept out of the result."""
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
DEFAULT_ALGORITHMS = ("mocco", "greedy", "random", "art")


def run_repetition(dataset: Dataset, config: RunConfig, algorithms,
                   seed: int, repetition: int) -> list[dict]:
    """One benchmark repetition: a row per algorithm, a plain dict whose keys
    are the CSV columns. The greedy, random and adaptive-sampling baselines
    run on the full instance; the genetic search and the exact solver run
    after problem reduction. The random baseline runs last and draws as many
    inputs as the largest selection produced by the other algorithms in the
    same repetition (or the reduced instance size when it runs alone)."""
    costs = dataset.costs()
    coverage = build_coverage(dataset, config, seed)
    reduction = reduce_problem(coverage.cover, costs)
    universe = coverage.all_blocks()
    rows: list[dict] = []
    for name in sorted(algorithms, key=lambda a: a == "random"):
        started = time.perf_counter()
        if name in SOLVERS:
            selected = solve(reduction, costs, name, config, seed).selected
        elif name == "greedy":
            selected = baselines.greedy_cover(coverage.cover, costs)
        elif name == "art":
            selected = baselines.art_select(dataset, config, seed)
        elif name == "random":
            n = max((row["size"] for row in rows), default=len(reduction.necessary)
                    + sum(len(c.inputs) for c in reduction.components))
            selected = baselines.random_select(frozenset(costs), n, seed)
        else:
            raise ValueError(f"unknown algorithm {name!r}")
        rows.append({
            "algorithm": name,
            "config": config.label(),
            "seed": seed,
            "repetition": repetition,
            "size": len(selected),
            "cost": sum(costs[i] for i in selected),
            "runtime_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "vdr": vdr(selected, dataset.vulnerabilities),
            "covers_all": coverage.cover_of_set(selected) >= universe,
        })
    return rows


def bench(dataset: Dataset, config: RunConfig, algorithms=DEFAULT_ALGORITHMS,
          repetitions: int = 1, seed: int = 0, jobs: int = 1) -> dict:
    """Run `algorithms`, each named once in the order of its first mention,
    over `repetitions` derived seeds, on at most `jobs` worker processes (no
    more than the repetitions or the CPUs). An empty or unknown algorithm
    list, repetitions outside 1 to `MAX_REPETITIONS`, or fewer than
    one job, is a ValidationError.

    Returns `{"rows": [...], "a12_cost": {"a|b": value}}`: the rows of
    `run_repetition` in repetition order, and for each ordered pair of
    distinct algorithms the Vargha-Delaney A12 of a's costs over b's, the
    chance that a run of `a` costs more than a run of `b`, ties counting
    half. Below 0.5, `a` is the cheaper algorithm."""
    algorithms = tuple(dict.fromkeys(algorithms))
    if not algorithms:
        raise ValidationError("bench names no algorithm")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValidationError(f"unknown algorithms {unknown}; "
                              f"known: {', '.join(ALGORITHMS)}")
    if repetitions < 1:
        raise ValidationError(f"repetitions must be at least 1, got {repetitions}")
    if repetitions > MAX_REPETITIONS:
        raise ValidationError(f"repetitions must be at most {MAX_REPETITIONS}, "
                              f"got {repetitions}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    # Repetition seeds step by 2**32, so `component_seed(seed + (r << 32), idx)`
    # never repeats across repetitions for any idx < 2**32.
    reps = [(dataset, config, algorithms, seed + (r << 32), r)
            for r in range(repetitions)]
    workers = min(jobs, repetitions, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_repetition, *zip(*reps)))
    else:
        chunks = [run_repetition(*args) for args in reps]
    rows = [row for chunk in chunks for row in chunk]

    costs = {name: [row["cost"] for row in rows if row["algorithm"] == name]
             for name in algorithms}
    return {
        "rows": rows,
        "a12_cost": {f"{a}|{b}": baselines.a12_effect_size(costs[a], costs[b])
                     for a in algorithms for b in algorithms if a != b},
    }


def write_bench_csv(report: dict, path) -> None:
    rows = report["rows"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
