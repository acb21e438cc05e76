"""Comparison algorithms: greedy weighted set cover, random selection,
adaptively spread cluster-pick selection, the exact branch-and-bound
optimum, and the A12 effect size."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .blocks import cluster_actions, partition_by_method
from .config import RunConfig
from .dataset import Dataset
from .reduction import Component

EXHAUSTIVE_INPUT_LIMIT = 20


class InfeasibleError(ValueError):
    """The candidate inputs cannot cover the requested universe."""


class ExhaustiveLimitError(ValueError):
    """A component has more inputs than the exact solver accepts."""


@dataclass(frozen=True)
class SelectionResult:
    selected: frozenset
    total_cost: int
    covers_all: bool
    algorithm: str
    seed: int = 0


def greedy_cover(universe, candidates, cover, costs, seed: int = 0) -> SelectionResult:
    """Repeatedly take the input with the best coverage-per-cost ratio.
    Ties break toward lower cost, then lower id."""
    uncovered = set(universe)
    reachable = set()
    for i in candidates:
        reachable |= cover[i]
    if not uncovered <= reachable:
        raise InfeasibleError("candidates cannot cover the universe")
    selected: set = set()
    while uncovered:
        best = max(
            (i for i in candidates if i not in selected),
            key=lambda i: (len(cover[i] & uncovered) / costs[i], -costs[i], -i),
        )
        selected.add(best)
        uncovered -= cover[best]
    return SelectionResult(
        selected=frozenset(selected),
        total_cost=sum(costs[i] for i in selected),
        covers_all=True,
        algorithm="greedy",
        seed=seed,
    )


def random_select(candidates, n: int, costs, seed: int = 0) -> SelectionResult:
    candidates = sorted(candidates)
    if n > len(candidates):
        raise ValueError(f"cannot sample {n} of {len(candidates)} candidates")
    rng = random.Random(seed)
    selected = frozenset(rng.sample(candidates, n))
    return SelectionResult(
        selected=selected,
        total_cost=sum(costs[i] for i in selected),
        covers_all=False,
        algorithm="random",
        seed=seed,
    )


def art_select(dataset: Dataset, config: RunConfig, seed: int = 0) -> SelectionResult:
    """Cluster all action occurrences directly (no output-clustering stage)
    and pick one covering input per cluster, uniformly at random."""
    rng = random.Random(seed)
    occurrences = [
        (rec.id, pos) for rec in dataset.inputs for pos in range(len(rec.actions))
    ]
    costs = dataset.costs()
    selected: set[int] = set()
    for part in partition_by_method(dataset, occurrences):
        if not part:
            continue
        labels = cluster_actions(dataset, part, config, seed)
        clusters: dict[int, list[int]] = {}
        for occ, lab in zip(part, labels):
            clusters.setdefault(lab, []).append(occ[0])
        for lab in sorted(clusters):
            covering = sorted(set(clusters[lab]))
            selected.add(rng.choice(covering))
    return SelectionResult(
        selected=frozenset(selected),
        total_cost=sum(costs[i] for i in selected),
        covers_all=False,
        algorithm="art",
        seed=seed,
    )


def exhaustive_optimal(component: Component, cover, costs, seed: int = 0) -> SelectionResult:
    """Exact minimum-cost cover of the component's objectives, by
    branch-and-bound: always branch on the uncovered objective with the
    fewest covering inputs, prune on the incumbent cost."""
    if len(component.inputs) > EXHAUSTIVE_INPUT_LIMIT:
        raise ExhaustiveLimitError(
            f"component of {len(component.inputs)} inputs exceeds the "
            f"exhaustive limit {EXHAUSTIVE_INPUT_LIMIT}"
        )
    rcover = {i: cover[i] & component.objectives for i in component.inputs}
    inputs_of = {
        bl: sorted(i for i in component.inputs if bl in rcover[i])
        for bl in component.objectives
    }
    for bl, covering in inputs_of.items():
        if not covering:
            raise InfeasibleError(f"objective {bl!r} covered by no input")

    best_cost = sum(costs[i] for i in component.inputs) + 1
    best_set: frozenset = frozenset()

    def branch(selected, sel_cost, uncovered):
        nonlocal best_cost, best_set
        if sel_cost >= best_cost:
            return
        if not uncovered:
            best_cost = sel_cost
            best_set = frozenset(selected)
            return
        bl = min(uncovered, key=lambda b: (len(inputs_of[b]), str(b)))
        for i in inputs_of[bl]:
            if i in selected:
                continue
            selected.add(i)
            branch(selected, sel_cost + costs[i], uncovered - rcover[i])
            selected.discard(i)

    branch(set(), 0, frozenset(component.objectives))
    return SelectionResult(
        selected=best_set,
        total_cost=best_cost,
        covers_all=True,
        algorithm="exhaustive",
        seed=seed,
    )


def a12_effect_size(sample1, sample2) -> float:
    """P(M1 > M2) + 0.5 P(M1 = M2), estimated over all sample pairs."""
    s1, s2 = list(sample1), list(sample2)
    if not s1 or not s2:
        raise ValueError("both samples must be non-empty")
    wins = sum(
        1.0 if a > b else 0.5 if a == b else 0.0
        for a in s1 for b in s2
    )
    return wins / (len(s1) * len(s2))
