"""Comparison algorithms: greedy weighted set cover, random selection,
adaptively spread cluster-pick selection, the exact branch-and-bound
optimum, and the A12 effect size."""

from __future__ import annotations

import random

from .blocks import cluster_actions
from .config import RunConfig
from .dataset import Action, Dataset
from .reduction import Component, min_cover

EXHAUSTIVE_INPUT_LIMIT = 20


class InfeasibleError(ValueError):
    """The candidate inputs cannot cover the requested universe."""


class ExhaustiveLimitError(ValueError):
    """A component has more inputs than the exact solver accepts."""


def greedy_cover(universe, candidates, cover, costs) -> frozenset:
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
    return frozenset(selected)


def random_select(candidates, n: int, seed: int = 0) -> frozenset:
    candidates = sorted(candidates)
    if n > len(candidates):
        raise ValueError(f"cannot sample {n} of {len(candidates)} candidates")
    return frozenset(random.Random(seed).sample(candidates, n))


def art_select(dataset: Dataset, config: RunConfig, seed: int = 0) -> frozenset:
    """Cluster all action occurrences directly (no output-clustering stage)
    and pick one covering input per cluster, uniformly at random."""
    rng = random.Random(seed)
    parts: dict[str, list[tuple[int, Action]]] = {}
    for rec in dataset.inputs:
        for action in rec.actions:
            parts.setdefault(action.method, []).append((rec.id, action))
    selected: set[int] = set()
    for _, part in sorted(parts.items()):
        ids, actions = zip(*part)
        clusters: dict[int, list[int]] = {}
        for input_id, lab in zip(ids, cluster_actions(list(actions), config, seed)):
            clusters.setdefault(lab, []).append(input_id)
        for lab in sorted(clusters):
            covering = sorted(set(clusters[lab]))
            selected.add(rng.choice(covering))
    return frozenset(selected)


def exhaustive_optimal(component: Component, costs) -> frozenset:
    """Exact minimum-cost cover of the component's objectives by its inputs
    (`reduction.min_cover`). Always found: the objectives are what the
    inputs cover."""
    if len(component.inputs) > EXHAUSTIVE_INPUT_LIMIT:
        raise ExhaustiveLimitError(
            f"component of {len(component.inputs)} inputs exceeds the "
            f"exhaustive limit {EXHAUSTIVE_INPUT_LIMIT}"
        )
    budget = sum(costs[i] for i in component.cover)
    return min_cover(component.objectives, component.cover, costs, budget)


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
