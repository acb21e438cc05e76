"""Comparison algorithms: greedy weighted set cover, random selection,
adaptively spread cluster-pick selection, the exact branch-and-bound
optimum, and the A12 effect size."""

from __future__ import annotations

import math
import random

from .blocks import action_cover
from .config import RunConfig
from .dataset import Dataset, ValidationError
from .reduction import min_cover, postings

EXHAUSTIVE_INPUT_LIMIT = 20


class ExhaustiveLimitError(ValidationError):
    """A component has more inputs than the exact solver accepts."""


def greedy_cover(cover, costs) -> frozenset:
    """Repeatedly take the input with the best ratio of newly covered blocks
    to cost until the union of `cover` is covered. A zero-cost input that
    covers something new ranks above every costed one, and one that covers
    nothing new ranks lowest. Ties break toward lower cost, then lower id."""
    uncovered = set().union(*cover.values())
    selected: set = set()

    def ratio(i):
        gain = len(cover[i] & uncovered)
        if costs[i]:
            return gain / costs[i]
        return math.inf if gain else -math.inf

    while uncovered:
        best = max(
            (i for i in cover if i not in selected),
            key=lambda i: (ratio(i), -costs[i], -i),
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
    """Cluster all action occurrences directly, as one output class, and
    pick one covering input per cluster, uniformly at random."""
    rng = random.Random(seed)
    one_class = {(rec.id, pos): 0
                 for rec in dataset.inputs for pos in range(len(rec.actions))}
    holders = postings(action_cover(dataset, one_class, config, seed))
    return frozenset(rng.choice(holders[bl]) for bl in sorted(holders))


def exhaustive_optimal(cover, costs) -> frozenset:
    """Exact minimum-cost cover of the union of `cover` by its inputs
    (`reduction.min_cover`). Always found: the objectives are what the
    inputs cover."""
    if len(cover) > EXHAUSTIVE_INPUT_LIMIT:
        raise ExhaustiveLimitError(
            f"component of {len(cover)} inputs exceeds the "
            f"exhaustive limit {EXHAUSTIVE_INPUT_LIMIT}"
        )
    budget = sum(costs[i] for i in cover)
    return min_cover(frozenset().union(*cover.values()), cover, costs, budget)


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
