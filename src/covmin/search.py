"""Many-objective genetic search over one connected component.

The instance is the component's plain cover map (input id -> the
objectives it covers) and the costs, as for greedy and reduction. Two
populations evolve together: roofers (fixed-size, full coverage, least
costly found so far) and misers (non-dominated partial-coverage sets). One
parent comes from each population once misers exist; crossover swaps the
two halves of a random objective split; mutation toggles a single input.
Every individual is kept reduced (no redundant members).

A member set is an int bitmask over the component's sorted inputs: bit k
stands for `problem.index.inputs[k]`, and `ComponentProblem.mask_of` /
`set_of` convert. Every `ComponentProblem` method and every `Individual`
speaks masks; only `mocco_run`'s result is a frozenset. The component's
`CoverIndex`, built once, is its only holder table: objective j is its bit
j, and a memo miss hands it and the mask to `reduction.valid_orders_gain`.

A partial child is admitted in one pass over the misers, and `dominates`,
the one dominance test, runs only where a necessary pre-check holds: the
would-be dominator covers every objective the other covers, at a
normalized cost no higher. Each miser's covered-objective mask is kept in
`Populations.miser_covered`. `init_roofers` evaluates each distinct
initial roofer once; equal roofers share one `Individual`.

`mocco_run` makes each generation in one straight-line step: parent
selection, crossover, mutation and the removal-memo read are inline, and
only a memo miss, the objective shuffle and `update_populations` are calls.
The step's parts as functions (`select_parents`, `crossover`, `mutate`)
are test helpers in `tests/_oracles.py`; `reference_mocco_run` there checks
the loop generation by generation.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

from .config import RunConfig
from .distance import normalize
from .reduction import CoverIndex, valid_orders_gain

__all__ = [
    "ComponentProblem", "Individual", "Populations", "dominates", "mocco_run",
]


@dataclass(frozen=True)
class Individual:
    mask: int
    cost: int
    fitness: tuple[float, ...]


@dataclass
class Populations:
    """The roofers and the misers, with what is derived from them kept next
    to them: per miser its selection weight and covered-objective mask, the
    roofers' mask multiset and both populations' running weight sums, each
    rebuilt only where its population changes; and the masks never judged
    again."""
    roofers: list[Individual]
    misers: list[Individual]
    # Each miser's selection weight, 1 / exposure, computed once when it is
    # admitted and kept parallel to `misers`. A roofer's weight, 1 / cost,
    # is computed where it is read.
    miser_weights: list[float]
    # Each miser's covered-objective mask (bit j set when it covers
    # objective j), kept parallel to `misers` for `update_populations`'
    # dominance pre-check.
    miser_covered: list[int]
    # The multiset of the roofers' masks: the initial roofers can be equal.
    live: Counter
    # The `_running_sums` of the roofer and the miser weights, rebuilt only
    # where that population changes, for `_weighted_choice`.
    roofer_sums: tuple[float, list[float]]
    miser_sums: tuple[float, list[float]]
    # Masks of children never judged again. A partial child joins once it is
    # judged: if admitted, it stays a live miser or, once evicted, dominated
    # for good (a miser leaves only for a newcomer that dominates it, and
    # dominance is transitive); if refused, a live miser dominates it. A
    # covering child joins when it is costlier than the costliest roofer,
    # a bound that never rises.
    refused: set = field(default_factory=set)

    @classmethod
    def of(cls, roofers) -> Populations:
        """Populations holding `roofers` and no misers."""
        roofers = list(roofers)
        return cls(
            roofers=roofers,
            misers=[],
            miser_weights=[],
            miser_covered=[],
            live=Counter(r.mask for r in roofers),
            roofer_sums=_running_sums([1.0 / r.cost for r in roofers]),
            miser_sums=_running_sums([]),
        )


def dominates(f1, f2) -> bool:
    """Pareto dominance over fitness vectors (minimization): no worse
    everywhere and better somewhere. Both vectors are of one sequence type
    (tuples in the search). Once no entry is worse, none is NaN, so the
    vectors differ exactly where one entry is better (-0.0 equals 0.0)."""
    if len(f1) != len(f2):
        raise ValueError("fitness vectors must have equal length")
    return f1 != f2 and all(map(operator.le, f1, f2))


class ComponentProblem:
    """A component's cover map plus the costs it is minimized under. Every
    cost must be positive: selection weighs a roofer by 1 / cost."""

    def __init__(self, cover, costs):
        self.cover = cover
        self.costs = costs
        for i in sorted(cover):
            if costs[i] <= 0:
                raise ValueError(f"input {i} has cost {costs[i]}; the search needs positive costs")
        # The bit form of the cover: the one owner of both bit orders and
        # of the holder table.
        self.index = index = CoverIndex.of(cover, costs)
        # `_shuffle`'s steps over a list as long as the objectives: what
        # `init_roofers` and `mocco_run`'s crossover shuffle.
        self.shuffle_steps = _shuffle_steps(len(index.blocks))
        # Objective j -> the least cost of its holders, `potential`'s shift.
        self._min_cost_of = [min(e[1] for e in held) for held in index.holder_entries]
        # Mask -> (removal gain, reduced mask) from valid_orders_gain, valid
        # only for this component's cover and costs, so it lives here.
        self._solved = {}

    def mask_of(self, members) -> int:
        """The mask of `members`; `KeyError` names an id outside the
        component."""
        entry = dict(zip(self.index.inputs, self.index.entries))
        mask = 0
        for i in members:
            mask |= entry[i][0]
        return mask

    def set_of(self, mask: int) -> frozenset:
        return self.index.set_of(mask)

    def removal(self, mask: int) -> tuple[int, int]:
        """The removal gain of `mask` and the mask left once its removable
        inputs are gone, solved once per mask by `valid_orders_gain` over
        the component's `CoverIndex`, whose input bits are the mask's."""
        try:  # a hit, on nearly every call, costs one lookup
            return self._solved[mask]
        except KeyError:
            pass
        gain, removed = valid_orders_gain(mask, self.index)
        solved = self._solved[mask] = (gain, mask & ~removed)
        return solved

    def potential(self, mask: int, j: int) -> int:
        """Best benefit-cost balance of covering objective j, shifted by its
        cheapest holder so the result is never negative."""
        best = -math.inf
        for bit, cost, _ in self.index.holder_entries[j]:
            balance = self.removal(mask | bit)[0] - cost
            if balance > best:
                best = balance
        return best + self._min_cost_of[j]

    def exposure(self, ind: Individual) -> float:
        """Sum of the objective values: the tail of the fitness vector."""
        return sum(ind.fitness[1:])

    def evaluate(self, mask: int) -> tuple[int, tuple[float, ...]]:
        """The cost of `mask` and its fitness: the normalized cost, then per
        objective 0 when covered, else 1 / (potential + 1)."""
        cost = sum([cost for bit, cost, _ in self.index.entries if mask & bit])
        fitness = (normalize(cost), *[
            0.0 if mask & held else 1.0 / (self.potential(mask, j) + 1)
            for j, held in enumerate(self.index.holders)
        ])
        return cost, fitness

    def individual(self, mask: int) -> Individual:
        return Individual(mask, *self.evaluate(mask))


def _shuffle_steps(n: int) -> tuple[tuple[int, int, int], ...]:
    """The Fisher-Yates steps of `random.Random.shuffle` over n items, in
    its order: `(i, i + 1, (i + 1).bit_length())` for i from n - 1 down to 1."""
    return tuple((i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _shuffle(getrandbits, items: list, steps) -> None:
    """Shuffle `items` in place with the draws `random.Random.shuffle` makes,
    given `steps = _shuffle_steps(len(items))` and the generator's
    `getrandbits`: each swap index is `_randbelow(i + 1)`, k-bit draws until
    one is below i + 1."""
    for i, n, k in steps:
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _running_sums(weights) -> tuple[float, list[float]]:
    """`sum(weights)` and the sequential prefix sums of `weights`. The total
    is `sum`'s own, not the last prefix: from Python 3.12 `sum` of floats is
    compensated and can differ from sequential addition."""
    return sum(weights), list(itertools.accumulate(weights))


def _weighted_choice(rng: random.Random, items, sums):
    """The first item whose running weight sum exceeds one uniform draw
    scaled by the total, given `sums = _running_sums(weights)` of positive
    weights; the last item if rounding leaves the draw above every sum."""
    total, running = sums
    k = bisect_right(running, rng.random() * total)
    return items[k] if k < len(items) else items[-1]


def init_roofers(problem: ComponentProblem, n_size: int, rng: random.Random) -> Populations:
    """Build n_size full-coverage individuals. Objectives are visited in a
    fresh random order per roofer; the input covering each uncovered
    objective is drawn with probability inversely tied to how often it was
    picked so far, favoring diversity."""
    index = problem.index
    occurrence = {bit: 0 for bit, _, _ in index.entries}  # input bit -> picks
    individuals = {}  # reduced mask -> its Individual, evaluated once
    roofers = []
    for _ in range(n_size):
        order = list(range(len(index.blocks)))
        _shuffle(rng.getrandbits, order, problem.shuffle_steps)
        members = 0
        for j in order:
            if members & index.holders[j]:  # a pick already covers it
                continue
            candidates = index.holder_entries[j]
            weights = [1.0 / (1 + occurrence[bit]) for bit, _, _ in candidates]
            pick = _weighted_choice(rng, candidates, _running_sums(weights))[0]
            members |= pick
            occurrence[pick] += 1
        mask = problem.removal(members)[1]
        roofer = individuals.get(mask)
        if roofer is None:
            roofer = individuals[mask] = problem.individual(mask)
        roofers.append(roofer)
    return Populations.of(roofers)


def update_populations(problem: ComponentProblem, pops: Populations,
                       mask: int, rng: random.Random) -> None:
    """Fold one offspring into the populations, in place. Draws from `rng`
    only to pick the roofer an admitted covering child evicts.

    A partial child is admitted in one pass over the misers, returning at
    the first that dominates it; the misers are an antichain, so none
    before that one can be dominated by the child. `dominates` runs only
    behind a necessary pre-check: a dominating vector is no worse in every
    entry, so it covers every objective the other covers (an uncovered
    objective's value is positive) and its normalized cost, `fitness[0]`,
    is no higher. The raw costs cannot stand in for `fitness[0]`:
    `normalize` ties distinct large costs."""
    if mask in pops.live or mask in pops.refused:
        return
    cost, fitness = problem.evaluate(mask)
    if not any(fitness[1:]):  # every objective value 0: covers all
        max_cost = max(r.cost for r in pops.roofers)
        if cost > max_cost:
            pops.refused.add(mask)
            return
        ties = [idx for idx, r in enumerate(pops.roofers) if r.cost == max_cost]
        evict = rng.choice(ties)
        pops.live -= Counter((pops.roofers[evict].mask,))
        pops.live[mask] += 1
        pops.roofers[evict] = Individual(mask, cost, fitness)
        pops.roofer_sums = _running_sums([1.0 / r.cost for r in pops.roofers])
        return
    pops.refused.add(mask)
    entries = problem.index.entries
    covered, rest = 0, mask
    while rest:
        low = rest & -rest
        covered |= entries[low.bit_length() - 1][2]
        rest ^= low
    norm = fitness[0]
    misers, weights, miser_covered = [], [], []
    for miser, weight, held in zip(pops.misers, pops.miser_weights, pops.miser_covered):
        if not covered & ~held and miser.fitness[0] <= norm and dominates(miser.fitness, fitness):
            return
        if not held & ~covered and norm <= miser.fitness[0] and dominates(fitness, miser.fitness):
            continue
        misers.append(miser)
        weights.append(weight)
        miser_covered.append(held)
    candidate = Individual(mask, cost, fitness)
    misers.append(candidate)
    weights.append(1.0 / problem.exposure(candidate))
    miser_covered.append(covered)
    pops.misers, pops.miser_weights, pops.miser_covered = misers, weights, miser_covered
    pops.miser_sums = _running_sums(weights)


def mocco_run(cover, costs, config: RunConfig = RunConfig(),
              seed: int = 0, on_generation=None) -> frozenset:
    """Minimize one component; returns a least-cost full-coverage member set.

    Reads `n_size` and `generations` from `config`; at most
    `n_size + 2 * generations` individuals are evaluated. Every cost must
    be positive (`ComponentProblem` raises `ValueError` otherwise). A cover
    with no objectives gives the empty set.
    `on_generation(gen, pops)` is an optional observation hook, used by the
    invariant-checking tests.
    """
    problem = ComponentProblem(cover, costs)
    if not problem.index.blocks:  # nothing to cover: the empty set does it
        return frozenset()
    rng = random.Random(seed)
    pops = init_roofers(problem, config.n_size, rng)
    if on_generation is not None:
        on_generation(0, pops)
    getrandbits, uniform = rng.getrandbits, rng.random
    solved, removal = problem._solved, problem.removal
    # `update_populations` changes these in place; it rebinds only the
    # miser lists and the running sums, which are read per generation.
    roofers, live, refused = pops.roofers, pops.live, pops.refused
    holder_masks, shuffle_steps = problem.index.holders, problem.shuffle_steps
    half = math.ceil(len(holder_masks) / 2)
    n = len(problem.index.inputs)
    k = n.bit_length()
    for gen in range(1, config.generations + 1):
        # Parents, as `_weighted_choice` draws them: a miser (weight
        # 1 / exposure) and a roofer (weight 1 / cost) when misers exist;
        # otherwise two distinct roofers, both weighted by 1 / cost.
        misers = pops.misers
        if misers:
            total, running = pops.miser_sums
            j = bisect_right(running, uniform() * total)
            p1 = misers[j] if j < len(misers) else misers[-1]
            total, running = pops.roofer_sums
            j = bisect_right(running, uniform() * total)
            p2 = roofers[j] if j < len(roofers) else roofers[-1]
        else:
            total, running = pops.roofer_sums
            j = min(bisect_right(running, uniform() * total), len(roofers) - 1)
            p1 = roofers[j]
            rest = roofers[:j] + roofers[j + 1:]
            total, running = _running_sums([1.0 / r.cost for r in rest])
            j = bisect_right(running, uniform() * total)
            p2 = rest[j] if j < len(rest) else rest[-1]
        # Crossover: split the objectives into two random halves, by
        # shuffling their holder masks with the draws of `rng.shuffle` over
        # the objectives; each child takes one parent's inputs covering the
        # first half and the other's covering the second.
        masks = holder_masks.copy()
        _shuffle(getrandbits, masks, shuffle_steps)
        s1 = s2 = 0
        for held in masks[:half]:
            s1 |= held
        for held in masks[half:]:
            s2 |= held
        m1, m2 = p1.mask, p2.mask
        for child in ((m1 & s1) | (m2 & s2), (m2 & s1) | (m1 & s2)):
            # Mutation toggles one input, drawn as `rng.randrange(n)` draws
            # it: k-bit draws until one is below n, even for n = 1. Then
            # the child is reduced.
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            child ^= 1 << j
            child = (solved[child] if child in solved else removal(child))[1]
            # `update_populations`' own first test, made here to save the call.
            if child not in live and child not in refused:
                update_populations(problem, pops, child, rng)
        if on_generation is not None:
            on_generation(gen, pops)
    min_cost = min(r.cost for r in roofers)
    best = [r for r in roofers if r.cost == min_cost]
    return problem.set_of(rng.choice(best).mask)
