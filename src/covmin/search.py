"""Many-objective genetic search over one connected component.

Two populations evolve together: roofers (fixed-size, full coverage, least
costly found so far) and misers (non-dominated partial-coverage sets). One
parent comes from each population once misers exist; crossover swaps the
two halves of a random objective split; mutation toggles a single input.
Every individual is kept reduced (no redundant members).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .config import RunConfig
from .distance import normalize
from .reduction import Component, postings, valid_orders_gain

__all__ = [
    "ComponentProblem", "Individual", "Populations", "dominates", "mocco_run",
]


@dataclass(frozen=True)
class Individual:
    members: frozenset
    cost: int
    fitness: tuple[float, ...]


@dataclass
class Populations:
    roofers: list[Individual]
    misers: list[Individual]


def dominates(f1, f2) -> bool:
    """Pareto dominance over fitness vectors (minimization)."""
    if len(f1) != len(f2):
        raise ValueError("fitness vectors must have equal length")
    return all(a <= b for a, b in zip(f1, f2)) and any(a < b for a, b in zip(f1, f2))


class ComponentProblem:
    """A component plus the costs it is minimized under."""

    def __init__(self, component: Component, costs):
        self.cover = component.cover
        self.objectives = sorted(component.objectives)
        self.inputs = sorted(self.cover)
        self.costs = costs
        self.inputs_of = postings(self.cover)
        self._min_cost_of = {
            bl: min(costs[i] for i in covering)
            for bl, covering in self.inputs_of.items()
        }
        # frozenset(members) -> valid_orders_gain's (gain, order): valid only
        # for this component's cover and costs, so it lives on the problem.
        self._solved = {}

    def cover_of(self, members) -> frozenset:
        out = set()
        for i in members:
            out |= self.cover[i]
        return frozenset(out)

    def cost_of(self, members) -> int:
        return sum(self.costs[i] for i in members)

    def _solve(self, members: frozenset):
        solved = self._solved.get(members)
        if solved is None:
            solved = self._solved[members] = valid_orders_gain(
                members, self.cover, self.costs
            )
        return solved

    def gain_of(self, members) -> int:
        return self._solve(frozenset(members))[0]

    def reduce(self, members) -> frozenset:
        members = frozenset(members)
        return members - set(self._solve(members)[1])

    def potential(self, members, bl) -> int:
        """Best benefit-cost balance of covering `bl`, shifted by the cheapest
        covering input so the result is never negative."""
        members = frozenset(members)
        best = -math.inf
        for i in self.inputs_of[bl]:
            balance = self.gain_of(members | {i}) - self.costs[i]
            best = max(best, balance)
        return best + self._min_cost_of[bl]

    def objective_value(self, members, covered, bl) -> float:
        if bl in covered:
            return 0.0
        return 1.0 / (self.potential(members, bl) + 1)

    def exposure(self, ind: Individual) -> float:
        """Sum of the objective values: the tail of the fitness vector."""
        return sum(ind.fitness[1:])

    def fitness(self, members) -> tuple[float, ...]:
        covered = self.cover_of(members)
        return (normalize(self.cost_of(members)),) + tuple(
            self.objective_value(members, covered, bl) for bl in self.objectives
        )

    def individual(self, members) -> Individual:
        members = frozenset(members)
        return Individual(
            members=members,
            cost=self.cost_of(members),
            fitness=self.fitness(members),
        )


def _weighted_choice(rng: random.Random, items, weights):
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]


def init_roofers(problem: ComponentProblem, n_size: int, rng: random.Random) -> Populations:
    """Build n_size full-coverage individuals. Objectives are visited in a
    fresh random order per roofer; the input covering each uncovered
    objective is drawn with probability inversely tied to how often it was
    picked so far, favoring diversity."""
    occurrence = {i: 0 for i in problem.inputs}
    roofers = []
    for _ in range(n_size):
        order = list(problem.objectives)
        rng.shuffle(order)
        members: set = set()
        covered: set = set()
        for bl in order:
            if bl in covered:
                continue
            candidates = problem.inputs_of[bl]
            weights = [1.0 / (1 + occurrence[i]) for i in candidates]
            pick = _weighted_choice(rng, candidates, weights)
            members.add(pick)
            occurrence[pick] += 1
            covered |= problem.cover[pick]
        roofers.append(problem.individual(problem.reduce(members)))
    return Populations(roofers=roofers, misers=[])


def select_parents(problem: ComponentProblem, pops: Populations,
                   rng: random.Random) -> tuple[Individual, Individual]:
    """A miser (weight 1/exposure) and a roofer (weight 1/cost) when misers
    exist; otherwise two distinct roofers, both weighted by 1/cost."""
    if pops.misers:
        miser = _weighted_choice(
            rng, pops.misers, [1.0 / problem.exposure(m) for m in pops.misers]
        )
        roofer = _weighted_choice(
            rng, pops.roofers, [1.0 / r.cost for r in pops.roofers]
        )
        return miser, roofer
    first = _weighted_choice(rng, pops.roofers, [1.0 / r.cost for r in pops.roofers])
    rest = [r for r in pops.roofers if r is not first]
    second = _weighted_choice(rng, rest, [1.0 / r.cost for r in rest])
    return first, second


def crossover(problem: ComponentProblem, p1: Individual, p2: Individual,
              rng: random.Random) -> tuple[frozenset, frozenset]:
    """Split the objectives into two random halves; each child takes one
    parent's inputs covering the first half and the other parent's inputs
    covering the second half."""
    objectives = list(problem.objectives)
    rng.shuffle(objectives)
    half = math.ceil(len(objectives) / 2)
    o1, o2 = objectives[:half], objectives[half:]
    s1 = set()
    for bl in o1:
        s1.update(problem.inputs_of[bl])
    s2 = set()
    for bl in o2:
        s2.update(problem.inputs_of[bl])
    child1 = (p1.members & s1) | (p2.members & s2)
    child2 = (p2.members & s1) | (p1.members & s2)
    return frozenset(child1), frozenset(child2)


def mutate(problem: ComponentProblem, members: frozenset, rng: random.Random) -> frozenset:
    """Toggle one uniformly chosen component input, then reduce."""
    toggle = rng.choice(problem.inputs)
    if toggle in members:
        members = members - {toggle}
    else:
        members = members | {toggle}
    return problem.reduce(members)


def update_populations(problem: ComponentProblem, pops: Populations,
                       candidate_members: frozenset, rng: random.Random) -> None:
    """Fold one offspring into the populations, in place."""
    if any(candidate_members == r.members for r in pops.roofers):
        return
    if any(candidate_members == m.members for m in pops.misers):
        return
    candidate = problem.individual(candidate_members)
    if not any(candidate.fitness[1:]):  # every objective value 0: covers all
        max_cost = max(r.cost for r in pops.roofers)
        if candidate.cost <= max_cost:
            ties = [idx for idx, r in enumerate(pops.roofers) if r.cost == max_cost]
            evict = rng.choice(ties)
            pops.roofers[evict] = candidate
        return
    for miser in pops.misers:
        if dominates(miser.fitness, candidate.fitness):
            return
    pops.misers = [
        m for m in pops.misers if not dominates(candidate.fitness, m.fitness)
    ]
    pops.misers.append(candidate)


def mocco_run(component: Component, costs, config: RunConfig = RunConfig(),
              seed: int = 0, on_generation=None) -> frozenset:
    """Minimize one component; returns a least-cost full-coverage member set.

    Reads `n_size` and `generations` from `config`; at most
    `n_size + 2 * generations` individuals are evaluated.
    `on_generation(gen, pops)` is an optional observation hook, used by the
    invariant-checking tests.
    """
    problem = ComponentProblem(component, costs)
    rng = random.Random(seed)
    pops = init_roofers(problem, config.n_size, rng)
    if on_generation is not None:
        on_generation(0, pops)
    for gen in range(1, config.generations + 1):
        p1, p2 = select_parents(problem, pops, rng)
        children = crossover(problem, p1, p2, rng)
        for child in children:
            mutated = mutate(problem, child, rng)
            update_populations(problem, pops, mutated, rng)
        if on_generation is not None:
            on_generation(gen, pops)
    min_cost = min(r.cost for r in pops.roofers)
    best = [r for r in pops.roofers if r.cost == min_cost]
    return rng.choice(best).members
