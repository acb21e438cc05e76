"""The cover map and search-space reduction: the redundancy loop, duplicate
removal, local-dominance removal, overlap-graph component split, and the
gain of valid removal orders. `min_cover`, the exact minimum-cost cover
search, finds a locally-dominated input's replacement among the inputs
still kept, finds the removal gain, and also serves as the exact solver in
`baselines`. `postings` is the one block -> holding inputs index.

Functions take a plain coverage mapping (input id -> frozenset of blocks)
and a cost mapping, so they work both on real coverage maps and on the small
synthetic instances used in property tests. Blocks are any hashable,
orderable values. The reduction steps take and return a restricted cover
map: the search inputs, each mapped to the objectives it still covers, so
the remaining objectives are the union of its values. Each component is a
`CoverageMap` over its slice of that map, the same type `build_coverage`
returns for the full instance.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

logger = logging.getLogger(__name__)

EXHAUSTIVE_GAIN_THRESHOLD = 20
NEIGHBOR_CAP = 20


@dataclass(frozen=True)
class CoverageMap:
    """A cover map: input id -> frozenset of the blocks it covers."""
    cover: dict

    @property
    def inputs(self) -> frozenset:
        return frozenset(self.cover)

    def all_blocks(self) -> frozenset:
        return frozenset().union(*self.cover.values())

    def cover_of_set(self, ids) -> frozenset:
        return frozenset().union(*(self.cover[i] for i in ids))


@dataclass(frozen=True)
class ReductionResult:
    necessary: frozenset
    components: tuple[CoverageMap, ...]
    iterations: int


def postings(cover):
    """Block -> ids of the inputs of `cover` that hold it, in ascending id
    order: the one block -> inputs index."""
    holders: dict = {}
    for i in sorted(cover):
        for bl in cover[i]:
            holders.setdefault(bl, []).append(i)
    return holders


def determine_redundancy(rcover):
    """Split off the inputs that are the sole cover of some remaining
    objective, discharge the objectives they cover, and drop inputs left
    covering nothing. Returns (new necessary inputs, restricted cover)."""
    necessary = {ids[0] for ids in postings(rcover).values() if len(ids) == 1}
    covered = frozenset().union(*(rcover[i] for i in necessary))
    return necessary, {
        i: left for i, blocks in rcover.items() if (left := blocks - covered)
    }


def remove_duplicates(rcover, costs):
    """Among inputs equal in remaining coverage and cost, keep the lowest id."""
    best: dict[tuple, int] = {}
    for i in sorted(rcover):
        best.setdefault((rcover[i], costs[i]), i)
    return {i: rcover[i] for i in best.values()}


def min_cover(objectives, cover, costs, budget):
    """Cheapest subset of the inputs of `cover` covering `objectives` at an
    integer cost of at most `budget`, or None. Branch-and-bound: always
    branch on the uncovered objective with the fewest covering inputs (ties
    by `str`), trying them in id order, and prune at the incumbent, so the
    first cheapest cover found wins."""
    inputs_of = postings(cover)
    objectives = frozenset(objectives)
    if not inputs_of.keys() >= objectives:
        return None
    best_set = None
    best_cost = budget + 1

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
            branch(selected, sel_cost + costs[i], uncovered - cover[i])
            selected.discard(i)

    branch(set(), 0, objectives)
    return best_set


def remove_locally_dominated(rcover, costs):
    """Remove, in id order, every input whose remaining coverage the inputs
    still kept among its overlap neighbours replicate at no greater cost
    (`min_cover` finds the replacement), so no removal strands coverage.
    The neighbour cap is judged over its neighbours in `rcover`: above it
    the input is kept. Through zero-cost inputs two inputs can dominate each
    other: 2 and 3 in the cover {1: {a}, 2: {a, b}, 3: {b, c}, 4: {c}} at
    costs 0, 1, 1, 0, where 2 goes and 3 stays."""
    by_block = postings(rcover)
    kept = dict(rcover)
    for i in sorted(rcover):
        target = rcover[i]
        neighbors = {j for bl in target for j in by_block[bl]}
        neighbors.discard(i)
        if len(neighbors) > NEIGHBOR_CAP:
            logger.warning(
                "input %s has %d overlap neighbors (cap %d): conservatively kept",
                i, len(neighbors), NEIGHBOR_CAP,
            )
        elif min_cover(target, {j: kept[j] for j in neighbors if j in kept},
                       costs, costs[i]) is not None:
            del kept[i]
    return kept


def split_components(rcover) -> tuple[CoverageMap, ...]:
    """Connected components of the overlap graph (inputs sharing a remaining
    objective), each carrying its slice of `rcover`. Each is found from its
    smallest input, so they come out ordered by it."""
    holders = postings(rcover)
    unvisited = set(rcover)
    components = []
    for start in sorted(rcover):
        if start not in unvisited:
            continue
        comp = set()
        queue = [start]
        unvisited.discard(start)
        while queue:
            i = queue.pop()
            comp.add(i)
            for bl in rcover[i]:
                for j in holders[bl]:
                    if j in unvisited:
                        unvisited.discard(j)
                        queue.append(j)
        components.append(CoverageMap({i: rcover[i] for i in sorted(comp)}))
    return tuple(components)


def valid_orders_gain(ids, cover, costs):
    """Maximal removable cost over valid removal orders, plus one witness.

    A set of inputs can be removed one at a time, each redundant when it
    goes, exactly when the inputs left still cover every block; then any
    order is valid. An input that is the sole cover of a block stays in
    every such cover, so the gain is the cost of the redundant inputs minus
    the cheapest cover, among them only, of the blocks the others leave
    uncovered. The witness is the redundant inputs that cover drops, in id
    order. Above the redundant-input threshold, falls back to greedily
    removing the most costly currently-redundant input.
    """
    members = sorted(ids)
    # Block -> its only holder among the members, or None once a second
    # holder appears.
    only: dict = {}
    for i in members:
        for bl in cover[i]:
            if only.setdefault(bl, i) != i:  # an earlier member holds it too
                only[bl] = None
    sole = set(only.values())
    sole.discard(None)
    redundant = {i: cover[i] for i in members if i not in sole}
    if not redundant:
        return 0, []
    if len(redundant) > EXHAUSTIVE_GAIN_THRESHOLD:
        logger.warning(
            "%d redundant inputs exceed the exhaustive threshold %d: "
            "using greedy removal", len(redundant), EXHAUSTIVE_GAIN_THRESHOLD,
        )
        return _greedy_gain(members, cover, costs)
    uncovered = only.keys() - frozenset().union(*(cover[i] for i in sole))
    redundant_cost = sum(costs[i] for i in redundant)
    # With nothing left to cover, min_cover would return the empty set.
    kept = min_cover(uncovered, redundant, costs, redundant_cost) if uncovered else frozenset()
    order = [i for i in redundant if i not in kept]
    return redundant_cost - sum(costs[i] for i in kept), order


def _greedy_gain(members, cover, costs):
    superpos = Counter()
    for i in members:
        superpos.update(cover[i])
    remaining = set(members)
    gain = 0
    order = []
    while True:
        candidates = [i for i in remaining if all(superpos[bl] >= 2 for bl in cover[i])]
        if not candidates:
            return gain, order
        pick = max(candidates, key=lambda i: (costs[i], -i))
        remaining.discard(pick)
        superpos.subtract(cover[pick])
        gain += costs[pick]
        order.append(pick)


def reduce_problem(cover, costs) -> ReductionResult:
    """Iterate redundancy determination, duplicate removal, and dominance
    removal on the restricted cover map (input id -> its still-uncovered
    objectives), starting from all of `cover`, until a pass finds no new
    necessary input and leaves the map unchanged, then split the rest into
    components."""
    rcover = {i: frozenset(blocks) for i, blocks in cover.items()}
    necessary: set = set()
    iterations = 0
    while True:
        found, reduced = determine_redundancy(rcover)
        reduced = remove_duplicates(reduced, costs)
        reduced = remove_locally_dominated(reduced, costs)
        if not found and reduced == rcover:
            break
        necessary |= found
        rcover = reduced
        iterations += 1
    return ReductionResult(
        necessary=frozenset(necessary),
        components=split_components(rcover),
        iterations=iterations,
    )
