"""Search-space reduction: the redundancy loop, duplicate removal,
local-dominance removal, overlap-graph component split, and the gain of
valid removal orders. `min_cover`, the exact minimum-cost cover search, also
serves as the exact solver in `baselines`.

Functions take a plain coverage mapping (input id -> frozenset of blocks)
and a cost mapping, so they work both on real coverage maps and on the small
synthetic instances used in property tests. Blocks are any hashable,
orderable values. The reduction steps take and return a restricted cover
map: the search inputs, each mapped to the objectives it still covers, so
the remaining objectives are the union of its values.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

logger = logging.getLogger(__name__)

EXHAUSTIVE_GAIN_THRESHOLD = 20
NEIGHBOR_CAP = 20


@dataclass(frozen=True)
class Component:
    """An overlap-graph component as its slice of the restricted cover map."""
    cover: dict

    @property
    def inputs(self) -> frozenset:
        return frozenset(self.cover)

    @property
    def objectives(self) -> frozenset:
        return frozenset().union(*self.cover.values())


@dataclass(frozen=True)
class ReductionResult:
    necessary: frozenset
    components: tuple[Component, ...]
    iterations: int


def determine_redundancy(rcover):
    """Split off the inputs that are the sole cover of some remaining
    objective, discharge the objectives they cover, and drop inputs left
    covering nothing. Returns (new necessary inputs, restricted cover)."""
    superpos = Counter()
    for blocks in rcover.values():
        superpos.update(blocks)
    necessary = {
        i for i, blocks in rcover.items()
        if blocks and min(superpos[bl] for bl in blocks) == 1
    }
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
    inputs_of = {
        bl: sorted(i for i, blocks in cover.items() if bl in blocks)
        for bl in objectives
    }
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

    branch(set(), 0, frozenset(objectives))
    return best_set


def locally_dominated(input_id, rcover, costs,
                      neighbor_cap: int = NEIGHBOR_CAP) -> bool:
    """True iff some subset of the input's overlap neighbors replicates its
    remaining coverage at no greater cost."""
    target = rcover[input_id]
    if not target:
        return True
    neighbors = {j: b for j, b in rcover.items() if j != input_id and b & target}
    if len(neighbors) > neighbor_cap:
        logger.warning(
            "input %s has %d overlap neighbors (cap %d): conservatively kept",
            input_id, len(neighbors), neighbor_cap,
        )
        return False
    return min_cover(target, neighbors, costs, costs[input_id]) is not None


def remove_locally_dominated(rcover, costs):
    """Remove every input dominated in the pre-removal state. Removal order
    cannot strand coverage: dominated inputs are always dominated by a set
    of non-dominated ones."""
    dominated = {i for i in sorted(rcover) if locally_dominated(i, rcover, costs)}
    return {i: blocks for i, blocks in rcover.items() if i not in dominated}


def split_components(rcover) -> tuple[Component, ...]:
    """Connected components of the overlap graph (inputs sharing a remaining
    objective), each carrying its slice of `rcover`. Each is found from its
    smallest input, so they come out ordered by it."""
    block_to_inputs: dict = {}
    for i, blocks in rcover.items():
        for bl in blocks:
            block_to_inputs.setdefault(bl, set()).add(i)
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
                for j in block_to_inputs[bl]:
                    if j in unvisited:
                        unvisited.discard(j)
                        queue.append(j)
        components.append(Component(cover={i: rcover[i] for i in sorted(comp)}))
    return tuple(components)


def valid_orders_gain(ids, cover, costs,
                      threshold: int = EXHAUSTIVE_GAIN_THRESHOLD):
    """Maximal removable cost over valid removal orders, plus one witness.

    Only index-increasing (canonical) orders are enumerated: any valid order
    can be permuted into one, so the maximum is unaffected. Above the
    redundant-input threshold, falls back to greedily removing the most
    costly currently-redundant input.
    """
    members = sorted(ids)
    superpos = Counter()
    for i in members:
        superpos.update(cover[i])

    def redundant_now(i) -> bool:
        return all(superpos[bl] >= 2 for bl in cover[i])

    redundant = [i for i in members if redundant_now(i)]
    if len(redundant) > threshold:
        logger.warning(
            "%d redundant inputs exceed the exhaustive threshold %d: "
            "using greedy removal", len(redundant), threshold,
        )
        return _greedy_gain(members, cover, costs, superpos, redundant_now)

    best_gain = 0
    best_order: list = []

    def dfs(start_idx, gained, order):
        nonlocal best_gain, best_order
        if gained > best_gain:
            best_gain = gained
            best_order = list(order)
        for idx in range(start_idx, len(members)):
            i = members[idx]
            if i in removed or not redundant_now(i):
                continue
            removed.add(i)
            superpos.subtract(cover[i])
            order.append(i)
            dfs(idx + 1, gained + costs[i], order)
            order.pop()
            superpos.update(cover[i])
            removed.discard(i)

    removed: set = set()
    dfs(0, 0, [])
    return best_gain, best_order


def _greedy_gain(members, cover, costs, superpos, redundant_now):
    remaining = set(members)
    gain = 0
    order = []
    while True:
        candidates = [i for i in remaining if redundant_now(i)]
        if not candidates:
            return gain, order
        pick = max(candidates, key=lambda i: (costs[i], -i))
        remaining.discard(pick)
        superpos.subtract(cover[pick])
        gain += costs[pick]
        order.append(pick)


def reduce_problem(ids, cover, costs) -> ReductionResult:
    """Iterate redundancy determination, duplicate removal, and dominance
    removal on the restricted cover map (input id -> its still-uncovered
    objectives) until a pass finds no new necessary input and leaves the
    map unchanged, then split the rest into components."""
    rcover = {i: frozenset(cover[i]) for i in ids}
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
