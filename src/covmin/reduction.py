"""Search-space reduction: the redundancy loop, duplicate removal,
local-dominance removal, overlap-graph component split, and the gain of
valid removal orders. `min_cover`, the exact minimum-cost cover search, also
serves as the exact solver in `baselines`.

Functions take a plain coverage mapping (input id -> frozenset of blocks)
and a cost mapping, so they work both on real coverage maps and on the small
synthetic instances used in property tests. Blocks are any hashable,
orderable values.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

EXHAUSTIVE_GAIN_THRESHOLD = 20
NEIGHBOR_CAP = 20


@dataclass
class SearchState:
    necessary: set = field(default_factory=set)
    search: set = field(default_factory=set)
    objectives: set = field(default_factory=set)


@dataclass(frozen=True)
class Component:
    inputs: frozenset
    objectives: frozenset


@dataclass(frozen=True)
class ReductionResult:
    necessary: frozenset
    components: tuple[Component, ...]
    iterations: int


def restricted_cover(cover, ids, objectives):
    return {i: cover[i] & objectives for i in ids}


def superposition(bl, ids, cover) -> int:
    """Number of inputs in `ids` covering block `bl`."""
    return sum(1 for i in ids if bl in cover[i])


def redundancy(input_id, ids, cover, objectives=None) -> int:
    """min over the input's blocks of their superposition, minus one.
    Zero means the input is necessary for the coverage of `ids`."""
    if input_id not in ids:
        raise ValueError(f"input {input_id} not in the considered set")
    blocks = cover[input_id]
    if objectives is not None:
        blocks = blocks & objectives
    if not blocks:
        # Covers nothing that still matters: removable at no coverage loss.
        return len(ids)
    return min(superposition(bl, ids, cover) for bl in blocks) - 1


def determine_redundancy(state: SearchState, cover) -> SearchState:
    """Move the necessary inputs out of the search set, discharge the
    objectives they cover, and drop inputs left covering nothing."""
    rcover = restricted_cover(cover, state.search, state.objectives)
    superpos = Counter()
    for i in state.search:
        superpos.update(rcover[i])
    new_necessary = {
        i for i in state.search
        if rcover[i] and min(superpos[bl] for bl in rcover[i]) == 1
    }
    covered = set()
    for i in new_necessary:
        covered |= rcover[i]
    objectives = state.objectives - covered
    search = {
        i for i in state.search - new_necessary
        if cover[i] & objectives
    }
    return SearchState(
        necessary=state.necessary | new_necessary,
        search=search,
        objectives=objectives,
    )


def remove_duplicates(state: SearchState, cover, costs) -> SearchState:
    """Among inputs equal in remaining coverage and cost, keep the lowest id."""
    best: dict[tuple, int] = {}
    for i in sorted(state.search):
        profile = (frozenset(cover[i] & state.objectives), costs[i])
        if profile not in best:
            best[profile] = i
    return SearchState(
        necessary=set(state.necessary),
        search=set(best.values()),
        objectives=set(state.objectives),
    )


def _neighbors(input_id, state: SearchState, cover):
    target = cover[input_id] & state.objectives
    return [
        j for j in state.search
        if j != input_id and (cover[j] & state.objectives) & target
    ]


def min_cover(objectives, candidates, cover, costs, budget):
    """Cheapest subset of `candidates` covering `objectives` at an integer
    cost of at most `budget`, or None. Branch-and-bound: always branch on
    the uncovered objective with the fewest covering candidates (ties by
    `str`), trying them in id order, and prune at the incumbent, so the
    first cheapest cover found wins."""
    rcover = {i: cover[i] & objectives for i in candidates}
    inputs_of = {
        bl: sorted(i for i in candidates if bl in rcover[i])
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
            branch(selected, sel_cost + costs[i], uncovered - rcover[i])
            selected.discard(i)

    branch(set(), 0, frozenset(objectives))
    return best_set


def locally_dominated(input_id, state: SearchState, cover, costs,
                      neighbor_cap: int = NEIGHBOR_CAP) -> bool:
    """True iff some subset of the input's overlap neighbors replicates its
    remaining coverage at no greater cost."""
    target = cover[input_id] & state.objectives
    if not target:
        return True
    neighbors = _neighbors(input_id, state, cover)
    if len(neighbors) > neighbor_cap:
        logger.warning(
            "input %s has %d overlap neighbors (cap %d): conservatively kept",
            input_id, len(neighbors), neighbor_cap,
        )
        return False
    return min_cover(target, neighbors, cover, costs, costs[input_id]) is not None


def remove_locally_dominated(state: SearchState, cover, costs) -> SearchState:
    """Remove every input dominated in the pre-removal state. Removal order
    cannot strand coverage: dominated inputs are always dominated by a set
    of non-dominated ones."""
    dominated = {
        i for i in sorted(state.search)
        if locally_dominated(i, state, cover, costs)
    }
    return SearchState(
        necessary=set(state.necessary),
        search=state.search - dominated,
        objectives=set(state.objectives),
    )


def split_components(state: SearchState, cover) -> tuple[Component, ...]:
    """Connected components of the overlap graph (inputs sharing a remaining
    objective), each carrying the objectives its inputs cover. Each is found
    from its smallest input, so they come out ordered by it."""
    block_to_inputs: dict = {}
    for i in state.search:
        for bl in cover[i] & state.objectives:
            block_to_inputs.setdefault(bl, set()).add(i)
    unvisited = set(state.search)
    components = []
    for start in sorted(state.search):
        if start not in unvisited:
            continue
        comp = set()
        queue = [start]
        unvisited.discard(start)
        while queue:
            i = queue.pop()
            comp.add(i)
            for bl in cover[i] & state.objectives:
                for j in block_to_inputs[bl]:
                    if j in unvisited:
                        unvisited.discard(j)
                        queue.append(j)
        objectives = frozenset().union(*(cover[i] & state.objectives for i in comp))
        components.append(Component(inputs=frozenset(comp), objectives=objectives))
    return tuple(components)


def valid_orders_gain(ids, cover, costs, objectives=None,
                      threshold: int = EXHAUSTIVE_GAIN_THRESHOLD):
    """Maximal removable cost over valid removal orders, plus one witness.

    Only index-increasing (canonical) orders are enumerated: any valid order
    can be permuted into one, so the maximum is unaffected. Above the
    redundant-input threshold, falls back to greedily removing the most
    costly currently-redundant input.
    """
    members = sorted(ids)
    rcover = {
        i: (cover[i] & objectives if objectives is not None else cover[i])
        for i in members
    }
    superpos = Counter()
    for i in members:
        superpos.update(rcover[i])

    def redundant_now(i) -> bool:
        if not rcover[i]:
            return True
        return all(superpos[bl] >= 2 for bl in rcover[i])

    redundant = [i for i in members if redundant_now(i)]
    if len(redundant) > threshold:
        logger.warning(
            "%d redundant inputs exceed the exhaustive threshold %d: "
            "using greedy removal", len(redundant), threshold,
        )
        return _greedy_gain(members, rcover, costs, superpos)

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
            superpos.subtract(rcover[i])
            order.append(i)
            dfs(idx + 1, gained + costs[i], order)
            order.pop()
            superpos.update(rcover[i])
            removed.discard(i)

    removed: set = set()
    dfs(0, 0, [])
    return best_gain, best_order


def _greedy_gain(members, rcover, costs, superpos):
    remaining = set(members)
    gain = 0
    order = []
    while True:
        candidates = [
            i for i in remaining
            if not rcover[i] or all(superpos[bl] >= 2 for bl in rcover[i])
        ]
        if not candidates:
            return gain, order
        pick = max(candidates, key=lambda i: (costs[i], -i))
        remaining.discard(pick)
        superpos.subtract(rcover[pick])
        gain += costs[pick]
        order.append(pick)


def reduce_problem(ids, cover, costs) -> ReductionResult:
    """Iterate redundancy determination, duplicate removal, and dominance
    removal until a fixpoint, then split the rest into components."""
    objectives = set()
    for i in ids:
        objectives |= cover[i]
    state = SearchState(necessary=set(), search=set(ids), objectives=objectives)
    iterations = 0
    while True:
        new_state = determine_redundancy(state, cover)
        new_state = remove_duplicates(new_state, cover, costs)
        new_state = remove_locally_dominated(new_state, cover, costs)
        if (new_state.necessary == state.necessary
                and new_state.search == state.search
                and new_state.objectives == state.objectives):
            break
        state = new_state
        iterations += 1
    components = split_components(state, cover)
    return ReductionResult(
        necessary=frozenset(state.necessary),
        components=components,
        iterations=iterations,
    )
