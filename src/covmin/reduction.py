"""The cover map and search-space reduction: the redundancy loop, duplicate
removal, local-dominance removal, overlap-graph component split, and the
gain of valid removal orders. `postings` is the one block -> holding inputs
index, and `CoverIndex` is its bit form: input k is bit k in ascending id
order, objective j is bit j in sorted block order, the one objective order
that reduction and the genetic search share. `_cheapest_cover`, the one
exact minimum-cost cover search, runs over those bits and has three
callers: local dominance finds an input's replacement among the inputs
still kept, `valid_orders_gain` finds the removal gain of a member mask,
and `min_cover`, its set-level adapter, is the exact solver in
`baselines`.

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


@dataclass(frozen=True)
class CoverIndex:
    """The bit form of a cover map and its costs, derived from its
    `postings`: input bit k is the k-th input id in ascending order, and
    objective bit j the j-th block in sorted order."""
    inputs: list
    blocks: list
    # Objective bit j -> the mask of the inputs holding it.
    holders: list
    # Input bit k -> (1 << k, its cost, the mask of the objectives it holds).
    entries: list

    @classmethod
    def of(cls, cover, costs) -> CoverIndex:
        by_block = postings(cover)
        inputs, blocks = sorted(cover), sorted(by_block)
        bit = {i: 1 << k for k, i in enumerate(inputs)}
        held = dict.fromkeys(inputs, 0)
        holders = [0] * len(blocks)
        for j, bl in enumerate(blocks):
            for i in by_block[bl]:
                holders[j] |= bit[i]
                held[i] |= 1 << j
        return cls(inputs, blocks, holders, [(bit[i], costs[i], held[i]) for i in inputs])

    def set_of(self, mask: int) -> frozenset:
        return frozenset(i for k, i in enumerate(self.inputs) if mask >> k & 1)


def _cheapest_cover(index: CoverIndex, objectives: int, candidates: int, budget):
    """The cheapest mask of `candidates` holding every objective bit of
    `objectives` at an integer cost of at most `budget`, or None.
    Branch-and-bound: always branch on the uncovered objective with the
    fewest candidate holders (the lowest bit, so the least block, on ties),
    trying them from the lowest bit, and prune at the incumbent, so the
    first cheapest cover found wins. Candidate holders are fixed for the
    search, so the branching order is sorted once."""
    entries = index.entries
    branches = []
    rest = objectives
    while rest:
        low = rest & -rest
        held = index.holders[low.bit_length() - 1] & candidates
        if not held:
            return None
        options = []
        while held:
            bit = held & -held
            options.append(entries[bit.bit_length() - 1])
            held ^= bit
        branches.append((low, options))
        rest ^= low
    branches.sort(key=lambda b: len(b[1]))  # stable: ties stay in bit order
    # The incumbent [mask, cost], shared down the recursion; a nested
    # recursive function would be a reference cycle per call, left for the
    # garbage collector.
    best = [None, budget + 1]
    if best[1] <= 0:  # even the empty selection is over budget
        return None
    if not objectives:
        return 0
    _branch(branches, best, 0, 0, objectives)
    return best[0]


def _branch(branches, best, selected, sel_cost, uncovered):
    """Extend `selected` by each holder, in order, of the first objective of
    `branches` still in `uncovered`, recording a cheaper cover in `best`."""
    for low, options in branches:
        if uncovered & low:
            break
    for bit, cost, held in options:
        cost += sel_cost
        if cost < best[1]:
            left = uncovered & ~held
            if left:
                _branch(branches, best, selected | bit, cost, left)
            else:
                best[0], best[1] = selected | bit, cost


def min_cover(objectives, cover, costs, budget):
    """Cheapest subset of the inputs of `cover` covering `objectives` at an
    integer cost of at most `budget`, or None: `_cheapest_cover` over the
    `CoverIndex` of `cover`, taking and returning ids and blocks. The exact
    solver's entry point."""
    index = CoverIndex.of(cover, costs)
    bit_of = {bl: 1 << j for j, bl in enumerate(index.blocks)}
    wanted = 0
    for bl in objectives:
        if bl not in bit_of:
            return None
        wanted |= bit_of[bl]
    found = _cheapest_cover(index, wanted, (1 << len(index.inputs)) - 1, budget)
    return None if found is None else index.set_of(found)


def remove_locally_dominated(rcover, costs):
    """Remove, in id order, every input whose remaining coverage the inputs
    still kept among its overlap neighbours replicate at no greater cost
    (`_cheapest_cover` finds the replacement), so no removal strands
    coverage. Its neighbours are the holders of its objectives, read from
    one `CoverIndex` per call. The neighbour cap is judged over its
    neighbours in `rcover`: above it the input is kept. Through zero-cost
    inputs two inputs can dominate each other: 2 and 3 in the cover {1:
    {a}, 2: {a, b}, 3: {b, c}, 4: {c}} at costs 0, 1, 1, 0, where 2 goes and
    3 stays."""
    index = CoverIndex.of(rcover, costs)
    holders = index.holders
    kept = (1 << len(index.inputs)) - 1
    for i, (bit, cost, held) in zip(index.inputs, index.entries):
        neighbors = 0
        rest = held
        while rest:
            low = rest & -rest
            neighbors |= holders[low.bit_length() - 1]
            rest ^= low
        neighbors &= ~bit
        if neighbors.bit_count() > NEIGHBOR_CAP:
            logger.warning(
                "input %s has %d overlap neighbors (cap %d): conservatively kept",
                i, neighbors.bit_count(), NEIGHBOR_CAP,
            )
        elif _cheapest_cover(index, held, neighbors & kept, cost) is not None:
            kept &= ~bit
    kept_ids = index.set_of(kept)
    return {i: blocks for i, blocks in rcover.items() if i in kept_ids}


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


def _held(members) -> tuple[int, int]:
    """The objectives the `CoverIndex` entries `members` hold, and those
    only one of them holds."""
    once = twice = 0
    for _, _, held in members:
        twice |= once & held
        once |= held
    return once, once & ~twice


def valid_orders_gain(mask: int, index: CoverIndex) -> tuple[int, int]:
    """Maximal removable cost over valid removal orders of the members of
    `mask`, plus one witness: the mask of the inputs removed.

    A set of inputs can be removed one at a time, each redundant when it
    goes, exactly when the inputs left still cover every block; then any
    order is valid. An input that is the sole cover of a block stays in
    every such cover, so the gain is the cost of the redundant inputs minus
    the cheapest cover, among them only, of the blocks the others leave
    uncovered. The witness is the redundant inputs outside that cover.
    Above the redundant-input threshold, falls back to greedily removing
    the most costly currently-redundant input.
    """
    members = [entry for entry in index.entries if mask & entry[0]]
    once, single = _held(members)
    sole_held = redundant = redundant_cost = 0
    for bit, cost, held in members:
        if held & single:
            sole_held |= held
        else:
            redundant |= bit
            redundant_cost += cost
    if not redundant:
        return 0, 0
    if redundant.bit_count() > EXHAUSTIVE_GAIN_THRESHOLD:
        logger.warning(
            "%d redundant inputs exceed the exhaustive threshold %d: "
            "using greedy removal", redundant.bit_count(), EXHAUSTIVE_GAIN_THRESHOLD,
        )
        return _greedy_gain(mask, index)
    uncovered = once & ~sole_held
    # With nothing left to cover, every redundant input goes.
    kept = _cheapest_cover(index, uncovered, redundant, redundant_cost) if uncovered else 0
    gain = redundant_cost
    for bit, cost, _ in members:
        if kept & bit:
            gain -= cost
    return gain, redundant & ~kept


def _greedy_gain(mask: int, index: CoverIndex) -> tuple[int, int]:
    """Remove the costliest currently-redundant member, the lowest id on
    cost ties, until none is redundant: the removed cost and mask."""
    remaining = mask
    gain = 0
    while True:
        members = [entry for entry in index.entries if remaining & entry[0]]
        _, single = _held(members)
        pick = pick_cost = None
        for bit, cost, held in members:
            if not held & single and (pick is None or cost > pick_cost):
                pick, pick_cost = bit, cost
        if pick is None:
            return gain, mask & ~remaining
        remaining ^= pick
        gain += pick_cost


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
