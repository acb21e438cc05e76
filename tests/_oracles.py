"""Independent oracles and instance generators shared by the test suite.

Everything here is deliberately written from first principles (brute force,
full enumeration) so it can cross-check the optimized implementations.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import random
import re
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np

from covmin import reduction, stemming
from covmin.clustering import (
    EPS_SLACK,
    HyperParamChoice,
    _canonical_labels,
    _labellings,
    gini,
)
from covmin.config import RunConfig
from covmin.dataset import TokenDoc, load_dataset
from covmin.distance import levenshtein, normalize
from covmin.reduction import CoverIndex, valid_orders_gain
from covmin.search import (
    ComponentProblem,
    Individual,
    _running_sums,
    _shuffle,
    _weighted_choice,
    dominates,
)
from covmin.synthetic import make_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]


def random_instance(rng: random.Random, max_inputs: int = 10, max_blocks: int = 12):
    """A random set-cover-style instance: cover map and costs keyed by
    1-based input ids over integer block labels."""
    n_inputs = rng.randrange(2, max_inputs + 1)
    n_blocks = rng.randrange(1, max_blocks + 1)
    cover = {}
    costs = {}
    for i in range(1, n_inputs + 1):
        size = rng.randrange(1, min(n_blocks, 4) + 1)
        cover[i] = frozenset(rng.sample(range(n_blocks), size))
        costs[i] = rng.randrange(1, 10)
    return cover, costs


def coverage_of(ids, cover):
    out = set()
    for i in ids:
        out |= cover[i]
    return frozenset(out)


def is_redundant_in(input_id, ids, cover) -> bool:
    """Definition-level redundancy: every block of the input is covered at
    least twice within `ids`."""
    return all(
        sum(1 for j in ids if bl in cover[j]) >= 2
        for bl in cover[input_id]
    )


def order_is_valid(order, ids, cover) -> bool:
    """Each input of `order` must be redundant at its removal time."""
    remaining = set(ids)
    for i in order:
        if i not in remaining or not is_redundant_in(i, remaining, cover):
            return False
        remaining.discard(i)
    return True


def bruteforce_gain(ids, cover, costs) -> int:
    """Maximal removable cost over ALL removal orders (not just canonical
    ones), memoized on the remaining set."""
    ids = frozenset(ids)

    @lru_cache(maxsize=None)
    def best(remaining: frozenset) -> int:
        top = 0
        for i in remaining:
            if is_redundant_in(i, remaining, cover):
                top = max(top, costs[i] + best(remaining - {i}))
        return top

    return best(ids)


def gain_of(ids, cover, costs):
    """`reduction.valid_orders_gain` on the members `ids` of `cover`, over
    the `CoverIndex` of `cover`: the gain and the removed inputs in
    ascending id order."""
    index = CoverIndex.of(cover, costs)
    mask = sum(1 << k for k, i in enumerate(index.inputs) if i in ids)
    gain, removed = valid_orders_gain(mask, index)
    return gain, sorted(index.set_of(removed))


def reference_valid_orders_gain(ids, cover, costs):
    """`reduction.valid_orders_gain` over sets: the sole holders from the
    postings of the members' cover map, the cheapest cover of what they
    leave by `min_cover_by_sets` and, above the threshold, `greedy_gain_by_sets`,
    without its warning. The removed inputs come in ascending id order."""
    members = sorted(ids)
    by_block = reduction.postings({i: cover[i] for i in members})
    sole = {holders[0] for holders in by_block.values() if len(holders) == 1}
    redundant = {i: cover[i] for i in members if i not in sole}
    if len(redundant) > reduction.EXHAUSTIVE_GAIN_THRESHOLD:
        gain, order = greedy_gain_by_sets(members, cover, costs)
        return gain, sorted(order)
    uncovered = by_block.keys() - frozenset().union(*(cover[i] for i in sole))
    redundant_cost = sum(costs[i] for i in redundant)
    kept = (min_cover_by_sets(uncovered, redundant, costs, redundant_cost)
            if uncovered else frozenset())
    order = [i for i in redundant if i not in kept]
    return redundant_cost - sum(costs[i] for i in kept), order


def min_cover_by_sets(objectives, cover, costs, budget):
    """`reduction.min_cover` as a search over sets of ids and blocks: the
    cheapest subset of the inputs of `cover` covering `objectives` at an
    integer cost of at most `budget`, or None. Branch-and-bound: always
    branch on the uncovered objective with the fewest covering inputs (the
    least block on ties), trying them in id order, and prune at the
    incumbent, so the first cheapest cover found wins."""
    inputs_of = reduction.postings(cover)
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
        bl = min(uncovered, key=lambda b: (len(inputs_of[b]), b))
        for i in inputs_of[bl]:
            if i in selected:
                continue
            selected.add(i)
            branch(selected, sel_cost + costs[i], uncovered - cover[i])
            selected.discard(i)

    branch(set(), 0, objectives)
    return best_set


def greedy_gain_by_sets(members, cover, costs):
    """The greedy removal of `valid_orders_gain` over sets: remove the
    costliest currently-redundant member, the lowest id on cost ties, until
    none is redundant. Returns the removed cost and the removal order."""
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


def dedupe_profiles(cover, costs):
    """Drop all but the lowest-id input of each (coverage, cost) profile.

    The dominance relation is only acyclic on duplicate-free instances:
    two inputs with identical coverage and cost dominate each other, which
    is why duplicate removal precedes dominance removal in the reduction
    loop.
    """
    kept_cover, kept_costs, seen = {}, {}, set()
    for i in sorted(cover):
        profile = (cover[i], costs[i])
        if profile in seen:
            continue
        seen.add(profile)
        kept_cover[i] = cover[i]
        kept_costs[i] = costs[i]
    return kept_cover, kept_costs


def dominated_by_subset(input_id, subset, cover, costs) -> bool:
    """Definition of in ⊑ S on the full instance (all blocks as objectives).
    S is unrestricted; restricting it to overlap neighbors is a derived
    equivalence for the dominated test, not part of the definition."""
    if input_id in subset or not subset:
        return False
    return (
        cover[input_id] <= coverage_of(subset, cover)
        and sum(costs[j] for j in subset) <= costs[input_id]
    )


def dominance_relation(cover, costs):
    """Materialize in1 -> in2 iff some subset S with in1 ∈ S dominates in2,
    by enumerating every subset of the other inputs."""
    ids = sorted(cover)
    edges = set()
    for in2 in ids:
        others = [i for i in ids if i != in2]
        for mask in range(1, 1 << len(others)):
            subset = frozenset(
                others[k] for k in range(len(others)) if mask >> k & 1
            )
            if dominated_by_subset(in2, subset, cover, costs):
                for in1 in subset:
                    edges.add((in1, in2))
    return edges


def has_cycle(nodes, edges) -> bool:
    adjacent = {n: [] for n in nodes}
    for a, b in edges:
        adjacent[a].append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}

    def visit(n) -> bool:
        color[n] = GRAY
        for m in adjacent[n]:
            if color[m] == GRAY:
                return True
            if color[m] == WHITE and visit(m):
                return True
        color[n] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in nodes)


def bruteforce_min_cover(ids, cover, costs, objectives):
    """Cheapest subset covering `objectives`, by full subset enumeration."""
    ids = sorted(ids)
    best_cost, best_set = None, None
    for mask in range(1 << len(ids)):
        subset = [ids[k] for k in range(len(ids)) if mask >> k & 1]
        if objectives <= coverage_of(subset, cover):
            c = sum(costs[i] for i in subset)
            if best_cost is None or c < best_cost:
                best_cost, best_set = c, frozenset(subset)
    return best_cost, best_set


def covers_all(problem, members) -> bool:
    """Whether `members` cover every objective of a `ComponentProblem`."""
    return coverage_of(members, problem.cover) == frozenset(problem.index.blocks)


def superposition(bl, ids, cover) -> int:
    """Number of inputs in `ids` covering block `bl`."""
    return sum(1 for i in ids if bl in cover[i])


def redundancy(input_id, ids, cover) -> int:
    """min over the input's blocks of their superposition, minus one.
    Zero means the input is necessary for the coverage of `ids`."""
    if input_id not in ids:
        raise ValueError(f"input {input_id} not in the considered set")
    if not cover[input_id]:
        # Covers nothing: removable at no coverage loss.
        return len(ids)
    return min(superposition(bl, ids, cover) for bl in cover[input_id]) - 1


def reduce_set(ids, cover, costs) -> frozenset:
    """Apply a maximal-gain valid removal order and return what remains."""
    _, order = gain_of(ids, cover, costs)
    return frozenset(ids) - set(order)


def kmedoids_objective(dm, labels) -> float:
    """Sum of point-to-medoid distances for the best medoid of each cluster."""
    total = 0.0
    for c in set(labels):
        members = [i for i, lab in enumerate(labels) if lab == c]
        total += min(dm.values[np.ix_([m], members)].sum() for m in members)
    return total


def levenshtein_dp(a, b) -> int:
    """Unit-cost edit distance by the textbook O(len(a)·len(b)) DP."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, xa in enumerate(a, start=1):
        cur = [i]
        for j, xb in enumerate(b, start=1):
            cur.append(min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (xa != xb),
            ))
        prev = cur
    return prev[-1]


def param_lists_match(p1, p2) -> bool:
    """Two parameter lists match when they have the same length and the same
    value type at every position; names do not count."""
    return len(p1) == len(p2) and all(type(a[1]) is type(b[1]) for a, b in zip(p1, p2))


def param_distance_two_pass(p1, p2) -> float:
    """The parameter distance in two passes: 1 unless the lists match, then
    the normalized sum, in position order, of each position's normalized
    value distance (character edit distance for strs, absolute difference
    for ints): the reference that `distance.param_distance` must equal
    exactly."""
    if not param_lists_match(p1, p2):
        return 1.0
    total = 0.0
    for (_, v1), (_, v2) in zip(p1, p2):
        total += normalize(levenshtein_dp(v1, v2) if isinstance(v1, str) else abs(v1 - v2))
    return normalize(total)


def pair_matrix(items, dist) -> np.ndarray:
    """`dist` over every pair of `items` as one symmetric float64 matrix with
    zero diagonal, one pair at a time: the loop every whole-matrix form of a
    distance must equal."""
    n = len(items)
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(dist(items[i], items[j]))
            m[i, j] = d
            m[j, i] = d
    return m


def output_distance(d1, d2, metric: str) -> int:
    """The output distance of two TokenDocs, one pair at a time: the pair
    loop that `lev_matrix` and `bag_matrix` replace."""
    pair = {"lev": levenshtein, "bag": bag_distance}[metric]
    return pair(d1.tokens, d2.tokens)


def perfbench_run():
    """`perfbench/run.py` as a module, for its workloads and result bytes."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def workload_corpus(name: str, seed: int, directory, scale: int = 1):
    """A benchmark workload's corpus at `seed`, written under `directory` and
    loaded back, and the workload's run configuration. `scale` multiplies
    the spec's inputs, cycles, duplicates and dominated copies."""
    bench_run = perfbench_run()
    workload = bench_run.WORKLOADS[name]
    spec = workload.spec
    spec = dataclasses.replace(
        spec, inputs=spec.inputs * scale, cycles=spec.cycles * scale,
        duplicates=spec.duplicates * scale, dominated=spec.dominated * scale,
    )
    path = Path(directory) / f"{name}-{seed}.json"
    bench_run.generate(spec, seed).write(path)
    return load_dataset(path), RunConfig(**workload.config)


def write_dataset(ds, path) -> None:
    """Serialize a dataset in the on-disk JSON schema that `load_dataset`
    reads back."""
    payload = {
        "inputs": [
            {
                "id": rec.id,
                "actions": [
                    {
                        "method": act.method,
                        "url": act.url_words[0] + "://" + "/".join(act.url_words[1:]),
                        "params": [
                            {"name": name, "type": type(value).__name__, "value": value}
                            for name, value in act.params
                        ],
                    }
                    for act in rec.actions
                ],
                "outputs": list(rec.outputs),
                "mr_action_counts": rec.mr_action_counts,
            }
            for rec in ds.inputs
        ],
        "vulnerabilities": [
            {"id": vid, "detecting_groups": [sorted(g) for g in groups]}
            for vid, groups in ds.vulnerabilities
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_synthetic_dataset(path) -> None:
    """Serialize `covmin.synthetic.make_synthetic_dataset()` in the on-disk
    JSON schema: the bytes of `data/synthetic.json`."""
    write_dataset(make_synthetic_dataset(), path)


def bag_distance(a, b) -> int:
    """Multiset lower bound of the edit distance, one pair at a time: the
    longer length minus the size of the multiset intersection."""
    return max(len(a), len(b)) - sum((Counter(a) & Counter(b)).values())


def bag_distance_by_differences(a, b) -> int:
    """Bag distance as the larger of the two multiset differences."""
    ca, cb = Counter(a), Counter(b)
    return max(sum((ca - cb).values()), sum((cb - ca).values()))


def kmedoids_by_points(dm, k: int, seed: int = 0) -> list[int]:
    """`kmedoids` with each point assigned and each medoid total summed by
    its own loop."""
    n = dm.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(n), k))
    v = dm.values
    assign = [0] * n
    for _ in range(100):
        for i in range(n):
            if i in medoids:
                assign[i] = medoids.index(i)
            else:
                dists = [v[i, m] for m in medoids]
                assign[i] = int(np.argmin(dists))
        new_medoids = []
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            totals = [v[np.ix_([m], members)].sum() for m in members]
            new_medoids.append(members[int(np.argmin(totals))])
        new_medoids = sorted(new_medoids)
        if new_medoids == medoids:
            break
        medoids = new_medoids
    return _canonical_labels(assign)


def dbscan(dm, eps: float, min_neighbors: int) -> list[int]:
    """The production grid walk's labels at one DBSCAN grid point."""
    config = RunConfig(eps_range=(eps, eps), min_neighbors_range=(min_neighbors, min_neighbors))
    return next(_labellings(dm, config.grid("dbscan"), 0))[1]


def dbscan_by_scan(dm, eps: float, min_neighbors: int) -> list[int]:
    """DBSCAN with each eps-neighbourhood collected by scanning its row."""
    n = dm.n
    v = dm.values
    neighborhoods = [
        [j for j in range(n) if j != i and v[i, j] <= eps] for i in range(n)
    ]
    core = [len(nb) >= min_neighbors for nb in neighborhoods]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = list(neighborhoods[i])
        while queue:
            j = queue.pop(0)
            if labels[j] != -1:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(neighborhoods[j])
        cluster += 1
    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return _canonical_labels(labels)


def silhouette_by_points(dm, labels) -> np.ndarray:
    """Per-point silhouette, each point's a and b taken by its own loop over
    the clusters; points in singleton clusters score 0."""
    n = dm.n
    v = dm.values
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    scores = np.zeros(n)
    if len(clusters) < 2:
        return scores
    for i in range(n):
        own = clusters[labels[i]]
        if len(own) == 1:
            continue
        a = sum(v[i, j] for j in own if j != i) / (len(own) - 1)
        b = min(
            v[i, members].mean()
            for lab, members in clusters.items()
            if lab != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return scores


def silhouette_by_clusters(dm, labels) -> np.ndarray:
    """Per-point silhouette from an n x (number of clusters) matrix of mean
    distances, one column per cluster in first-occurrence order, each mean
    its columns' row sum divided by the cluster size; `a` is summed in
    member order. Points in singleton clusters score 0."""
    n = dm.n
    v = dm.values
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    scores = np.zeros(n)
    if len(clusters) < 2:
        return scores
    a = np.zeros(n)
    mean_to = np.empty((n, len(clusters)))
    own = np.empty(n, dtype=np.intp)
    size = np.empty(n, dtype=np.intp)
    for c, members in enumerate(clusters.values()):
        columns = v[:, members]
        mean_to[:, c] = columns.sum(axis=1) / len(members)
        own[members] = c
        size[members] = len(members)
        if len(members) > 1:
            block = columns[members]
            np.fill_diagonal(block, 0.0)
            a[members] = np.cumsum(block, axis=1)[:, -1] / (len(members) - 1)
    mean_to[np.arange(n), own] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    np.divide(b - a, denom, out=scores, where=(size > 1) & (denom != 0))
    return scores


def gini_by_pairs(scores) -> float:
    """`gini` from the n x n array of |x_i - x_j| over the shifted scores."""
    x = np.asarray(scores, dtype=float) + 1.0
    n = len(x)
    mean = x.mean()
    if mean == 0:
        return 0.0
    diffs = np.abs(x[:, None] - x[None, :]).sum()
    return float(diffs / (2 * n * n * mean))


def grid_points(dm, grid) -> list[dict]:
    """Every point of a hyper-parameter grid in grid order, enumerated from
    the grid's definition: k over `k_range` up to the point count, or each
    eps from the bottom of `eps_range` by `eps_step` (if unset, 1.0 when
    every distance is allclose to an integer, else 0.5) with every
    `min_neighbors`."""
    if grid.algo == "kmeans":
        lo, hi = grid.k_range
        return [{"k": k} for k in range(lo, min(hi, dm.n) + 1)]
    step = grid.eps_step
    if step is None:
        step = 1.0 if np.allclose(dm.values, np.round(dm.values)) else 0.5
    lo, hi = grid.eps_range
    mn_lo, mn_hi = grid.min_neighbors_range
    points = []
    eps = lo
    while eps <= hi + EPS_SLACK:
        points.extend({"eps": round(eps, 9), "min_neighbors": mn} for mn in range(mn_lo, mn_hi + 1))
        eps += step
    return points


def select_hyperparams_uncached(dm, grid, seed: int = 0) -> HyperParamChoice:
    """Grid selection that scores every point of `grid_points`, clustering
    with `kmedoids_by_points` or `dbscan_by_scan` and scoring with
    `silhouette_by_points`."""
    candidates = []
    for params in grid_points(dm, grid):
        if grid.algo == "kmeans":
            labels = kmedoids_by_points(dm, params["k"], seed=seed)
        else:
            labels = dbscan_by_scan(dm, params["eps"], params["min_neighbors"])
        scores = silhouette_by_points(dm, labels)
        candidates.append(HyperParamChoice(
            params=params,
            labels=labels,
            silhouette_mean=float(scores.mean()),
            gini=gini(scores),
        ))
    return max(candidates, key=lambda c: (c.silhouette_mean, -c.gini))


def dominates_all_any(f1, f2) -> bool:
    """Pareto dominance (minimization) as the definition reads: no worse
    everywhere and better somewhere."""
    if len(f1) != len(f2):
        raise ValueError("fitness vectors must have equal length")
    return all(a <= b for a, b in zip(f1, f2)) and any(a < b for a, b in zip(f1, f2))


@dataclasses.dataclass(frozen=True)
class ReferenceIndividual:
    members: frozenset
    cost: int
    fitness: tuple[float, ...]


@dataclasses.dataclass
class ReferencePopulations:
    roofers: list[ReferenceIndividual]
    misers: list[ReferenceIndividual]


def reference_mocco_run(cover, costs, config: RunConfig, seed: int = 0,
                        on_generation=None) -> frozenset:
    """`search.mocco_run` with every individual a frozenset of input ids:
    each miser's exposure recomputed on every selection, duplicates found
    by scanning both populations and crossover halves rebuilt per pair.
    It makes the search's draws through `random.Random`'s own `shuffle`
    and `choice`, where the search draws from `getrandbits` directly, so it
    stays an independent check of those draws. It reads gains and fitness
    from `ComponentProblem`."""
    problem = ComponentProblem(cover, costs)
    rng = random.Random(seed)
    pops = _reference_init_roofers(problem, config.n_size, rng)
    if on_generation is not None:
        on_generation(0, pops)
    for gen in range(1, config.generations + 1):
        p1, p2 = _reference_select_parents(problem, pops, rng)
        for child in _reference_crossover(problem, p1, p2, rng):
            toggle = rng.choice(problem.index.inputs)
            child = child - {toggle} if toggle in child else child | {toggle}
            _reference_update_populations(problem, pops, _reference_reduce(problem, child), rng)
        if on_generation is not None:
            on_generation(gen, pops)
    min_cost = min(r.cost for r in pops.roofers)
    best = [r for r in pops.roofers if r.cost == min_cost]
    return rng.choice(best).members


def _reference_reduce(problem, members) -> frozenset:
    return problem.set_of(problem.removal(problem.mask_of(members))[1])


def _reference_individual(problem, members) -> ReferenceIndividual:
    cost, fitness = problem.evaluate(problem.mask_of(members))
    return ReferenceIndividual(frozenset(members), cost, fitness)


def _reference_weighted_choice(rng, items, weights):
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]


def _reference_init_roofers(problem, n_size, rng):
    inputs_of = reduction.postings(problem.cover)
    occurrence = {i: 0 for i in problem.index.inputs}
    roofers = []
    for _ in range(n_size):
        order = sorted(inputs_of)
        rng.shuffle(order)
        members, covered = set(), set()
        for bl in order:
            if bl in covered:
                continue
            candidates = inputs_of[bl]
            weights = [1.0 / (1 + occurrence[i]) for i in candidates]
            pick = _reference_weighted_choice(rng, candidates, weights)
            members.add(pick)
            occurrence[pick] += 1
            covered |= problem.cover[pick]
        roofers.append(_reference_individual(problem, _reference_reduce(problem, members)))
    return ReferencePopulations(roofers=roofers, misers=[])


def _reference_select_parents(problem, pops, rng):
    if pops.misers:
        miser = _reference_weighted_choice(
            rng, pops.misers, [1.0 / sum(m.fitness[1:]) for m in pops.misers])
        roofer = _reference_weighted_choice(
            rng, pops.roofers, [1.0 / r.cost for r in pops.roofers])
        return miser, roofer
    first = _reference_weighted_choice(
        rng, pops.roofers, [1.0 / r.cost for r in pops.roofers])
    rest = [r for r in pops.roofers if r is not first]
    second = _reference_weighted_choice(rng, rest, [1.0 / r.cost for r in rest])
    return first, second


def _reference_crossover(problem, p1, p2, rng):
    inputs_of = reduction.postings(problem.cover)
    objectives = sorted(inputs_of)
    rng.shuffle(objectives)
    half = math.ceil(len(objectives) / 2)
    s1, s2 = set(), set()
    for bl in objectives[:half]:
        s1.update(inputs_of[bl])
    for bl in objectives[half:]:
        s2.update(inputs_of[bl])
    return ((p1.members & s1) | (p2.members & s2),
            (p2.members & s1) | (p1.members & s2))


def _reference_update_populations(problem, pops, members, rng):
    if any(members == r.members for r in pops.roofers):
        return
    if any(members == m.members for m in pops.misers):
        return
    candidate = _reference_individual(problem, members)
    if not any(candidate.fitness[1:]):
        max_cost = max(r.cost for r in pops.roofers)
        if candidate.cost <= max_cost:
            ties = [k for k, r in enumerate(pops.roofers) if r.cost == max_cost]
            pops.roofers[rng.choice(ties)] = candidate
        return
    if any(dominates_all_any(m.fitness, candidate.fitness) for m in pops.misers):
        return
    pops.misers = [m for m in pops.misers
                   if not dominates_all_any(candidate.fitness, m.fitness)]
    pops.misers.append(candidate)


# --- the parts of `search.mocco_run`'s generation step as functions over
# masks, drawing as the loop draws, which runs them inline; the unit
# fixtures check them, and `reference_mocco_run` checks the loop ---


def select_parents(problem, pops, rng):
    """A miser (weight 1/exposure) and a roofer (weight 1/cost) when misers
    exist; otherwise two roofers at distinct positions, both weighted by
    1/cost. Equal initial roofers share one `Individual`, so the second is
    drawn from the others by position, not by identity."""
    if pops.misers:
        miser = _weighted_choice(rng, pops.misers, pops.miser_sums)
        roofer = _weighted_choice(rng, pops.roofers, pops.roofer_sums)
        return miser, roofer
    k = _weighted_choice(rng, range(len(pops.roofers)), pops.roofer_sums)
    rest = pops.roofers[:k] + pops.roofers[k + 1:]
    second = _weighted_choice(rng, rest, _running_sums([1.0 / r.cost for r in rest]))
    return pops.roofers[k], second


def update_populations_two_pass(problem, pops, mask, rng) -> None:
    """`search.update_populations` as two passes over the misers, testing
    dominance between the child and every miser: the oracle of its one
    pass behind a pre-check. A miser's covered-objective mask is read off
    its fitness here (bit j set where entry j + 1 is 0)."""
    if mask in pops.live or mask in pops.refused:
        return
    cost, fitness = problem.evaluate(mask)
    if not any(fitness[1:]):
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
    if any(dominates(miser.fitness, fitness) for miser in pops.misers):
        return
    kept = [(miser, weight) for miser, weight in zip(pops.misers, pops.miser_weights)
            if not dominates(fitness, miser.fitness)]
    candidate = Individual(mask, cost, fitness)
    kept.append((candidate, 1.0 / problem.exposure(candidate)))
    pops.misers = [miser for miser, _ in kept]
    pops.miser_weights = [weight for _, weight in kept]
    pops.miser_covered = [
        sum(1 << j for j, value in enumerate(miser.fitness[1:]) if not value)
        for miser in pops.misers
    ]
    pops.miser_sums = _running_sums(pops.miser_weights)


def crossover(problem, m1: int, m2: int, rng) -> tuple[int, int]:
    """Split the objectives into two random halves; each child takes one
    parent's inputs covering the first half and the other parent's inputs
    covering the second half. The split shuffles the holder masks with the
    draws of `rng.shuffle` over the objectives: only positions matter."""
    masks = problem.index.holders.copy()
    _shuffle(rng.getrandbits, masks, problem.shuffle_steps)
    half = math.ceil(len(masks) / 2)
    s1 = s2 = 0
    for held in masks[:half]:
        s1 |= held
    for held in masks[half:]:
        s2 |= held
    return (m1 & s1) | (m2 & s2), (m2 & s1) | (m1 & s2)


def mutate(problem, mask: int, rng) -> int:
    """Toggle one uniformly chosen component input, then reduce. The index
    takes the draws of `rng.randrange(n)` for the n component inputs:
    k-bit draws until one is below n, even for n = 1."""
    n = len(problem.index.inputs)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    j = getrandbits(k)
    while j >= n:
        j = getrandbits(k)
    return problem.removal(mask ^ (1 << j))[1]


def fitness_by_definition(members, cover, costs) -> tuple[float, ...]:
    """The search's fitness vector computed from raw `valid_orders_gain`
    calls (`gain_of`):
    the normalized cost, then per objective in sorted order 0 when covered,
    else 1 / (potential + 1). The potential is the best gain of adding a
    holder minus its cost, shifted by the cheapest holder's cost."""
    members = frozenset(members)
    covered = coverage_of(members, cover)
    values = []
    for bl in sorted(frozenset().union(*cover.values())):
        if bl in covered:
            values.append(0.0)
            continue
        holders = [i for i in sorted(cover) if bl in cover[i]]
        best = max(gain_of(members | {i}, cover, costs)[0] - costs[i]
                   for i in holders)
        values.append(1.0 / (best + min(costs[i] for i in holders) + 1))
    cost = sum(costs[i] for i in members)
    return (cost / (cost + 1.0),) + tuple(values)


# --- preprocessing as the table-driven stemmer and the one-pass
# `preprocess_all` replaced it: list scans and a per-character recursion in
# the stemmer, and every page tokenized twice ---

_TAG_RE = re.compile(r"<[^>]*>")
_NON_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences in the stem."""
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    flag = False
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        flag = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        flag = True
    if flag:
        if w.endswith(("at", "bl", "iz")):
            return w + "e"
        if _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
            return w[:-1]
        if _measure(w) == 1 and _ends_cvc(w):
            return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _replace_suffix(w: str, rules) -> str:
    """Steps 2 and 3: the first rule whose suffix ends `w` applies, and
    only if the stem left has a positive measure."""
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem_ = w[: -len(suffix)]
            if _measure(stem_) > 0:
                return stem_ + repl
            return w
    return w


def _step4(w: str) -> str:
    for suffix in stemming._STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem_ = w[: -len(suffix)]
            if _measure(stem_) > 1:
                return stem_
            return w
    if w.endswith("ion"):
        stem_ = w[:-3]
        if stem_.endswith(("s", "t")) and _measure(stem_) > 1:
            return stem_
    return w


def _step5a(w: str) -> str:
    if w.endswith("e"):
        stem_ = w[:-1]
        m = _measure(stem_)
        if m > 1:
            return stem_
        if m == 1 and not _ends_cvc(stem_):
            return stem_
    return w


def _step5b(w: str) -> str:
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        return w[:-1]
    return w


def reference_stem(word: str) -> str:
    """The five-step stemmer with rules scanned in list order (the first
    rule whose suffix ends the word applies) and the consonant test
    recomputed per character."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_suffix(word, stemming._STEP2_RULES)
    word = _replace_suffix(word, stemming._STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def reference_tokenize(raw: str) -> list[str]:
    """Markup stripped and lowercased, split on non-token runs, empty
    pieces dropped."""
    text = _TAG_RE.sub(" ", raw).lower()
    return [tok for tok in _NON_TOKEN_RE.split(text) if tok]


def reference_preprocess_all(dataset, config: RunConfig) -> dict:
    """TokenDoc per action occurrence in two passes over every page: one
    builds the shared-content filter, one tokenizes each page again and
    filters and stems its tokens."""
    raw_pages = [out for rec in dataset.inputs for out in rec.outputs]
    freq: Counter = Counter()
    for raw in raw_pages:
        freq.update(set(reference_tokenize(raw)))
    shared = {tok for tok, n in freq.items() if n / len(raw_pages) >= config.shared_threshold}
    docs = {}
    for rec in dataset.inputs:
        for pos, raw in enumerate(rec.outputs):
            docs[(rec.id, pos)] = TokenDoc(tuple(
                reference_stem(tok) for tok in reference_tokenize(raw)
                if tok not in shared and tok not in stemming.STOPWORDS and not tok.isdigit()
            ))
    return docs
