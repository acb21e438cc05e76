"""Distance-matrix clustering (medoid variant of k-means, DBSCAN),
silhouette and Gini validation, and grid-based Pareto hyper-parameter
selection.

"K-means" over arbitrary string distances has no defined centroid, so the
k-means configuration runs a PAM-style k-medoids on the precomputed matrix.
DBSCAN noise points become singleton clusters so that no data point (and
hence no coverage objective) is ever dropped downstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import EPS_SLACK, HyperParamGrid
from .dataset import ValidationError

_MAX_KMEDOID_ITER = 100
# Matrix rows or columns read per step where a whole-matrix temporary would
# otherwise be built: singleton columns in `silhouette`, rows in the
# integrality test of `_labellings`.
_CHUNK = 256


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        # Exact equality implies np.allclose, so trying it first accepts and
        # rejects the same matrices; the pipeline's matrices all pass it.
        if not np.array_equal(v, v.T) and not np.allclose(v, v.T):
            raise ValueError("distance matrix must be symmetric")
        diag = np.diag(v)
        if diag.any() and not np.allclose(diag, 0.0):
            raise ValueError("distance matrix must have a zero diagonal")
        if (v < 0).any():
            raise ValueError("distances must be non-negative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _canonical_labels(labels) -> list[int]:
    """Relabel cluster ids contiguously from 0 in order of first occurrence."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


def kmedoids(dm: DistanceMatrix, k: int, seed: int = 0) -> list[int]:
    """PAM-style alternation: assign points to the nearest medoid, then move
    each medoid to the point minimizing its cluster's total distance."""
    n = dm.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(n), k))
    v = dm.values
    for _ in range(_MAX_KMEDOID_ITER):
        assign = np.argmin(v[:, medoids], axis=1)
        # Medoids stay in their own cluster so none ever empties.
        assign[medoids] = np.arange(k)
        new_medoids = []
        for c in range(k):
            members = np.flatnonzero(assign == c)
            totals = v[members][:, members].sum(axis=1)
            new_medoids.append(int(members[np.argmin(totals)]))
        new_medoids.sort()
        if new_medoids == medoids:
            break
        medoids = new_medoids
    return _canonical_labels(assign.tolist())


def _dbscan_labels(neighborhoods: list[list[int]], min_neighbors: int) -> list[int]:
    """DBSCAN's expansion over given eps-neighbourhoods; noise points become
    singleton clusters."""
    n = len(neighborhoods)
    core = [len(nb) >= min_neighbors for nb in neighborhoods]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        # An expansion labels the points reachable from i, in any order.
        stack = list(neighborhoods[i])
        while stack:
            j = stack.pop()
            if labels[j] != -1:
                continue
            labels[j] = cluster
            if core[j]:
                stack.extend(neighborhoods[j])
        cluster += 1
    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return _canonical_labels(labels)


def silhouette(dm: DistanceMatrix, labels) -> np.ndarray:
    """Per-point (b - a) / max(a, b); points in singleton clusters score 0.

    `b` is a running minimum over the clusters' mean distances, with no
    n x (number of clusters) array. One pass per multi-member cluster: its
    matrix columns give every point's mean distance to it, set to inf for
    its own members. `a` is summed in member order, as a loop over the
    members would; the cluster means sum each row sequentially, which
    equals numpy's pairwise 1-D `mean` for integer and half-integer
    distances and for clusters of fewer than 8 members, and may differ from
    it in the last bits otherwise. A singleton's mean is its column itself,
    so singletons are read `_CHUNK` columns at a time; a singleton is not
    scored, so its own entry needs no inf. A minimum does not depend on
    order, so the scores equal those of one mean matrix bit for bit.
    """
    n = dm.n
    if len(labels) != n:
        raise ValueError("one label per point required")
    v = dm.values
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    scores = np.zeros(n)
    if len(clusters) < 2:
        return scores
    a = np.zeros(n)
    b = np.full(n, np.inf)
    scored = np.zeros(n, dtype=bool)
    singletons = []
    for members in clusters.values():
        if len(members) == 1:
            singletons.append(members[0])
            continue
        columns = v[:, members]
        mean = columns.sum(axis=1) / len(members)
        mean[members] = np.inf
        np.minimum(b, mean, out=b)
        scored[members] = True
        block = columns[members]
        np.fill_diagonal(block, 0.0)
        a[members] = np.cumsum(block, axis=1)[:, -1] / (len(members) - 1)
    for start in range(0, len(singletons), _CHUNK):
        np.minimum(b, v[:, singletons[start:start + _CHUNK]].min(axis=1), out=b)
    denom = np.maximum(a, b)
    np.divide(b - a, denom, out=scores, where=scored & (denom != 0))
    return scores


def gini(scores) -> float:
    """Dispersion of silhouette scores, shifted by +1 into [0, 2] so that
    negative scores cannot break the ratio.

    The sum of |x_i - x_j| over all ordered pairs is taken in sorted order,
    without the n x n difference array: the gap x_(k) - x_(k-1) lies
    between k(n - k) pairs, so the sum is 2 * sum_k k(n - k) * gap_k. That
    equals 2 * sum_k (2k - n + 1) x_(k) but adds no negative terms, so it
    does not cancel when the scores are nearly equal. It may differ from
    the pair sum in the last bits.
    """
    x = np.asarray(scores, dtype=float) + 1.0
    n = len(x)
    if n == 0:
        raise ValueError("gini requires at least one score")
    mean = x.mean()
    if mean == 0:
        return 0.0
    x.sort()
    k = np.arange(1, n)
    diffs = 2 * (k * (n - k) * np.diff(x)).sum()
    return float(diffs / (2 * n * n * mean))


class HyperParamChoice(NamedTuple):
    params: dict
    labels: list[int]
    silhouette_mean: float
    gini: float


def _is_integral(v: np.ndarray) -> bool:
    """Whether every entry is `np.allclose` to its rounding. `allclose` is
    elementwise, so testing `_CHUNK` rows at a time decides the same as
    testing the whole matrix; exact equality implies it and is tried first."""
    for start in range(0, len(v), _CHUNK):
        rows = v[start:start + _CHUNK]
        rounded = np.round(rows)
        if not (np.array_equal(rows, rounded) or np.allclose(rows, rounded)):
            return False
    return True


def _labellings(dm: DistanceMatrix, grid: HyperParamGrid, seed: int):
    """(params, labels) of the grid points that can win, in grid order,
    labelled lazily.

    K-medoids yields every k. DBSCAN eps ascends by `eps_step`; when that is
    None, the step (1.0 for an integral matrix, else 0.5) is decided once a
    second eps is needed. An eps-neighbourhood excludes the point itself.
    Labels depend only on the neighbourhood mask and `min_neighbors`, and a
    mask only grows with eps, so each mask is labelled and yielded once, for
    every `min_neighbors`, at the first grid eps that builds it. After a
    mask is yielded, the smallest off-diagonal distance above its eps is
    found once: the grid eps below it build the same mask and are skipped,
    each repeating the labellings of an earlier eps with the same
    `min_neighbors`, and the first grid eps at or above it builds a larger
    mask.
    """
    if grid.algo == "kmeans":
        lo, hi = grid.k_range
        if lo > dm.n:
            raise ValidationError(f"k_range {list(grid.k_range)} starts above "
                                  f"the {dm.n} points to cluster")
        for k in range(lo, min(hi, dm.n) + 1):
            yield {"k": k}, kmedoids(dm, k, seed=seed)
        return
    lo, hi = grid.eps_range
    # float64 (no copy for the pipeline's matrices), so that an integer
    # matrix takes the inf initial of the minimum below.
    v = np.asarray(dm.values, dtype=float)
    step, eps, next_value = grid.eps_step, lo, -np.inf
    while eps <= hi + EPS_SLACK:
        point_eps = round(eps, 9)
        if point_eps >= next_value:
            within = v <= point_eps
            np.fill_diagonal(within, False)
            neighborhoods = [np.flatnonzero(row).tolist() for row in within]
            for mn in range(grid.min_neighbors_range[0], grid.min_neighbors_range[1] + 1):
                yield {"eps": point_eps, "min_neighbors": mn}, _dbscan_labels(neighborhoods, mn)
            # The diagonal, allclose to 0 but maybe above a tiny eps, is
            # left out, so it never ends a skip.
            np.fill_diagonal(within, True)
            next_value = float(np.min(v, where=~within, initial=np.inf))
        if step is None:
            step = 1.0 if _is_integral(v) else 0.5
        eps += step


def select_hyperparams(dm: DistanceMatrix, grid: HyperParamGrid, seed: int = 0) -> HyperParamChoice:
    """Walk the grid and return the point with the highest silhouette, a
    member of the (silhouette up, Gini down) Pareto front. Ties break toward
    lower Gini, then grid order. A point that `_labellings` skips repeats an
    earlier point's labelling, so it could not replace it. Grid points often
    yield the same labelling; each distinct labelling is scored once. One
    cluster or only singletons score silhouette 0 at every point, hence
    mean 0.0 and Gini 0.0, so such a labelling is not scored."""
    best: HyperParamChoice | None = None
    scored: dict[tuple[int, ...], tuple[float, float]] = {}
    for params, labels in _labellings(dm, grid, seed):
        key = tuple(labels)
        if key not in scored:
            # An empty labelling is left to `gini`, which rejects it.
            if key and len(set(key)) in (1, len(key)):
                scored[key] = 0.0, 0.0
            else:
                scores = silhouette(dm, labels)
                scored[key] = float(scores.mean()), gini(scores)
        silhouette_mean, dispersion = scored[key]
        # The lexicographic maximum is never dominated, so it is on the
        # front; only a strictly better point replaces an earlier one.
        if best is None or (silhouette_mean, -dispersion) > (best.silhouette_mean, -best.gini):
            best = HyperParamChoice(params, labels, silhouette_mean, dispersion)
        if dm.n <= 2:
            # Two points form one cluster or two singletons, so every
            # labelling scores silhouette 0 and Gini 0: the first point wins.
            break
    return best
