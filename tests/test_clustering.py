import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmin.clustering import (
    _CHUNK,
    DistanceMatrix,
    _labellings,
    gini,
    kmedoids,
    select_hyperparams,
    silhouette,
)
from covmin.config import RunConfig
from covmin.dataset import ValidationError

from _oracles import (
    dbscan,
    dbscan_by_scan,
    gini_by_pairs,
    grid_points,
    kmedoids_by_points,
    kmedoids_objective,
    select_hyperparams_uncached,
    silhouette_by_clusters,
    silhouette_by_points,
)


def _dm(rows):
    return DistanceMatrix(np.asarray(rows, dtype=float))


# Two tight groups far from each other.
TWO_GROUPS = _dm([
    [0, 1, 9, 9],
    [1, 0, 9, 9],
    [9, 9, 0, 1],
    [9, 9, 1, 0],
])


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        _dm([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        _dm([[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        _dm([[0, -1], [-1, 0]])


def test_distance_matrix_validation_tolerance():
    # Within np.allclose's tolerance: accepted although not exact.
    _dm([[0, 1], [1 + 1e-12, 0]])
    _dm([[1e-12, 1], [1, 0]])
    for rows, message in (
        ([[0, 1], [1 + 1e-3, 0]], "symmetric"),
        ([[0, np.nan], [np.nan, 0]], "symmetric"),
        ([[0, 1], [np.nan, 0]], "symmetric"),
        ([[1e-3, 1], [1, 0]], "zero diagonal"),
        ([[np.inf, 1], [1, 0]], "zero diagonal"),
        ([[0, -1], [-1, 0]], "non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            _dm(rows)


def test_eps_step_follows_integrality_within_tolerance():
    # The walk yields an eps only where the mask changes, so every matrix
    # here changes its mask at each grid eps and the yielded eps are the
    # grid's: d(0, 1) = 1 + off enters at the first eps at or above it, the
    # 2s at 2.0.
    grid = RunConfig(eps_range=(1.0, 2.0), min_neighbors_range=(1, 1)).grid("dbscan")
    for off, eps in ((0.0, [1.0, 2.0]), (1e-12, [1.0, 2.0]), (0.5, [1.0, 1.5, 2.0])):
        rows = [[0, 1 + off, 2], [1 + off, 0, 2], [2, 2, 0]]
        assert [p["eps"] for p, _ in _labellings(_dm(rows), grid, 0)] == eps, off
    # Rows are tested in chunks: the one off-integral pair sits in the last.
    n = 2 * _CHUNK + 3
    line = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    for off, eps in ((0.0, [1.0, 2.0]), (1e-12, [1.0, 2.0]), (0.5, [1.0, 1.5, 2.0])):
        m = line.copy()
        m[n - 1, n - 2] = m[n - 2, n - 1] = 1.0 + off
        assert [p["eps"] for p, _ in _labellings(_dm(m), grid, 0)] == eps, off


def test_walk_yields_each_mask_once():
    # Every distance lies below the first eps, 2.0: the other 16 grid eps
    # (step 0.5, as the matrix is fractional) repeat its mask and are skipped.
    dm = _dm([[0, 0.3, 0.7], [0.3, 0, 0.55], [0.7, 0.55, 0]])
    grid = RunConfig().grid("dbscan")
    assert [(p["eps"], p["min_neighbors"]) for p, _ in _labellings(dm, grid, 0)] == \
        [(2.0, mn) for mn in range(1, 6)]


def test_kmedoids_recovers_two_groups():
    labels = kmedoids(TWO_GROUPS, k=2, seed=3)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmedoids_k_one_and_k_n():
    assert kmedoids(TWO_GROUPS, k=1) == [0, 0, 0, 0]
    assert sorted(kmedoids(TWO_GROUPS, k=4)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        kmedoids(TWO_GROUPS, k=5)


def test_kmedoids_objective_decreases_with_k():
    o1 = kmedoids_objective(TWO_GROUPS, kmedoids(TWO_GROUPS, k=1))
    o2 = kmedoids_objective(TWO_GROUPS, kmedoids(TWO_GROUPS, k=2, seed=3))
    assert o2 < o1


def _draw_matrix(draw, n, unit, top):
    """A symmetric n-point matrix of drawn multiples of `unit` up to `top`."""
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(st.integers(0, top)) * unit
    return DistanceMatrix(m)


@st.composite
def _kmedoid_matrix(draw):
    """A symmetric matrix of 1-20 points with integer, half-integer or
    fractional distances; zero distances (duplicate points) and equal
    totals, which make argmin ties, are common."""
    n = draw(st.integers(1, 20))
    unit = draw(st.sampled_from((1.0, 0.5, 1 / 7)))
    return _draw_matrix(draw, n, unit, draw(st.sampled_from((3, 60))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_kmedoid_matrix())
@example(TWO_GROUPS)
@example(_dm([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
def test_kmedoids_matches_per_point_oracle_for_every_k(dm):
    for k in range(1, dm.n + 1):
        for seed in (0, 1, 7):
            assert kmedoids(dm, k, seed=seed) == kmedoids_by_points(dm, k, seed=seed), (k, seed)


def test_dbscan_two_groups():
    labels = dbscan(TWO_GROUPS, eps=2.0, min_neighbors=1)
    assert labels == [0, 0, 1, 1]


def test_dbscan_noise_becomes_singletons():
    dm = _dm([
        [0, 1, 9],
        [1, 0, 9],
        [9, 9, 0],
    ])
    labels = dbscan(dm, eps=2.0, min_neighbors=1)
    assert labels[0] == labels[1]
    assert labels[2] not in (labels[0],)
    # Everything noisy: one singleton cluster per point.
    lonely = dbscan(dm, eps=0.5, min_neighbors=1)
    assert sorted(lonely) == [0, 1, 2]


def test_dbscan_neighborhood_excludes_self():
    # With min_neighbors=2 each point of a tight pair has only 1 neighbor,
    # so both are noise.
    dm = _dm([[0, 1], [1, 0]])
    assert dbscan(dm, eps=2.0, min_neighbors=2) == [0, 1]
    assert dbscan(dm, eps=2.0, min_neighbors=1) == [0, 0]


def test_silhouette_values():
    scores = silhouette(TWO_GROUPS, [0, 0, 1, 1])
    # a=1, b=9 for every point.
    assert np.allclose(scores, (9 - 1) / 9)
    assert np.allclose(silhouette(TWO_GROUPS, [0, 0, 0, 0]), 0.0)


def test_silhouette_singleton_scores_zero():
    dm = _dm([
        [0, 1, 9],
        [1, 0, 9],
        [9, 9, 0],
    ])
    scores = silhouette(dm, [0, 0, 1])
    assert scores[2] == 0.0
    assert scores[0] == pytest.approx(8 / 9)


def test_gini_known_values():
    assert gini([1.0, 1.0, 1.0]) == 0.0
    # Shifted scores {0, 2}: mean 1, mean absolute difference 1 -> 0.5.
    assert gini([-1.0, 1.0]) == pytest.approx(0.5)
    assert gini([0.0, 1.0]) == pytest.approx(1 / 6)


def test_select_hyperparams_dbscan_finds_separating_eps():
    grid = RunConfig(eps_range=(1.0, 10.0), eps_step=1.0).grid("dbscan")
    choice = select_hyperparams(TWO_GROUPS, grid)
    assert choice.labels[0] == choice.labels[1]
    assert choice.labels[2] == choice.labels[3]
    assert choice.labels[0] != choice.labels[2]
    assert choice.silhouette_mean == pytest.approx(8 / 9)


def test_select_hyperparams_kmeans():
    grid = RunConfig(k_range=(1, 4)).grid("kmeans")
    choice = select_hyperparams(TWO_GROUPS, grid, seed=3)
    assert choice.params["k"] == 2
    assert len(set(choice.labels)) == 2


def test_select_hyperparams_is_on_pareto_front():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randrange(4, 9)
        pts = [(rng.random() * 10, rng.random() * 10) for _ in range(n)]
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1])
                m[i, j] = m[j, i] = d
        dm = DistanceMatrix(m)
        grid = RunConfig(eps_range=(1.0, 6.0), eps_step=1.0,
                         min_neighbors_range=(1, 2)).grid("dbscan")
        choice = select_hyperparams(dm, grid)
        # No grid point may strictly dominate the choice; spot
        # check against a re-evaluation of the full grid.
        for params in grid_points(dm, grid):
            scores = silhouette(dm, dbscan_by_scan(dm, params["eps"], params["min_neighbors"]))
            s, g = float(scores.mean()), gini(scores)
            assert not (
                s >= choice.silhouette_mean and g <= choice.gini
                and (s > choice.silhouette_mean or g < choice.gini)
            ), (trial, params)


def _line_matrix(rng, n, unit):
    """Distances between points on a line at multiples of `unit`: tight
    groups, duplicates (distance 0) and gaps."""
    xs = [rng.randrange(0, 30) * unit for _ in range(n)]
    return DistanceMatrix(np.abs(np.subtract.outer(xs, xs)).astype(float))


def test_dbscan_and_selection_match_oracles_on_random_matrices():
    # Border point 0 is within eps of a core point of each of two clusters
    # (1-4 and 5-8); it joins the one expanded first.
    m = np.full((9, 9), 9.0)
    m[1:5, 1:5] = m[5:, 5:] = 1.0
    m[0, [1, 5]] = m[[1, 5], 0] = 2.0
    np.fill_diagonal(m, 0.0)
    two_reach = DistanceMatrix(m)
    assert dbscan(two_reach, 2.0, 3) == dbscan_by_scan(two_reach, 2.0, 3) == \
        [0, 0, 0, 0, 0, 1, 1, 1, 1]
    rng = random.Random(20261018)
    grids = (
        RunConfig().grid("dbscan"),
        RunConfig(eps_range=(0.5, 6.0), min_neighbors_range=(1, 3)).grid("dbscan"),
    )
    for trial in range(24):
        # Integer matrices get eps steps of 1.0, half-integer ones 0.5.
        dm = _line_matrix(rng, rng.randrange(2, 28), 1.0 if trial % 2 else 0.5)
        for grid in grids:
            for params, labels in _labellings(dm, grid, 0):
                assert labels == dbscan(dm, params["eps"], params["min_neighbors"]) == \
                    dbscan_by_scan(dm, params["eps"], params["min_neighbors"]), (trial, params)
            assert select_hyperparams(dm, grid) == select_hyperparams_uncached(dm, grid), trial
        kmeans = RunConfig(k_range=(1, dm.n)).grid("kmeans")
        assert select_hyperparams(dm, kmeans, seed=trial) == \
            select_hyperparams_uncached(dm, kmeans, seed=trial), trial


def test_one_and_two_point_selection_matches_oracle():
    # Two points form one cluster or two singletons, so only the first grid
    # point is labelled; scoring the whole grid must choose the same. Three
    # points need the whole walk: on the second grid their best point is not
    # the first.
    grids = (
        RunConfig().grid("dbscan"),
        RunConfig(eps_range=(0.5, 6.0), min_neighbors_range=(1, 3)).grid("dbscan"),
        RunConfig(eps_range=(0.5, 6.0), min_neighbors_range=(2, 3), eps_step=0.25).grid("dbscan"),
        RunConfig(k_range=(1, 70)).grid("kmeans"),
        RunConfig(k_range=(2, 5)).grid("kmeans"),
    )
    matrices = [_dm([[0]])] + [_dm([[0, d], [d, 0]])
                               for d in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 6.0, 12.0)]
    matrices.append(_dm([[0, 1, 9], [1, 0, 9], [9, 9, 0]]))
    for dm in matrices:
        for grid in grids:
            if grid.algo == "kmeans" and grid.k_range[0] > dm.n:
                with pytest.raises(ValidationError):
                    select_hyperparams(dm, grid)
                continue
            for seed in (0, 3):
                assert select_hyperparams(dm, grid, seed) == \
                    select_hyperparams_uncached(dm, grid, seed), (dm.values, grid, seed)


@st.composite
def _labelled_matrix(draw):
    """A symmetric matrix of 1-24 points whose distances are multiples of 1
    or 0.5 up to 30, with a labelling into 1-6 clusters: singletons, empty
    label ids and all-one-cluster labellings all occur."""
    n = draw(st.integers(1, 24))
    unit = draw(st.sampled_from((1.0, 0.5)))
    dm = _draw_matrix(draw, n, unit, 60)
    k = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return dm, labels


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_labelled_matrix())
@example((TWO_GROUPS, [0, 0, 1, 1]))
@example((TWO_GROUPS, [0, 0, 0, 0]))
@example((TWO_GROUPS, [0, 1, 2, 3]))
@example((TWO_GROUPS, [5, 5, 9, 2]))
@example((_dm([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), [0, 0, 1]))
def test_silhouette_matches_oracle_on_integer_and_half_integer_matrices(case):
    dm, labels = case
    assert np.array_equal(silhouette(dm, labels), silhouette_by_points(dm, labels))


def test_silhouette_and_selection_close_to_oracles_on_fractional_matrices():
    # Cluster means sum each row sequentially; the oracle's 1-D `mean` sums
    # pairwise from 8 members on, so fractional scores may differ in the
    # last bits (6 of the 288 labellings here do), never by more than
    # rounding, and the choice stays the same.
    rng = random.Random(20261018)
    grid = RunConfig(eps_range=(0.5, 4.0), min_neighbors_range=(1, 3)).grid("dbscan")
    for trial in range(12):
        n = rng.randrange(10, 40)
        pts = [(rng.random() * 6, rng.random() * 6) for _ in range(n)]
        dm = DistanceMatrix(np.array([[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts]
                                      for p in pts]))
        for params, labels in _labellings(dm, grid, 0):
            np.testing.assert_allclose(silhouette(dm, labels),
                                       silhouette_by_points(dm, labels), rtol=1e-12, atol=0)
        assert select_hyperparams(dm, grid) == select_hyperparams_uncached(dm, grid), trial


def _singleton_case(n, seed, fractional, kind):
    """A symmetric n-point matrix, integral or fractional, with a labelling
    that is all singletons, one cluster, or a few small clusters among
    mostly singletons."""
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) * 30 if fractional else rng.integers(0, 30, (n, n)).astype(float)
    upper = np.triu(upper, 1)
    labels = list(range(n)) if kind == "all" else [0] * n
    if kind == "mostly":
        # A fifth of the points fall into at most n // 15 + 1 shared labels.
        shared = rng.choice(n, n // 5 + 1, replace=False)
        for i in shared:
            labels[i] = n + int(rng.integers(0, n // 15 + 1))
    rng.shuffle(labels)
    return DistanceMatrix(upper + upper.T), labels


@st.composite
def _singleton_labelling(draw):
    n = draw(st.sampled_from((2, 3, 9, 40, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 37)))
    return _singleton_case(n, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
                           draw(st.sampled_from(("all", "one", "mostly", "mostly"))))


# Cluster sizes below and from 8 members, where numpy's pairwise sum starts,
# and one above `_CHUNK` columns.
_EQUAL_SIZES = (2, 7, 8, 9, 33, _CHUNK + 1)


def _equal_size_case(n, counts, seed, fractional):
    """A symmetric n-point matrix, integral or fractional, labelled with
    `counts[size]` clusters of each size and singletons for the rest of the
    points, in shuffled order."""
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) * 30 if fractional else rng.integers(0, 30, (n, n)).astype(float)
    upper = np.triu(upper, 1)
    labels = [lab for lab, size in enumerate(
        size for size, count in counts.items() for _ in range(count)) for _ in range(size)]
    labels += range(n, 2 * n - len(labels))
    rng.shuffle(labels)
    return DistanceMatrix(upper + upper.T), labels


@st.composite
def _equal_size_labelling(draw):
    """3-300 points with many clusters of a few equal sizes. The count of a
    size is often the most clusters of one `_CHUNK`-column gather or one
    more, so gathers of full, partial and several chunks all occur."""
    n = draw(st.integers(3, 300))
    counts, room = {}, n
    for size in draw(st.lists(st.sampled_from(_EQUAL_SIZES), min_size=1, max_size=3, unique=True)):
        if size <= room:
            per_chunk = max(1, _CHUNK // size)
            count = min(room // size, draw(st.sampled_from((per_chunk, per_chunk + 1))
                                           | st.integers(1, room // size)))
            counts[size] = count
            room -= size * count
    return _equal_size_case(n, counts, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(_singleton_labelling(), _equal_size_labelling()))
@example(_singleton_case(2 * _CHUNK + 37, 22, False, "all"))
@example(_singleton_case(2 * _CHUNK + 37, 22, True, "mostly"))
@example(_singleton_case(_CHUNK + 1, 7, False, "mostly"))
@example(_singleton_case(40, 3, True, "one"))
@example(_equal_size_case(300, {2: 128, 33: 1}, 1, True))
@example(_equal_size_case(300, {2: 129, 8: 5}, 2, True))
@example(_equal_size_case(300, {8: 33, 9: 3}, 3, True))
@example(_equal_size_case(300, {9: 29, 7: 5}, 4, False))
@example(_equal_size_case(300, {33: 8, 7: 1}, 5, True))
@example(_equal_size_case(290, {_CHUNK + 1: 1, 7: 4}, 6, True))
@example(_equal_size_case(3, {2: 1}, 7, False))
def test_silhouette_matches_per_cluster_mean_matrix(case):
    # Singletons are read in chunks of `_CHUNK` columns, equal-size clusters
    # are gathered up to `_CHUNK` columns at a time and summed in member
    # order, and `b` is a running minimum, so every score equals the
    # mean-matrix form bit for bit, also on fractional matrices.
    dm, labels = case
    assert np.array_equal(silhouette(dm, labels), silhouette_by_clusters(dm, labels))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=80),
                 _singleton_labelling().map(lambda case: silhouette(*case))))
@example([0.0] * 59 + [1e-5])
@example(list(0.3 + 1e-9 * np.arange(60)))
@example([-1.0] * 7)
def test_gini_sorted_form_matches_pair_formula(scores):
    # Nearly equal scores are included: the sorted form sums non-negative
    # gaps, so it does not cancel there.
    assert gini(scores) == pytest.approx(gini_by_pairs(scores), rel=1e-12, abs=0)


@st.composite
def _repeating_masks(draw):
    """A symmetric matrix of 1-12 points whose distances are drawn from at
    most four multiples of 1 or 0.25, with a DBSCAN grid, its eps_step unset
    or set: masks repeat across grid eps, and distances below the first eps,
    between grid eps, above the last and duplicated all occur. Multiples of
    0.25 are summed exactly, so the oracle's scores equal the kernels'."""
    n = draw(st.integers(1, 12))
    unit = draw(st.sampled_from((1.0, 0.25)))
    values = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(st.sampled_from(values)) * unit
    lo = draw(st.sampled_from((0.5, 1.0, 2.0)))
    mn = draw(st.integers(1, 3))
    grid = RunConfig(eps_range=(lo, lo + draw(st.sampled_from((0.0, 3.0, 8.0)))),
                     eps_step=draw(st.sampled_from((None, 0.5, 0.75, 1.0))),
                     min_neighbors_range=(mn, mn + draw(st.integers(0, 3)))).grid("dbscan")
    return DistanceMatrix(m), grid


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_repeating_masks())
@example((_dm([[0, 0.3, 0.7], [0.3, 0, 0.55], [0.7, 0.55, 0]]), RunConfig().grid("dbscan")))
@example((TWO_GROUPS, RunConfig(eps_range=(0.5, 10.0)).grid("dbscan")))
@example((DistanceMatrix(TWO_GROUPS.values.astype(int)), RunConfig().grid("dbscan")))
# A diagonal allclose to 0 but above the first eps (1e-12 rounds to 0.0)
# must not end the skip of the grid eps 1.0, whose mask is the first one's.
@example((_dm([[1e-9, 2.0, 3.0], [2.0, 1e-9, 3.0], [3.0, 3.0, 1e-9]]),
          RunConfig(eps_range=(1e-12, 3.0)).grid("dbscan")))
def test_selection_matches_full_grid_oracle_where_masks_repeat(case):
    dm, grid = case
    walked = list(_labellings(dm, grid, 0))
    yielded = [params for params, _ in walked]
    full = grid_points(dm, grid)
    # The walk yields grid points in grid order, each once, and a point it
    # skips repeats the labelling of the last yielded point with the same
    # `min_neighbors`.
    assert yielded == [params for params in full if params in yielded]
    # Each neighbourhood mask is labelled once: no two yielded eps build
    # the same one.
    epses = list(dict.fromkeys(params["eps"] for params in yielded))
    masks = set()
    for eps in epses:
        within = dm.values <= eps
        np.fill_diagonal(within, False)
        masks.add(within.tobytes())
    assert len(masks) == len(epses), epses
    last = {}
    for params in full:
        if params in yielded:
            last[params["min_neighbors"]] = walked[yielded.index(params)][1]
        assert dbscan_by_scan(dm, params["eps"], params["min_neighbors"]) == \
            last[params["min_neighbors"]], params
    assert select_hyperparams(dm, grid) == select_hyperparams_uncached(dm, grid)


def test_trivial_labellings_score_exactly_zero():
    # `select_hyperparams` records one cluster or only singletons as (0.0,
    # 0.0) without scoring them; the kernels must agree exactly.
    for n in range(1, 41):
        for fractional in (False, True):
            for kind in ("one", "all"):
                dm, labels = _singleton_case(n, n, fractional, kind)
                scores = silhouette(dm, labels)
                assert scores.mean() == 0.0 and gini(scores) == 0.0, (n, fractional, kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_select_hyperparams_rejects_empty_matrix():
    empty = DistanceMatrix(np.zeros((0, 0)))
    for algo in ("dbscan", "kmeans"):
        with pytest.raises(ValueError):
            select_hyperparams(empty, RunConfig().grid(algo))
