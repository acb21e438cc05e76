import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covmin import reduction
from covmin.blocks import BlockId
from covmin.reduction import (
    CoverIndex,
    EXHAUSTIVE_GAIN_THRESHOLD,
    determine_redundancy,
    min_cover,
    postings,
    reduce_problem,
    remove_duplicates,
    remove_locally_dominated,
    split_components,
    valid_orders_gain,
)

from _oracles import (
    bruteforce_gain,
    bruteforce_min_cover,
    coverage_of,
    dedupe_profiles,
    dominance_relation,
    dominated_by_subset,
    gain_of,
    greedy_gain_by_sets,
    has_cycle,
    is_redundant_in,
    min_cover_by_sets,
    order_is_valid,
    random_instance,
    reduce_set,
    redundancy,
    reference_valid_orders_gain,
    superposition,
)
from _strategies import block_id_cover

# Three inputs where the cheapest-ratio pick is a trap: taking in1 first
# costs 8 overall while {in2, in3} alone costs 6.
GREEDY_COVER = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
GREEDY_COSTS = {1: 2, 2: 3, 3: 3}
ALL = frozenset(GREEDY_COVER)


def test_superposition():
    assert superposition("bl1", ALL, GREEDY_COVER) == 2
    assert superposition("bl4", ALL, GREEDY_COVER) == 1
    assert superposition("bl1", frozenset(), GREEDY_COVER) == 0


def test_redundancy():
    assert redundancy(1, ALL, GREEDY_COVER) == 1
    assert redundancy(2, ALL, GREEDY_COVER) == 0
    assert redundancy(1, frozenset({1}), GREEDY_COVER) == 0
    with pytest.raises(ValueError):
        redundancy(9, ALL, GREEDY_COVER)


def test_determine_redundancy_on_greedy_instance():
    necessary, rcover = determine_redundancy(GREEDY_COVER)
    assert necessary == {2, 3}
    assert coverage_of(rcover, rcover) == set()
    assert set(rcover) == set()  # in1 covers nothing remaining


def test_determine_redundancy_all_distinct():
    cover = {1: frozenset({"a"}), 2: frozenset({"b"})}
    necessary, rcover = determine_redundancy(cover)
    assert necessary == {1, 2}
    assert set(rcover) == set()


def test_determine_redundancy_keeps_tied_pair():
    cover = {1: frozenset({"a"}), 2: frozenset({"a"})}
    necessary, rcover = determine_redundancy(cover)
    assert necessary == set()
    assert set(rcover) == {1, 2}


def test_remove_duplicates_keeps_lowest_id():
    cover = {1: frozenset({"a"}), 2: frozenset({"a"}), 3: frozenset({"a"})}
    costs = {1: 5, 2: 5, 3: 4}
    rcover = remove_duplicates(cover, costs)
    # 1 and 2 share a profile; 3 differs in cost and stays.
    assert set(rcover) == {1, 3}


def test_locally_dominated_examples():
    # {in2, in3} replicates in1's coverage but costs 6 > 2.
    assert remove_locally_dominated(GREEDY_COVER, GREEDY_COSTS) == GREEDY_COVER

    cover = {1: frozenset({"b1"}), 2: frozenset({"b1", "b2"})}
    costs = {1: 5, 2: 3}
    assert set(remove_locally_dominated(cover, costs)) == {2}
    # An input with no remaining objectives needs no replacement.
    assert set(remove_locally_dominated({1: frozenset(), 2: frozenset({"b"})}, {1: 1, 2: 1})) == {2}


def test_locally_dominated_neighbor_cap_conservative(caplog, monkeypatch):
    cover = {i: frozenset({"shared"}) for i in range(1, 30)}
    costs = {i: 1 for i in cover}
    monkeypatch.setattr(reduction, "NEIGHBOR_CAP", 5)
    assert remove_locally_dominated(cover, costs) == cover
    assert "28 overlap neighbors (cap 5)" in caplog.text
    monkeypatch.setattr(reduction, "NEIGHBOR_CAP", 28)
    assert set(remove_locally_dominated(cover, costs)) == {29}


def test_postings_lists_holders_in_id_order():
    cover = {3: frozenset({"a"}), 1: frozenset({"a", "b"}), 2: frozenset()}
    assert postings(cover) == {"a": [1, 3], "b": [1]}


def test_remove_locally_dominated_chain():
    # a ⊑ {b}, b ⊑ {c}: both dominated in the pre-removal state, c kept.
    cover = {
        1: frozenset({"x"}),
        2: frozenset({"x", "y"}),
        3: frozenset({"x", "y", "z"}),
    }
    costs = {1: 3, 2: 2, 3: 1}
    rcover = remove_locally_dominated(cover, costs)
    assert set(rcover) == {3}


def _dominated_in(input_id, cover, costs) -> bool:
    """Some nonempty subset of the other inputs of `cover` dominates it."""
    others = [j for j in sorted(cover) if j != input_id]
    return any(
        dominated_by_subset(
            input_id,
            frozenset(others[k] for k in range(len(others)) if mask >> k & 1),
            cover, costs,
        )
        for mask in range(1, 1 << len(others))
    )


def test_remove_locally_dominated_matches_bruteforce():
    # Costs in 0..3 make zero-cost inputs and mutual domination common, so
    # the second check, against the inputs still kept, decides some cases.
    rng = random.Random(23)
    decided_by_kept = 0
    for _ in range(200):
        cover, _ = random_instance(rng, max_inputs=7, max_blocks=7)
        costs = {i: rng.randrange(4) for i in cover}
        kept = dict(cover)
        for i in sorted(cover):
            if _dominated_in(i, cover, costs):
                if _dominated_in(i, kept, costs):
                    del kept[i]
                else:
                    decided_by_kept += 1
        assert remove_locally_dominated(cover, costs) == kept
    assert decided_by_kept


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_remove_locally_dominated_neighbor_cap_matches_bruteforce(cap, caplog, monkeypatch):
    # An input with more overlap neighbours than the cap before any removal
    # is kept and logged once; every other input follows the two-state rule.
    monkeypatch.setattr(reduction, "NEIGHBOR_CAP", cap)
    rng = random.Random(31)
    capped_dominated = 0
    for _ in range(200):
        cover, _ = random_instance(rng, max_inputs=7, max_blocks=7)
        costs = {i: rng.randrange(4) for i in cover}
        capped = {
            i for i in cover
            if len({j for bl in cover[i] for j in cover if bl in cover[j]} - {i}) > cap
        }
        kept = dict(cover)
        for i in sorted(cover):
            if i in capped:
                capped_dominated += _dominated_in(i, kept, costs)
            elif _dominated_in(i, cover, costs) and _dominated_in(i, kept, costs):
                del kept[i]
        caplog.clear()
        assert remove_locally_dominated(cover, costs) == kept
        warnings = [r for r in caplog.records if "overlap neighbors" in r.getMessage()]
        assert len(warnings) == len(capped)
    assert capped_dominated


def test_split_components_two_groups():
    cover = {
        1: frozenset({"a"}),
        2: frozenset({"a", "b"}),
        3: frozenset({"b"}),
        4: frozenset({"c"}),
        5: frozenset({"c", "d"}),
    }
    comps = split_components(cover)
    assert [sorted(c.inputs) for c in comps] == [[1, 2, 3], [4, 5]]
    assert comps[0].all_blocks() == frozenset({"a", "b"})
    assert comps[1].all_blocks() == frozenset({"c", "d"})


def test_cover_index_orders_inputs_by_id_and_blocks_in_sorted_order():
    cover = {3: frozenset({10, 9}), 1: frozenset({9}), 2: frozenset()}
    index = CoverIndex.of(cover, {1: 5, 2: 6, 3: 7})
    assert index.inputs == [1, 2, 3]
    assert index.blocks == [9, 10]  # not "10" < "9"
    assert index.holders == [0b101, 0b100]
    assert index.entries == [(0b001, 5, 0b01), (0b010, 6, 0), (0b100, 7, 0b11)]
    assert index.holder_entries == [[(0b001, 5, 0b01), (0b100, 7, 0b11)], [(0b100, 7, 0b11)]]
    assert index.set_of(0b101) == frozenset({1, 3})


@st.composite
def _cover_over(draw, blocks):
    """A cover of 0-6 inputs, with ids out of order, over a pool of
    `blocks`, some inputs holding none, at costs of 0-3."""
    pool = draw(st.lists(blocks, min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(st.integers(0, 50), max_size=6, unique=True))
    cover = {i: draw(st.frozensets(st.sampled_from(pool), max_size=4)) for i in ids}
    return cover, {i: draw(st.integers(0, 3)) for i in ids}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    # Powers of 3 and `BlockId`s, whose `str` order differs from their own
    # (27 < 3 by `str`), and short strings, whose does not.
    _cover_over(st.sampled_from([3 ** k for k in range(8)])),
    _cover_over(st.text("1aB", max_size=3)),
    block_id_cover().map(lambda case: case[:2]),
))
def test_cover_index_matches_postings_in_sorted_block_order(case):
    cover, costs = case
    index = CoverIndex.of(cover, costs)
    by_block = postings(cover)
    bit = {i: 1 << k for k, i in enumerate(sorted(cover))}
    assert index.inputs == sorted(cover)
    assert index.blocks == sorted(by_block)
    assert index.holders == [sum(bit[i] for i in by_block[bl]) for bl in index.blocks]
    assert index.entries == [
        (bit[i], costs[i], sum(1 << j for j, bl in enumerate(index.blocks) if bl in cover[i]))
        for i in sorted(cover)
    ]
    entry = dict(zip(index.inputs, index.entries))
    assert index.holder_entries == [[entry[i] for i in by_block[bl]] for bl in index.blocks]


def test_valid_orders_gain_on_greedy_instance():
    gain, order = gain_of(ALL, GREEDY_COVER, GREEDY_COSTS)
    assert gain == 2
    assert order == [1]
    assert gain_of({2, 3}, GREEDY_COVER, GREEDY_COSTS) == (0, [])
    index = CoverIndex.of(GREEDY_COVER, GREEDY_COSTS)
    assert valid_orders_gain(0b111, index) == (2, 0b001)
    assert valid_orders_gain(0b110, index) == (0, 0)


def test_reduce_set_applies_witness():
    assert reduce_set(ALL, GREEDY_COVER, GREEDY_COSTS) == frozenset({2, 3})


def test_greedy_fallback_over_threshold(caplog, monkeypatch):
    # Many mutually redundant copies of one block: greedy keeps one.
    cover = {i: frozenset({"b"}) for i in range(1, 8)}
    costs = {i: i for i in cover}
    monkeypatch.setattr(reduction, "EXHAUSTIVE_GAIN_THRESHOLD", 3)
    gain, order = gain_of(frozenset(cover), cover, costs)
    assert "7 redundant inputs exceed the exhaustive threshold 3" in caplog.text
    assert gain == sum(range(2, 8))  # everything but the cheapest removed
    assert set(order) == set(range(2, 8))
    assert order_is_valid(order, frozenset(cover), cover)


def test_valid_orders_gain_witness_matches_reference(caplog, monkeypatch):
    # The witness order fixes the reduced mask, and so the result bytes.
    rng = random.Random(6)
    for threshold in (EXHAUSTIVE_GAIN_THRESHOLD, 3):
        monkeypatch.setattr(reduction, "EXHAUSTIVE_GAIN_THRESHOLD", threshold)
        for _ in range(300):
            cover, costs = random_instance(rng, max_inputs=12, max_blocks=8)
            ids = frozenset(i for i in cover if rng.random() < 0.8)
            assert gain_of(ids, cover, costs) == \
                reference_valid_orders_gain(ids, cover, costs)
    assert "exceed the exhaustive threshold 3" in caplog.text


def test_greedy_fallback_removes_lower_ids_first_on_cost_ties():
    cover = {i: frozenset({"a"}) for i in range(1, 6)}
    costs = dict.fromkeys(cover, 1)
    with mock.patch.object(reduction, "EXHAUSTIVE_GAIN_THRESHOLD", 3):
        assert gain_of(frozenset(cover), cover, costs) == (4, [1, 2, 3, 4])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_greedy_fallback_matches_the_set_oracle(data):
    # Costs of 0-2 over 1-3 blocks: most inputs are redundant at once and
    # the costliest ones often tie.
    cover, _ = data.draw(_instance())
    costs = {i: data.draw(st.integers(0, 2)) for i in cover}
    ids = frozenset(cover)
    by_block = postings(cover)
    sole = {holders[0] for holders in by_block.values() if len(holders) == 1}
    assume(len(ids - sole) > 3)
    with mock.patch.object(reduction, "EXHAUSTIVE_GAIN_THRESHOLD", 3):
        gain, removed = gain_of(ids, cover, costs)
    want_gain, order = greedy_gain_by_sets(sorted(ids), cover, costs)
    assert (gain, removed) == (want_gain, sorted(order))


def test_reduce_problem_greedy_instance():
    result = reduce_problem(GREEDY_COVER, GREEDY_COSTS)
    assert result.necessary == frozenset({2, 3})
    assert result.components == ()


def test_reduce_problem_all_necessary_single_iteration():
    cover = {1: frozenset({"a"}), 2: frozenset({"b"}), 3: frozenset({"c"})}
    costs = {1: 1, 2: 1, 3: 1}
    result = reduce_problem(cover, costs)
    assert result.necessary == frozenset({1, 2, 3})
    assert result.components == ()
    assert result.iterations == 1


def test_reduce_problem_is_fixpoint_and_preserves_coverage():
    rng = random.Random(424242)
    for _ in range(200):
        cover, costs = random_instance(rng)
        ids = frozenset(cover)
        result = reduce_problem(cover, costs)
        kept = set(result.necessary)
        for comp in result.components:
            kept |= comp.inputs
        assert coverage_of(kept, cover) == coverage_of(ids, cover)
        # Component input sets are pairwise disjoint and exclude necessary.
        seen = set(result.necessary)
        for comp in result.components:
            assert not (comp.inputs & seen)
            assert comp.all_blocks()
            # Each component's map is the full cover restricted to it.
            assert comp.cover == {i: cover[i] & comp.all_blocks() for i in comp.inputs}
            seen |= comp.inputs
        # Re-running on the kept set keeps everything.
        again = reduce_problem({i: cover[i] for i in kept}, costs)
        kept_again = set(again.necessary)
        for comp in again.components:
            kept_again |= comp.inputs
        assert kept_again == kept
        # The necessary inputs plus an optimal cover of each component's
        # objectives cost exactly the optimum over all inputs.
        optimum, _ = bruteforce_min_cover(ids, cover, costs, coverage_of(ids, cover))
        assert sum(costs[i] for i in result.necessary) + sum(
            bruteforce_min_cover(comp.inputs, cover, costs, comp.all_blocks())[0]
            for comp in result.components
        ) == optimum


def test_redundancy_soundness_random_sweep():
    rng = random.Random(1)
    for _ in range(300):
        cover, costs = random_instance(rng)
        ids = frozenset(cover)
        for i in ids:
            if is_redundant_in(i, ids, cover):
                assert coverage_of(ids - {i}, cover) == coverage_of(ids, cover)


def test_removal_monotonicity_random_sweep():
    rng = random.Random(2)
    for _ in range(300):
        cover, costs = random_instance(rng)
        ids = frozenset(cover)
        pair = rng.sample(sorted(ids), 2)
        r_before = redundancy(pair[0], ids, cover)
        r_after = redundancy(pair[0], ids - {pair[1]}, cover)
        assert r_after in (r_before - 1, r_before)


def test_canonical_gain_matches_bruteforce_random_sweep():
    rng = random.Random(3)
    for _ in range(300):
        cover, costs = random_instance(rng, max_inputs=7, max_blocks=8)
        ids = frozenset(cover)
        gain, order = gain_of(ids, cover, costs)
        assert gain == bruteforce_gain(ids, cover, costs)
        assert order_is_valid(order, ids, cover)
        assert sum(costs[i] for i in order) == gain


def test_shuffled_witness_orders_stay_valid():
    rng = random.Random(4)
    for _ in range(300):
        cover, costs = random_instance(rng, max_inputs=7, max_blocks=8)
        ids = frozenset(cover)
        _, order = gain_of(ids, cover, costs)
        shuffled = list(order)
        rng.shuffle(shuffled)
        assert order_is_valid(shuffled, ids, cover)


@st.composite
def _instance(draw):
    """Up to 12 inputs over a 1-8 block alphabet (ints or strings), each
    covering 0-4 blocks at a cost of 0-9: small alphabets make most inputs
    redundant at once."""
    n_blocks = draw(st.integers(1, 8))
    label = draw(st.sampled_from((int, lambda b: f"b{b}")))
    covers = draw(st.lists(
        st.frozensets(st.integers(0, n_blocks - 1), max_size=4),
        min_size=1, max_size=12))
    costs = draw(st.lists(st.integers(0, 9), min_size=len(covers),
                          max_size=len(covers)))
    cover = {i: frozenset(map(label, c)) for i, c in enumerate(covers, start=1)}
    return cover, dict(enumerate(costs, start=1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_instance())
@example(({i: frozenset({0}) for i in range(1, 13)}, {i: i for i in range(1, 13)}))
@example(({1: frozenset(), 2: frozenset({"a"}), 3: frozenset({"a"})}, {1: 0, 2: 1, 3: 1}))
def test_gain_and_min_cover_match_bruteforce(instance):
    cover, costs = instance
    ids = frozenset(cover)
    gain, order = gain_of(ids, cover, costs)
    assert gain == bruteforce_gain(ids, cover, costs)
    assert sum(costs[i] for i in order) == gain
    assert order_is_valid(order, ids, cover)
    assert order_is_valid(order[::-1], ids, cover)
    objectives = coverage_of(ids, cover)
    want, _ = bruteforce_min_cover(ids, cover, costs, objectives)
    found = min_cover(objectives, cover, costs, want)
    assert coverage_of(found, cover) >= objectives
    assert sum(costs[i] for i in found) == want
    assert min_cover(objectives, cover, costs, want - 1) is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_instance())
@example(({1: frozenset(), 2: frozenset()}, {1: 0, 2: 3}))
@example(({1: frozenset({0, 1, 2}), 2: frozenset({0, 1}), 3: frozenset({2})},
          {1: 0, 2: 0, 3: 0}))
@example(({1: frozenset("a"), 2: frozenset("ab"), 3: frozenset("bc"), 4: frozenset("c")},
          {1: 0, 2: 1, 3: 1, 4: 0}))
def test_reduce_problem_matches_bruteforce(instance):
    cover, costs = instance
    ids = frozenset(cover)
    result = reduce_problem(cover, costs)
    kept = result.necessary.union(*(comp.inputs for comp in result.components))
    assert coverage_of(kept, cover) == coverage_of(ids, cover)
    for comp in result.components:
        assert comp.cover == {i: cover[i] & comp.all_blocks() for i in comp.inputs}
    optimum, _ = bruteforce_min_cover(ids, cover, costs, coverage_of(ids, cover))
    assert sum(costs[i] for i in result.necessary) + sum(
        bruteforce_min_cover(comp.inputs, cover, costs, comp.all_blocks())[0]
        for comp in result.components
    ) == optimum


def test_gain_decomposes_over_components():
    rng = random.Random(5)
    for _ in range(200):
        cover, costs = random_instance(rng, max_inputs=8, max_blocks=8)
        ids = frozenset(cover)
        comps = split_components(cover)
        whole, _ = gain_of(ids, cover, costs)
        parts = sum(
            gain_of(c.inputs, cover, costs)[0] for c in comps
        )
        assert whole == parts


def test_min_cover_matches_bruteforce_within_budget():
    rng = random.Random(29)
    for _ in range(150):
        cover, costs = random_instance(rng, max_inputs=7, max_blocks=7)
        objectives = coverage_of(cover, cover)
        want, _ = bruteforce_min_cover(frozenset(cover), cover, costs, objectives)
        found = min_cover(objectives, cover, costs, want)
        assert coverage_of(found, cover) >= objectives
        assert sum(costs[i] for i in found) == want
        assert min_cover(objectives, cover, costs, want - 1) is None
    assert min_cover(frozenset({"a", "b"}), {1: frozenset({"a"})}, {1: 1}, 5) is None


@st.composite
def _min_cover_case(draw):
    """`min_cover`'s arguments: a cover of ints (powers of 3, whose `str`
    order is not numeric order), strs or `BlockId`s with costs of 0-3; all,
    some or none of its blocks as objectives, sometimes with one no input
    holds; and a budget of -1, 0, or one below, at or above the optimum."""
    kind = draw(st.sampled_from(["int", "str", "block_id"]))
    if kind == "block_id":
        cover, _, _ = draw(block_id_cover())
        missing = BlockId(31, "GET", 0)
    else:
        label = (lambda b: 3 ** b) if kind == "int" else (lambda b: f"b{b}")
        n_blocks = draw(st.integers(1, 8))
        covers = draw(st.lists(st.frozensets(st.integers(0, n_blocks - 1), max_size=4),
                               min_size=1, max_size=10))
        cover = {i: frozenset(map(label, c)) for i, c in enumerate(covers, start=1)}
        missing = label(99)
    costs = {i: draw(st.integers(0, 3)) for i in cover}
    blocks = sorted(frozenset().union(*cover.values()), key=str)
    objectives = set(blocks)
    if blocks and draw(st.booleans()):
        objectives = set(draw(st.lists(st.sampled_from(blocks), unique=True)))
    if draw(st.booleans()):
        objectives.add(missing)
    budgets = [-1, 0]
    found = min_cover_by_sets(objectives, cover, costs, sum(costs.values()))
    if found is not None:
        optimum = sum(costs[i] for i in found)
        budgets += [optimum - 1, optimum, optimum + 2]
    return frozenset(objectives), cover, costs, draw(st.sampled_from(budgets))


def _tie_case(first, second):
    """`min_cover`'s arguments on a cover where both blocks have four
    holders and the witness hangs on which one is branched on first."""
    cover = {1: frozenset({first}), 2: frozenset({first, second}), 3: frozenset({first}),
             4: frozenset({first, second}), 5: frozenset({second}), 6: frozenset({second})}
    return frozenset({first, second}), cover, {1: 1, 2: 2, 3: 1, 4: 2, 5: 3, 6: 1}, 2


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_min_cover_case())
# Both blocks have four holders, so the search branches first on the least
# block, 9 or `BlockId` 2, and keeps inputs 1 and 6. Branching first on the
# block least by `str` (10, or `BlockId` 19) would keep input 2 at equal
# cost.
@example(_tie_case(9, 10))
@example(_tie_case(BlockId(2, "GET", 0), BlockId(19, "GET", 0)))
@example((frozenset(), {1: frozenset({"a"})}, {1: 1}, -1))
@example((frozenset(), {1: frozenset({"a"})}, {1: 1}, 0))
@example((frozenset({"a", "b"}), {1: frozenset({"a"})}, {1: 0}, 5))
def test_min_cover_witness_matches_the_set_oracle(case):
    # The same cover, not just the same cost: the witness fixes what
    # local dominance and the removal gain keep, and so the result bytes.
    objectives, cover, costs, budget = case
    assert min_cover(objectives, cover, costs, budget) == \
        min_cover_by_sets(objectives, cover, costs, budget)


def test_dominance_relation_asymmetric_transitive_acyclic():
    rng = random.Random(7)
    for _ in range(100):
        cover, costs = random_instance(rng, max_inputs=6, max_blocks=6)
        cover, costs = dedupe_profiles(cover, costs)
        edges = dominance_relation(cover, costs)
        for a, b in edges:
            assert (b, a) not in edges
        for a, b in edges:
            for c, d in edges:
                if b == c:
                    assert (a, d) in edges
        assert not has_cycle(sorted(cover), edges)


def test_concatenated_component_orders_valid_on_union():
    rng = random.Random(6)
    for _ in range(200):
        cover, costs = random_instance(rng, max_inputs=8, max_blocks=8)
        ids = frozenset(cover)
        comps = split_components(cover)
        concatenated = []
        for c in comps:
            _, order = gain_of(c.inputs, cover, costs)
            concatenated.extend(order)
        assert order_is_valid(concatenated, ids, cover)
