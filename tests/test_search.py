import json
import logging
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covmin.search
from covmin.baselines import exhaustive_optimal
from covmin.blocks import BlockId
from covmin.config import RunConfig
from covmin.reduction import EXHAUSTIVE_GAIN_THRESHOLD, valid_orders_gain
from covmin.search import (
    ComponentProblem,
    Individual,
    Populations,
    _running_sums,
    _shuffle,
    _shuffle_steps,
    _weighted_choice,
    dominates,
    init_roofers,
    mocco_run,
    update_populations,
)

from _oracles import (
    _reference_weighted_choice,
    bruteforce_min_cover,
    coverage_of,
    covers_all,
    crossover,
    dominates_all_any,
    fitness_by_definition,
    gain_of,
    is_redundant_in,
    mutate,
    random_instance,
    reference_mocco_run,
    reference_valid_orders_gain,
    select_parents,
    update_populations_two_pass,
)
from _strategies import block_id_cover

GREEDY_COVER = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
GREEDY_COSTS = {1: 2, 2: 3, 3: 3}


def _greedy_problem():
    return ComponentProblem(GREEDY_COVER, GREEDY_COSTS)


def test_dominates():
    assert dominates((0.1, 0.0), (0.2, 0.0))
    assert not dominates((0.2, 0.0), (0.2, 0.0))
    assert not dominates((0.1, 0.5), (0.2, 0.3))
    with pytest.raises(ValueError):
        dominates((0.1,), (0.1, 0.2))


_FITNESS_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(_FITNESS_VALUES, min_size=n, max_size=n),
    st.lists(_FITNESS_VALUES, min_size=n, max_size=n),
)))
def test_dominates_matches_all_any_definition(vectors):
    f1, f2 = vectors
    assert dominates(f1, f2) == dominates_all_any(f1, f2)
    assert dominates(tuple(f1), tuple(f2)) == dominates_all_any(f1, f2)
    assert not dominates(f1, list(f1))


def test_potential_examples():
    problem = _greedy_problem()
    # Adding in1 to {in2, in3} makes in1 removable again: gain 2, own cost 2,
    # shift by the cheapest cover of bl2, objective 1 (in1, cost 2).
    assert problem.objectives[1] == "bl2"
    assert problem.potential(problem.mask_of({2, 3}), 1) == 2
    # A block covered by a single input always has potential 0.
    single = ComponentProblem({1: frozenset({"b"})}, {1: 4})
    assert single.potential(0, 0) == 0


def test_potential_non_negative_random_sweep():
    rng = random.Random(77)
    for _ in range(100):
        cover, costs = random_instance(rng, max_inputs=6, max_blocks=6)
        problem = ComponentProblem(cover, costs)
        mask = problem.mask_of(i for i in cover if rng.random() < 0.5)
        for j in range(len(problem.objectives)):
            assert problem.potential(mask, j) >= 0


def test_objective_value_and_exposure():
    problem = _greedy_problem()
    # Fitness entries follow the cost, one per objective: bl1, bl2, bl3, bl4.
    full, partial = problem.mask_of({2, 3}), problem.mask_of({2})
    assert problem.evaluate(full)[1][1] == 0.0
    # An uncovered block with potential 2 scores 1/(2+1): bl3, objective 2,
    # under {1, 3}.
    missing_bl3 = problem.mask_of({1, 3})
    assert not missing_bl3 & problem.holder_masks[2]
    assert problem.potential(missing_bl3, 2) == 2
    assert problem.evaluate(missing_bl3)[1][3] == pytest.approx(1 / 3)
    # Uncovered block with potential 0 scores exactly 1: bl2, objective 1.
    assert not partial & problem.holder_masks[1]
    assert problem.evaluate(partial)[1][2] == 1.0
    assert problem.exposure(problem.individual(full)) == 0.0
    assert problem.exposure(problem.individual(partial)) > 0.0


def test_fitness_vector_shape_and_range():
    problem = _greedy_problem()
    cost, fit = problem.evaluate(problem.mask_of({2, 3}))
    assert cost == 6
    assert len(fit) == 1 + 4
    assert 0.0 <= fit[0] < 1.0
    assert fit[1:] == (0.0, 0.0, 0.0, 0.0)
    cost, partial = problem.evaluate(problem.mask_of({2}))
    assert cost == 3
    assert any(v > 0 for v in partial[1:])


def test_init_roofers_cover_everything():
    problem = _greedy_problem()
    pops = init_roofers(problem, n_size=10, rng=random.Random(5))
    assert len(pops.roofers) == 10
    for roofer in pops.roofers:
        members = problem.set_of(roofer.mask)
        assert covers_all(problem, members)
        for i in members:
            assert not is_redundant_in(i, members, problem.cover)
    assert pops.misers == []


def test_init_roofers_singleton_component():
    problem = ComponentProblem({7: frozenset({"a", "b"})}, {7: 3})
    pops = init_roofers(problem, n_size=4, rng=random.Random(0))
    assert all(problem.set_of(r.mask) == frozenset({7}) for r in pops.roofers)


def test_select_parents_weights_toward_cheap_roofers():
    problem = _greedy_problem()
    cheap = problem.individual(problem.mask_of({2, 3}))  # cost 6
    # Built raw: a roofer of cost 12 with cheap's fitness.
    costly = Individual(mask=problem.mask_of({1, 2, 3}), cost=12, fitness=cheap.fitness)
    pops = Populations.of([cheap, costly])
    rng = random.Random(123)
    first_counts = 0
    draws = 100_000
    for _ in range(draws):
        p1, _ = select_parents(problem, pops, rng)
        if p1 is cheap:
            first_counts += 1
    # P(cheap) = (1/6) / (1/6 + 1/12) = 2/3; the pair is always distinct.
    assert first_counts / draws == pytest.approx(2 / 3, abs=0.05)


def test_select_parents_takes_equal_roofers_as_two_parents():
    # Equal initial roofers share one Individual.
    problem = _greedy_problem()
    roofer = problem.individual(problem.mask_of({2, 3}))
    pops = Populations.of([roofer, roofer])
    assert select_parents(problem, pops, random.Random(0)) == (roofer, roofer)


def test_select_parents_with_misers():
    problem = _greedy_problem()
    roofer = problem.individual(problem.mask_of({2, 3}))
    pops = Populations.of([roofer])
    update_populations(problem, pops, problem.mask_of({2}), random.Random(0))
    [miser] = pops.misers
    assert problem.set_of(miser.mask) == frozenset({2})
    p1, p2 = select_parents(problem, pops, random.Random(1))
    assert p1 is miser
    assert p2 is roofer


# Positive weights with repeats, and weights tiny beside the total.
_WEIGHTS = st.lists(st.one_of(
    st.sampled_from([1.0, 0.5, 1 / 3, 1 / 7, 2.0**-53, 1e-17]),
    st.floats(min_value=1e-12, max_value=1e3),
), min_size=1, max_size=25)


class _FixedDraw:
    """Stand-in rng whose `random()` always returns one value."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_WEIGHTS, st.integers(0, 2**32))
@example([1.0], 0)
@example([1.0, 1e-17, 1e-17, 1e-17], 0)
def test_weighted_choice_matches_reference(weights, seed):
    items = list(range(len(weights)))
    sums = _running_sums(weights)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert _weighted_choice(rng, items, sums) == \
            _reference_weighted_choice(reference_rng, items, weights)
    # The extreme draws. 1.0, which `random()` never returns, scales to the
    # total itself, which can lie past every running sum: the last-item
    # fallback.
    for x in (0.0, 1 - 2**-53, 1.0):
        assert _weighted_choice(_FixedDraw(x), items, sums) == \
            _reference_weighted_choice(_FixedDraw(x), items, weights)


@pytest.mark.parametrize("n", range(41))
def test_shuffle_makes_the_draws_of_random_shuffle(n):
    # `init_roofers` and `crossover` shuffle through `_shuffle`, and the
    # result bytes rest on its draws being `random.Random.shuffle`'s: the
    # same order, and the generator left in the same state.
    steps = _shuffle_steps(n)
    for seed in range(100):
        rng, reference = random.Random(seed), random.Random(seed)
        items, expected = list(range(n)), list(range(n))
        _shuffle(rng.getrandbits, items, steps)
        reference.shuffle(expected)
        assert items == expected
        assert rng.random() == reference.random()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33])
def test_mutate_draws_as_randrange(n):
    # Each input is the sole holder of its own objective, so no member set
    # reduces and the toggled bit shows the drawn index. n = 1 still draws.
    cover = {i: frozenset({i}) for i in range(n)}
    problem = ComponentProblem(cover, {i: 1 for i in cover})
    for seed in range(200):
        rng, reference = random.Random(seed), random.Random(seed)
        assert mutate(problem, 0, rng) == 1 << reference.randrange(n)
        assert rng.random() == reference.random()


class _FixedOrder(random.Random):
    """Stand-in rng whose shuffle of `start` always produces `order`: its
    `getrandbits` replays the Fisher-Yates draws of `random.Random.shuffle`
    that turn the one into the other, and checks each draw's bit count."""

    def __init__(self, start, order):
        super().__init__(0)
        items, self.draws = list(start), []
        for i in range(len(items) - 1, 0, -1):
            j = items.index(order[i])
            items[i], items[j] = items[j], items[i]
            self.draws.append(((i + 1).bit_length(), j))

    def getrandbits(self, k):
        bits, value = self.draws.pop(0)
        assert k == bits
        return value


def test_crossover_halves_fixture():
    cover = {
        1: frozenset({"a"}),
        2: frozenset({"b"}),
        3: frozenset({"a", "c"}),
        4: frozenset({"d"}),
        5: frozenset({"c", "d"}),
    }
    costs = {i: 1 for i in cover}
    problem = ComponentProblem(cover, costs)
    p1, p2 = problem.mask_of({1, 3, 4}), problem.mask_of({2, 5})
    # First half {a, b} is covered by inputs {1, 2, 3}; second half {c, d}
    # by {3, 4, 5}.
    order = ["a", "b", "c", "d"]
    shuffled = list(problem.objectives)
    _FixedOrder(problem.objectives, order).shuffle(shuffled)
    assert shuffled == order
    rng = _FixedOrder(problem.objectives, order)
    child1, child2 = map(problem.set_of, crossover(problem, p1, p2, rng))
    assert rng.draws == []
    assert child1 == frozenset({1, 3, 5})
    assert child2 == frozenset({2, 3, 4})
    assert child1 <= problem.set_of(p1 | p2)
    assert child2 <= problem.set_of(p1 | p2)


def test_crossover_identical_parents_returns_parents():
    problem = _greedy_problem()
    mask = problem.mask_of({2, 3})
    child1, child2 = map(problem.set_of, crossover(problem, mask, mask, random.Random(0)))
    assert child1 == frozenset({2, 3})
    assert child2 == frozenset({2, 3})


def test_mutate_results_are_reduced():
    rng = random.Random(31)
    for _ in range(500):
        cover, costs = random_instance(rng, max_inputs=6, max_blocks=6)
        problem = ComponentProblem(cover, costs)
        members = frozenset(i for i in cover if rng.random() < 0.5)
        mutated = problem.set_of(mutate(problem, problem.mask_of(members), rng))
        for i in mutated:
            assert not is_redundant_in(i, mutated, problem.cover)


def test_update_populations_roofer_replacement_and_duplicates():
    problem = _greedy_problem()
    worst = problem.individual(problem.mask_of({1, 2, 3}))
    pops = Populations.of([worst, worst])
    rng = random.Random(0)
    # Equal-cost full-coverage candidate is accepted (<=, not <).
    update_populations(problem, pops, problem.mask_of({2, 3}), rng)
    assert any(problem.set_of(r.mask) == frozenset({2, 3}) for r in pops.roofers)
    # Duplicate of an existing roofer is discarded silently.
    before = list(pops.roofers)
    update_populations(problem, pops, problem.mask_of({2, 3}), rng)
    assert pops.roofers == before


def test_update_populations_miser_dominance():
    problem = _greedy_problem()
    roofer = problem.individual(problem.mask_of({2, 3}))
    pops = Populations.of([roofer])
    rng = random.Random(0)
    update_populations(problem, pops, problem.mask_of({1}), rng)
    assert len(pops.misers) == 1
    # {1, 2} covers a superset of {1} at higher cost: incomparable, kept.
    update_populations(problem, pops, problem.mask_of({1, 2}), rng)
    assert len(pops.misers) == 2


def test_mocco_beats_greedy_trap():
    result = mocco_run(
        GREEDY_COVER, GREEDY_COSTS,
        RunConfig(n_size=4, generations=50), seed=11,
    )
    assert result == frozenset({2, 3})
    assert sum(GREEDY_COSTS[i] for i in result) == 6


def test_mocco_deterministic_per_seed():
    a = mocco_run(GREEDY_COVER, GREEDY_COSTS,
                  RunConfig(n_size=4, generations=30), seed=3)
    b = mocco_run(GREEDY_COVER, GREEDY_COSTS,
                  RunConfig(n_size=4, generations=30), seed=3)
    assert a == b


def test_mocco_matches_bruteforce_on_small_components():
    rng = random.Random(2024)
    for _ in range(10):
        cover, costs = random_instance(rng, max_inputs=6, max_blocks=6)
        objectives = frozenset().union(*cover.values())
        result = mocco_run(cover, costs,
                           RunConfig(n_size=8, generations=100), seed=1)
        got = sum(costs[i] for i in result)
        want, _ = bruteforce_min_cover(frozenset(cover), cover, costs, objectives)
        assert got == want


@st.composite
def _component(draw, max_inputs=10):
    """A component of 1-`max_inputs` inputs, each covering 1-4 of 1-8
    blocks at a cost of 1-9, and a search seed."""
    n_blocks = draw(st.integers(1, 8))
    covers = draw(st.lists(
        st.frozensets(st.integers(0, n_blocks - 1), min_size=1, max_size=4),
        min_size=1, max_size=max_inputs))
    costs = draw(st.lists(st.integers(1, 9), min_size=len(covers),
                          max_size=len(covers)))
    cover = dict(enumerate(covers, start=1))
    return cover, dict(enumerate(costs, start=1)), draw(st.integers(0, 2**16))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_component(), st.integers(2, 6), st.integers(0, 20))
@example(({1: frozenset({0})}, {1: 3}, 0), 2, 0)
@example((GREEDY_COVER, GREEDY_COSTS, 5), 2, 0)
def test_mocco_covers_every_objective(case, n_size, generations):
    cover, costs, seed = case
    objectives = coverage_of(cover, cover)
    result = mocco_run(cover, costs, RunConfig(n_size=n_size, generations=generations), seed)
    assert result <= cover.keys()
    assert coverage_of(result, cover) == objectives
    exact = exhaustive_optimal(cover, costs)
    assert coverage_of(exact, cover) == objectives
    assert sum(costs[i] for i in exact) <= sum(costs[i] for i in result)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_component(max_inputs=8))
@example((GREEDY_COVER, GREEDY_COSTS, 11))
def test_long_mocco_run_and_exhaustive_match_bruteforce(case):
    cover, costs, seed = case
    optimum, _ = bruteforce_min_cover(frozenset(cover), cover, costs,
                                      coverage_of(cover, cover))
    result = mocco_run(cover, costs, RunConfig(n_size=8, generations=100), seed)
    assert sum(costs[i] for i in result) == optimum
    assert sum(costs[i] for i in exhaustive_optimal(cover, costs)) == optimum


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_component(), st.data())
def test_memo_matches_raw_valid_orders_gain(case, data):
    cover, costs, _ = case
    problem = ComponentProblem(cover, costs)
    subsets = data.draw(st.lists(
        st.frozensets(st.sampled_from(sorted(cover))), max_size=6))
    for _ in range(2):  # the first call solves, the repeat reads the cache
        for s in subsets:
            gain, order = gain_of(s, cover, costs)
            assert problem.removal(problem.mask_of(s)) == \
                (gain, problem.mask_of(s - set(order)))


# Both blocks have four holders, so the cover search branches first on the
# least block: (1, GET, 0) as a `BlockId`, keeping input 2, but (19, POST, 0)
# as an `as_str()` string ("19:" < "1:G"), keeping inputs 1 and 6 at the same
# cost.
_A, _B = BlockId(1, "GET", 0), BlockId(19, "POST", 0)
AS_STR_TIE_COVER = {
    1: frozenset({_B}), 2: frozenset({_A, _B}), 3: frozenset({_B}),
    4: frozenset({_A, _B}), 5: frozenset({_A}), 6: frozenset({_A}),
}
AS_STR_TIE_COSTS = {1: 1, 2: 2, 3: 1, 4: 2, 5: 3, 6: 1}


def test_as_str_keying_changes_the_witness():
    cover, costs = AS_STR_TIE_COVER, AS_STR_TIE_COSTS
    as_str = {i: frozenset(bl.as_str() for bl in blocks) for i, blocks in cover.items()}
    assert gain_of(cover, cover, costs) == (8, [1, 3, 4, 5, 6])
    assert gain_of(cover, as_str, costs) == (8, [2, 3, 4, 5])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_id_cover())
@example((AS_STR_TIE_COVER, AS_STR_TIE_COSTS, frozenset(AS_STR_TIE_COVER)))
def test_removal_gain_on_block_ids_matches_the_set_oracle(case):
    cover, costs, members = case
    problem = ComponentProblem(cover, costs)
    gain, order = reference_valid_orders_gain(members, cover, costs)
    mask = problem.mask_of(members)
    assert problem.removal(mask) == (gain, mask & ~problem.mask_of(order))


def _generations(run, cover, costs, config, seed):
    """`run`'s result and, per generation, every roofer's and miser's
    members, cost and fitness, in population order. `mocco_run`'s
    individuals carry a mask, the reference's a frozenset."""
    set_of = ComponentProblem(cover, costs).set_of
    seen = []

    def members(ind):
        return ind.members if run is reference_mocco_run else set_of(ind.mask)

    def record(gen, pops):
        seen.append((gen,
                     [(members(r), r.cost, r.fitness) for r in pops.roofers],
                     [(members(m), m.cost, m.fitness) for m in pops.misers]))

    return run(cover, costs, config, seed, on_generation=record), seen


# Equal initial roofers at n_size=2, and a miser evicted by a dominating one.
EVICTING_COVER = {
    1: frozenset({2}), 2: frozenset({1, 2}), 3: frozenset({0, 1}), 4: frozenset({1, 2}),
}
EVICTING_COSTS = {1: 1, 2: 2, 3: 7, 4: 7}


def test_evicting_example_has_equal_roofers_and_evicts_a_miser():
    _, seen = _generations(mocco_run, EVICTING_COVER, EVICTING_COSTS,
                           RunConfig(n_size=2, generations=20), 21)
    roofers = [members for members, _, _ in seen[0][1]]
    assert len(set(roofers)) < len(roofers)
    misers = [{members for members, _, _ in gen[2]} for gen in seen]
    assert any(before - after for before, after in zip(misers, misers[1:]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_component(), st.integers(2, 8), st.integers(0, 60))
@example((EVICTING_COVER, EVICTING_COSTS, 21), 2, 20)
@example(({1: frozenset({0})}, {1: 3}, 0), 3, 5)
def test_mocco_run_matches_reference_search(case, n_size, generations):
    cover, costs, seed = case
    config = RunConfig(n_size=n_size, generations=generations)
    assert _generations(mocco_run, cover, costs, config, seed) == \
        _generations(reference_mocco_run, cover, costs, config, seed)
    # The loop without a hook too.
    assert mocco_run(cover, costs, config, seed) == \
        reference_mocco_run(cover, costs, config, seed)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_component(), st.integers(2, 8), st.integers(0, 60))
@example((EVICTING_COVER, EVICTING_COSTS, 21), 2, 20)
def test_refused_children_stay_inadmissible(case, n_size, generations):
    """At every generation each refused mask is a live miser's, a partial
    mask dominated by a live miser, or a covering mask costlier than every
    roofer; none is a roofer's."""
    cover, costs, seed = case
    judge = ComponentProblem(cover, costs)
    judged = {}

    def check(gen, pops):
        max_cost = max(r.cost for r in pops.roofers)
        live_misers = {m.mask for m in pops.misers}
        for mask in pops.refused:
            if mask not in judged:
                judged[mask] = judge.evaluate(mask)
            cost, fitness = judged[mask]
            assert mask not in pops.live
            if not any(fitness[1:]):
                assert cost > max_cost
            elif mask not in live_misers:
                assert any(dominates(m.fitness, fitness) for m in pops.misers)

    mocco_run(cover, costs, RunConfig(n_size=n_size, generations=generations),
              seed, on_generation=check)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_component(), st.integers(2, 8), st.integers(0, 60))
@example((EVICTING_COVER, EVICTING_COSTS, 21), 2, 20)
def test_each_partial_mask_is_evaluated_once(case, n_size, generations):
    cover, costs, seed = case
    partial = Counter()
    evaluate = ComponentProblem.evaluate

    def counting(self, mask):
        cost, fitness = evaluate(self, mask)
        if any(fitness[1:]):
            partial[mask] += 1
        return cost, fitness

    with mock.patch.object(ComponentProblem, "evaluate", counting):
        mocco_run(cover, costs, RunConfig(n_size=n_size, generations=generations), seed)
    assert all(n == 1 for n in partial.values()), partial


def test_init_roofers_evaluates_each_distinct_roofer_once():
    problem = ComponentProblem(EVICTING_COVER, EVICTING_COSTS)
    evaluated = Counter()
    evaluate = problem.evaluate

    def counting(mask):
        evaluated[mask] += 1
        return evaluate(mask)

    problem.evaluate = counting
    pops = init_roofers(problem, n_size=8, rng=random.Random(21))
    assert pops.live == Counter(r.mask for r in pops.roofers)
    assert max(pops.live.values()) > 1  # equal roofers, counted as such
    assert evaluated == Counter(pops.live.keys())


# Inputs 1 and 2 hold objective "a" alone, at costs that `normalize` ties;
# input 3 holds "a" and "b". {1} dominates {2}: their `fitness[0]` is equal,
# and adding 3 to {1} frees the dearer input, so its "b" value is lower.
TIED_COVER = {1: frozenset({"a"}), 2: frozenset({"a"}), 3: frozenset({"a", "b"})}
TIED_COSTS = {1: 10**9 + 1, 2: 10**9, 3: 5}


def test_a_miser_dominates_at_a_normalized_cost_tie():
    problem = ComponentProblem(TIED_COVER, TIED_COSTS)
    dear, cheap = problem.individual(0b001), problem.individual(0b010)
    assert dear.fitness[0] == cheap.fitness[0] and dear.cost > cheap.cost
    assert dominates(dear.fitness, cheap.fitness)
    for order in ((0b001, 0b010), (0b010, 0b001)):
        pops = init_roofers(problem, n_size=2, rng=random.Random(0))
        for mask in order:
            update_populations(problem, pops, mask, random.Random(0))
        assert [m.mask for m in pops.misers] == [0b001], order


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_component(), st.integers(1, 6), st.lists(st.integers(0, 2**10 - 1), max_size=40))
@example((TIED_COVER, TIED_COSTS, 0), 2, [0b001, 0b010])
@example((TIED_COVER, TIED_COSTS, 0), 2, [0b010, 0b001])
def test_update_populations_matches_two_pass_admission(case, n_size, masks):
    """Folding the same reduced children through the one-pass admission and
    the two-pass oracle leaves equal populations after every child."""
    cover, costs, seed = case
    problem = ComponentProblem(cover, costs)
    full = (1 << len(problem.inputs)) - 1
    fused, two_pass = (init_roofers(problem, n_size, random.Random(seed)) for _ in range(2))
    fused_rng, two_pass_rng = random.Random(seed), random.Random(seed)
    for mask in masks:
        mask = problem.removal(mask & full)[1]
        update_populations(problem, fused, mask, fused_rng)
        update_populations_two_pass(problem, two_pass, mask, two_pass_rng)
        assert fused == two_pass, mask


def test_component_problem_needs_positive_costs():
    cover = {1: frozenset({"a"}), 2: frozenset({"a", "b"}), 3: frozenset({"b"})}
    with pytest.raises(ValueError, match="input 1 has cost 0"):
        mocco_run(cover, {1: 0, 2: 5, 3: 0}, RunConfig(n_size=4, generations=10), 1)
    with pytest.raises(ValueError, match="input 2 has cost -1"):
        ComponentProblem(cover, {1: 1, 2: -1, 3: 0})


def test_mocco_run_on_a_cover_with_no_objectives():
    for cover, costs in (({}, {}), ({1: frozenset()}, {1: 5})):
        assert mocco_run(cover, costs) == frozenset()
        assert exhaustive_optimal(cover, costs) == frozenset()


def test_exposure_called_once_per_admitted_miser(monkeypatch):
    exposed = []
    exposure = ComponentProblem.exposure

    def counting(self, ind):
        exposed.append(ind)
        return exposure(self, ind)

    admitted = []
    update = covmin.search.update_populations

    def watching(problem, pops, child, rng):
        before = list(pops.misers)
        update(problem, pops, child, rng)
        if pops.misers and not any(pops.misers[-1] is m for m in before):
            admitted.append(pops.misers[-1])

    monkeypatch.setattr(ComponentProblem, "exposure", counting)
    monkeypatch.setattr(covmin.search, "update_populations", watching)
    rng = random.Random(17)
    for seed in range(10):
        cover, costs = random_instance(rng, max_inputs=8, max_blocks=8)
        mocco_run(cover, costs,
                  RunConfig(n_size=6, generations=60), seed)
    assert len(admitted) > 10
    assert len(exposed) == len(admitted)
    assert all(e is a for e, a in zip(exposed, admitted))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_component(), st.data())
def test_evaluate_matches_definition(case, data):
    cover, costs, _ = case
    problem = ComponentProblem(cover, costs)
    subsets = data.draw(st.lists(
        st.frozensets(st.sampled_from(sorted(cover))), max_size=6))
    for _ in range(2):  # the repeat reads the removal memo
        for s in subsets:
            assert problem.evaluate(problem.mask_of(s)) == (
                sum(costs[i] for i in s), fitness_by_definition(s, cover, costs))


@pytest.fixture
def solved_sets(monkeypatch):
    """Every member set `covmin.search` hands to `valid_orders_gain`."""
    calls = []

    def counting(mask, index, *args):
        calls.append(index.set_of(mask))
        return valid_orders_gain(mask, index, *args)

    monkeypatch.setattr(covmin.search, "valid_orders_gain", counting)
    return calls


def test_problem_solves_each_member_set_once(solved_sets):
    problem = _greedy_problem()
    for members in ({1, 2, 3}, {2, 3}, {2}):
        mask = problem.mask_of(members)
        assert problem.removal(mask) == problem.removal(mask)
        for j in range(len(problem.objectives)):
            problem.potential(mask, j)
    problem.individual(problem.removal(problem.mask_of({1, 2, 3}))[1])
    assert solved_sets
    assert len(solved_sets) == len(set(solved_sets))


def test_problems_with_different_costs_do_not_share_gains(solved_sets):
    cheap_first = _greedy_problem()
    dear_first = ComponentProblem(GREEDY_COVER, {1: 9, 2: 1, 3: 1})
    assert cheap_first.removal(cheap_first.mask_of({1, 2, 3}))[0] == 2
    assert dear_first.removal(dear_first.mask_of({1, 2, 3}))[0] == 9
    assert solved_sets == [frozenset({1, 2, 3})] * 2


def test_mocco_run_solves_through_the_search_module_name(solved_sets):
    mocco_run(GREEDY_COVER, GREEDY_COSTS, RunConfig(n_size=4, generations=30), seed=3)
    assert solved_sets
    assert len(solved_sets) == len(set(solved_sets))


def test_greedy_fallback_warns_once_per_member_set(caplog):
    n = EXHAUSTIVE_GAIN_THRESHOLD + 2
    cover = {i: frozenset({"a"}) for i in range(1, n + 1)}
    problem = ComponentProblem(cover, {i: i for i in cover})
    mask = problem.mask_of(cover)
    with caplog.at_level(logging.WARNING, logger="covmin.reduction"):
        first = problem.removal(mask)
        second = problem.removal(mask)
    assert first == second
    assert problem.set_of(first[1]) == frozenset({1})
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "exhaustive threshold" in warnings[0].getMessage()


# `random_instance(random.Random(k), max_inputs=40, max_blocks=20)` for the
# first twelve k that give at least 8 inputs (10 to 38), each searched at two
# seeds under the default `RunConfig`.
GOLDEN_INSTANCES = (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
GOLDEN_SEEDS = (1, 2)
MOCCO_GOLDEN = Path(__file__).resolve().parent / "data" / "mocco_components.json"


def _mocco_component_runs() -> list[dict]:
    """One record per golden instance and seed: its input count, the
    result, the final roofers and misers (members, in population order),
    and, seen through `on_generation`, how many generations replaced a
    roofer and how many distinct misers were ever admitted.
    `tests/data/mocco_components.json` holds these records, one a line."""
    runs = []
    for k in GOLDEN_INSTANCES:
        cover, costs = random_instance(random.Random(k), max_inputs=40, max_blocks=20)
        set_of = ComponentProblem(cover, costs).set_of
        for seed in GOLDEN_SEEDS:
            seen = {"pops": None, "roofers": None, "replaced": 0, "misers": set()}

            def observe(gen, pops, seen=seen):
                roofers = [r.mask for r in pops.roofers]
                if seen["roofers"] is not None and roofers != seen["roofers"]:
                    seen["replaced"] += 1
                seen["pops"], seen["roofers"] = pops, roofers
                seen["misers"].update(m.mask for m in pops.misers)

            result = mocco_run(cover, costs, RunConfig(), seed, on_generation=observe)
            pops = seen["pops"]
            runs.append({
                "instance": k, "seed": seed, "inputs": len(cover),
                "result": sorted(result),
                "roofers": [sorted(set_of(r.mask)) for r in pops.roofers],
                "misers": [sorted(set_of(m.mask)) for m in pops.misers],
                "roofer_replacing_generations": seen["replaced"],
                "misers_admitted": len(seen["misers"]),
            })
    return runs


def test_mocco_run_matches_golden_components():
    # Regenerate only in a change that means to alter results, and say so
    # in CHANGES.md.
    runs = _mocco_component_runs()
    assert runs == json.loads(MOCCO_GOLDEN.read_text())
    # The loop does real work here: covering children evict roofers
    # (`rng.choice(ties)`), and partial ones are admitted as misers.
    assert any(run["roofer_replacing_generations"] for run in runs)
    assert any(run["misers_admitted"] for run in runs)
