"""The seven top-level acceptance checks, one test each, printing a single
PASS/FAIL line per criterion (run with -s or look at captured output)."""

import json
import random
import time
from collections import Counter

import pytest

from covmin.baselines import a12_effect_size, art_select, exhaustive_optimal, greedy_cover, random_select
from covmin.blocks import build_coverage
from covmin.config import RunConfig
from covmin.dataset import TokenDoc
from covmin.distance import bag_matrix, lev_matrix, levenshtein, param_distance, url_distance
from covmin.harness import run_pipeline
from covmin.reduction import reduce_problem, split_components
from covmin.search import ComponentProblem, _running_sums, dominates, mocco_run
from covmin.synthetic import make_synthetic_dataset, planted_optimum_cost

from _oracles import (
    bruteforce_gain,
    coverage_of,
    covers_all,
    crossover,
    dedupe_profiles,
    dominance_relation,
    gain_of,
    has_cycle,
    is_redundant_in,
    order_is_valid,
    param_lists_match,
    random_instance,
)

GREEDY_COVER = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
GREEDY_COSTS = {1: 2, 2: 3, 3: 3}


def _report(number, name, run):
    try:
        run()
    except BaseException:
        print(f"acceptance criterion {number} ({name}): FAIL")
        raise
    print(f"acceptance criterion {number} ({name}): PASS")


def test_criterion_1_worked_example_fixtures():
    def run():
        started = time.perf_counter()
        assert url_distance(("http", "hostname", "login"),
                            ("http", "hostname", "job", "try1", "lastBuild")) == 4
        p1 = (("a", 10), ("b", "John"), ("c", "qwerty"))
        p2 = (("a", 42), ("b", "Johnny"), ("c", "qwertyuiop"))
        assert param_distance(p1, p2) == pytest.approx(0.71, abs=0.005)
        assert levenshtein("John", "Johnny") == 2
        assert levenshtein("qwerty", "qwertyuiop") == 4

        # Crossover halves fixture.
        cover = {1: frozenset({"a"}), 2: frozenset({"b"}), 3: frozenset({"a", "c"}),
                 4: frozenset({"d"}), 5: frozenset({"c", "d"})}
        problem = ComponentProblem(cover, {i: 1 for i in cover})

        class Fixed:
            # The (bit count, value) draws of `random.Random.shuffle` that
            # leave ["a", "b", "c", "d"] in order: `_randbelow(i + 1)` gives
            # i for i = 3, 2, 1.
            def __init__(self):
                self.draws = [(3, 3), (2, 2), (2, 1)]

            def getrandbits(self, k):
                bits, value = self.draws.pop(0)
                assert k == bits
                return value

        fixed = Fixed()
        c1, c2 = map(problem.set_of, crossover(problem,
                                               problem.mask_of(frozenset({1, 3, 4})),
                                               problem.mask_of(frozenset({2, 5})), fixed))
        assert fixed.draws == []
        assert c1 == frozenset({1, 3, 5})
        assert c2 == frozenset({2, 3, 4})

        # Greedy trap vs optimum.
        greedy = greedy_cover(GREEDY_COVER, GREEDY_COSTS)
        optimal = exhaustive_optimal(GREEDY_COVER, GREEDY_COSTS)
        assert sum(GREEDY_COSTS[i] for i in greedy) == 8
        assert sum(GREEDY_COSTS[i] for i in optimal) == 6
        assert time.perf_counter() - started < 1.0

    _report(1, "worked-example unit fixtures", run)


def test_criterion_2_theorem_property_suite():
    def run():
        started = time.perf_counter()
        violations = 0

        rng = random.Random(101)
        for _ in range(500):  # redundancy soundness
            cover, _ = random_instance(rng)
            ids = frozenset(cover)
            for i in ids:
                if is_redundant_in(i, ids, cover):
                    if coverage_of(ids - {i}, cover) != coverage_of(ids, cover):
                        violations += 1

        rng = random.Random(102)
        for _ in range(500):  # shuffled witness orders stay valid
            cover, costs = random_instance(rng)
            ids = frozenset(cover)
            _, order = gain_of(ids, cover, costs)
            shuffled = list(order)
            rng.shuffle(shuffled)
            if not order_is_valid(shuffled, ids, cover):
                violations += 1

        rng = random.Random(103)
        for _ in range(500):  # canonical gain = full-enumeration gain
            cover, costs = random_instance(rng)
            ids = frozenset(cover)
            gain, order = gain_of(ids, cover, costs)
            if gain != bruteforce_gain(ids, cover, costs):
                violations += 1
            if not order_is_valid(order, ids, cover):
                violations += 1

        rng = random.Random(104)
        for _ in range(500):  # gain decomposes over components
            cover, costs = random_instance(rng)
            comps = split_components(cover)
            whole, _ = gain_of(frozenset(cover), cover, costs)
            if whole != sum(gain_of(c.inputs, cover, costs)[0]
                            for c in comps):
                violations += 1

        rng = random.Random(105)
        for _ in range(500):  # local-dominance relation is acyclic
            cover, costs = random_instance(rng, max_inputs=7, max_blocks=8)
            cover, costs = dedupe_profiles(cover, costs)
            edges = dominance_relation(cover, costs)
            if has_cycle(sorted(cover), edges):
                violations += 1

        rng = random.Random(106)
        for _ in range(500):  # concatenated per-component orders valid on union
            cover, costs = random_instance(rng)
            comps = split_components(cover)
            concatenated = []
            for c in comps:
                concatenated.extend(gain_of(c.inputs, cover, costs)[1])
            if not order_is_valid(concatenated, frozenset(cover), cover):
                violations += 1

        assert violations == 0
        assert time.perf_counter() - started < 120.0

    _report(2, "reduction-property random sweeps", run)


def _random_component(rng):
    """Feasible component with <= 12 inputs and <= 10 objectives."""
    n_inputs = rng.randrange(3, 13)
    n_blocks = rng.randrange(2, 11)
    cover = {}
    costs = {}
    for i in range(1, n_inputs + 1):
        size = rng.randrange(1, min(n_blocks, 4) + 1)
        cover[i] = frozenset(rng.sample(range(n_blocks), size))
        costs[i] = rng.randrange(1, 10)
    return cover, costs


class _InvariantTracker:
    def __init__(self, problem, n_size):
        self.problem = problem
        self.n_size = n_size
        self.prev_min_cost = None
        # Every distinct miser fitness seen so far, each kept once.
        self.shadow_misers = {}
        self.violations = []

    def __call__(self, gen, pops):
        problem = self.problem
        if len(pops.roofers) != self.n_size:
            self.violations.append((gen, "roofer count"))
        for r in pops.roofers:
            members = problem.set_of(r.mask)
            if not covers_all(problem, members):
                self.violations.append((gen, "roofer coverage"))
            if any(is_redundant_in(i, members, problem.cover) for i in members):
                self.violations.append((gen, "roofer not reduced"))
        min_cost = min(r.cost for r in pops.roofers)
        if self.prev_min_cost is not None and min_cost > self.prev_min_cost:
            self.violations.append((gen, "min roofer cost increased"))
        self.prev_min_cost = min_cost
        for m in pops.misers:
            members = problem.set_of(m.mask)
            if covers_all(problem, members):
                self.violations.append((gen, "miser full coverage"))
            if any(is_redundant_in(i, members, problem.cover) for i in members):
                self.violations.append((gen, "miser not reduced"))
            for other in pops.misers:
                if other is not m and dominates(other.fitness, m.fitness):
                    self.violations.append((gen, "miser dominated in archive"))
            for past in self.shadow_misers:
                if dominates(past, m.fitness):
                    self.violations.append((gen, "miser dominated by past miser"))
        self.shadow_misers.update(dict.fromkeys(m.fitness for m in pops.misers))
        # The stored weights, running sums, live multiset and refusals match
        # the lists.
        if pops.miser_weights != [1.0 / problem.exposure(m) for m in pops.misers]:
            self.violations.append((gen, "stored miser weights"))
        covered = [coverage_of(problem.set_of(m.mask), problem.cover) for m in pops.misers]
        if pops.miser_covered != [
            sum(1 << j for j, bl in enumerate(problem.index.blocks) if bl in blocks)
            for blocks in covered
        ]:
            self.violations.append((gen, "stored miser covered objectives"))
        if pops.roofer_sums != _running_sums([1.0 / r.cost for r in pops.roofers]):
            self.violations.append((gen, "roofer running sums"))
        if pops.miser_sums != _running_sums(pops.miser_weights):
            self.violations.append((gen, "miser running sums"))
        if pops.live != Counter(r.mask for r in pops.roofers):
            self.violations.append((gen, "live roofer multiset"))
        if any(m.mask not in pops.refused for m in pops.misers):
            self.violations.append((gen, "live miser not refused"))


_DESK_RUNS = {}


def _run_desk_scale_searches():
    if _DESK_RUNS:
        return _DESK_RUNS
    rng = random.Random(20240901)
    exact, within_5pct, total = 0, 0, 0
    violations = []
    started = time.perf_counter()
    for k in range(30):
        cover, costs = _random_component(rng)
        problem = ComponentProblem(cover, costs)
        tracker = _InvariantTracker(problem, n_size=20)
        members = mocco_run(cover, costs,
                            RunConfig(n_size=20, generations=150), seed=k,
                            on_generation=tracker)
        got = sum(costs[i] for i in members)
        want = sum(costs[i] for i in exhaustive_optimal(cover, costs))
        total += 1
        if got == want:
            exact += 1
        if got <= want * 1.05:
            within_5pct += 1
        violations.extend(tracker.violations)
    _DESK_RUNS.update(
        exact=exact, within_5pct=within_5pct, total=total,
        violations=violations, elapsed=time.perf_counter() - started,
    )
    return _DESK_RUNS


def test_criterion_3_mocco_desk_scale_optimality():
    def run():
        runs = _run_desk_scale_searches()
        assert runs["exact"] >= 0.9 * runs["total"], runs
        assert runs["within_5pct"] == runs["total"], runs
        assert runs["elapsed"] < 60.0

    _report(3, "genetic search desk-scale optimality", run)


def test_criterion_4_population_invariants():
    def run():
        runs = _run_desk_scale_searches()
        assert runs["violations"] == [], runs["violations"][:5]

    _report(4, "per-generation population invariants", run)


def test_criterion_5_end_to_end_determinism(tmp_path):
    def run():
        ds = make_synthetic_dataset()
        config = RunConfig()
        result = run_pipeline(ds, config, seed=7)
        coverage = build_coverage(ds, config, seed=7)
        all_ids = frozenset(coverage.cover)
        assert coverage.cover_of_set(result.selected) == \
            coverage.cover_of_set(all_ids)
        # Oracle optimum per component plus the necessary inputs.
        costs = ds.costs()
        reduction = reduce_problem(coverage.cover, costs)
        oracle_cost = sum(costs[i] for i in reduction.necessary) + sum(
            costs[i]
            for c in reduction.components
            for i in exhaustive_optimal(c.cover, costs)
        )
        assert result.total_cost == oracle_cost == planted_optimum_cost()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (p1, p2):
            path.write_text(json.dumps(run_pipeline(ds, config, seed=7).to_dict(),
                                       indent=2, sort_keys=True) + "\n")
        assert p1.read_bytes() == p2.read_bytes()

    _report(5, "end-to-end determinism and coverage", run)


def test_criterion_6_distance_properties():
    def run():
        rng = random.Random(61)
        for _ in range(250):
            docs = [TokenDoc(tuple(rng.choices("abcde", k=rng.randrange(0, 10))))
                    for _ in range(rng.randrange(1, 16))]
            assert (bag_matrix(docs) <= lev_matrix(docs)).all()

        rng = random.Random(62)
        urls = lambda: tuple(rng.choices(["u", "v", "w"], k=rng.randrange(1, 6)))
        for _ in range(10_000):
            x, y, z = urls(), urls(), urls()
            assert url_distance(x, z) <= url_distance(x, y) + url_distance(y, z)

        rng = random.Random(63)

        def rand_params():
            out = []
            for i in range(rng.randrange(0, 4)):
                if rng.random() < 0.5:
                    out.append((f"p{i}", rng.randrange(50)))
                else:
                    out.append((f"p{i}", "".join(rng.choices("xyz", k=3))))
            return tuple(out)

        for _ in range(3000):
            p1, p2 = rand_params(), rand_params()
            d = param_distance(p1, p2)
            assert 0.0 <= d <= 1.0
            assert (d == 1.0) == (not param_lists_match(p1, p2))

    _report(6, "distance properties", run)


def test_criterion_7_baseline_sanity():
    def run():
        assert a12_effect_size([1, 2, 3], [1, 2, 3]) == 0.5
        assert a12_effect_size([4, 5, 6], [1, 2, 3]) == 1.0

        ds = make_synthetic_dataset()
        config = RunConfig()
        assert art_select(ds, config, seed=4) == art_select(ds, config, seed=4)
        ids = frozenset(range(1, 9))
        assert random_select(ids, 3, seed=2) == random_select(ids, 3, seed=2)

        rng = random.Random(71)
        for _ in range(100):
            cover, costs = random_instance(rng)
            universe = coverage_of(cover, cover)
            result = greedy_cover(cover, costs)
            assert coverage_of(result, cover) >= universe

    _report(7, "baseline sanity", run)
