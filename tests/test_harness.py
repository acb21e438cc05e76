import dataclasses
import logging
import random
from pathlib import Path

import pytest

from covmin.blocks import BlockId, CoverageMap, build_coverage
from covmin.cli import main
from covmin.config import RunConfig
from covmin.dataset import Action, Dataset, InputRecord, ValidationError
from covmin import harness
from covmin.harness import (
    MAX_REPETITIONS,
    bench,
    run_pipeline,
    run_repetition,
    solve,
    vdr,
    write_bench_csv,
)
from covmin.reduction import reduce_problem
from covmin.synthetic import make_synthetic_dataset, planted_optimum_cost

from _oracles import (bruteforce_min_cover, coverage_of, perfbench_run, random_instance,
                      workload_corpus, write_synthetic_dataset)

CONFIG = RunConfig()
ROOT = Path(__file__).resolve().parents[1]


def test_vdr_examples(caplog):
    vulns = (
        ("v1", (frozenset({1, 2}),)),
        ("v2", (frozenset({3}), frozenset({4}))),
    )
    assert vdr({1, 2, 3, 4}, vulns) == 1.0
    # Pair group with only one member selected does not detect.
    assert vdr({1, 4}, vulns) == 0.5
    assert vdr(set(), vulns) == 0.0
    with caplog.at_level(logging.WARNING):
        assert vdr({1}, ()) == 1.0
    assert any("no vulnerability" in rec.message for rec in caplog.records)


def test_run_pipeline_synthetic_reaches_planted_optimum():
    ds = make_synthetic_dataset()
    result = run_pipeline(ds, CONFIG, seed=7)
    assert result.total_cost == planted_optimum_cost()
    assert result.component_sizes == (4, 4)
    assert len(result.necessary) == 30
    coverage = build_coverage(ds, CONFIG, seed=7)
    all_ids = frozenset(i for i in coverage.cover)
    assert coverage.cover_of_set(result.selected) == coverage.cover_of_set(all_ids)
    assert result.total_cost <= result.original_cost


def test_run_pipeline_byte_identical_per_seed(tmp_path):
    ds = tmp_path / "ds.json"
    write_synthetic_dataset(ds)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        assert main(["minimize", "--dataset", str(ds), "--seed", "3",
                     "--out", str(path)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def _workload_result_bytes(name, tmp_path, scale=1, **overrides) -> bytes:
    """`run_pipeline`'s result bytes on a benchmark workload's seed-1 corpus,
    scaled by `scale`, with the workload's config fields replaced by
    `overrides`."""
    dataset, config = workload_corpus(name, 1, tmp_path, scale)
    config = dataclasses.replace(config, **overrides)
    return perfbench_run().result_bytes(run_pipeline(dataset, config, 1))


def test_deep_overlap_result_bytes_match_golden_file(tmp_path):
    # Pins the search on the benchmark's cycle components, which are larger
    # than the 4-cycles of data/synthetic.json. Regenerate only in a change
    # that means to alter results, and say so in CHANGES.md.
    golden = ROOT / "tests" / "data" / "minimize_deep_overlap_seed1.json"
    assert _workload_result_bytes("deep-overlap", tmp_path) == golden.read_bytes()


def test_long_pages_result_bytes_match_golden_file(tmp_path):
    # Pins the word-Levenshtein output path on long pages with shared
    # boilerplate; regenerate under the same rule as deep-overlap's file.
    golden = ROOT / "tests" / "data" / "minimize_long_pages_seed1.json"
    assert _workload_result_bytes("long-pages", tmp_path) == golden.read_bytes()


def test_long_pages_kmeans_result_bytes_match_golden_file(tmp_path):
    # Pins k-medoids on both clusterings, output and action, which no
    # benchmark workload runs; regenerate under the same rule.
    golden = ROOT / "tests" / "data" / "minimize_long_pages_kk_seed1.json"
    got = _workload_result_bytes("long-pages", tmp_path,
                                 output_algo="kmeans", action_algo="kmeans")
    assert got == golden.read_bytes()


@pytest.mark.parametrize("name, golden", [
    ("deep-overlap", "minimize_deep_overlap_x5_seed1.json"),
    ("many-pages", "minimize_many_pages_x5_seed1.json"),
])
def test_scaled_result_bytes_match_golden_files(tmp_path, name, golden):
    # Only at scale do the pinned bytes see hundreds of action parts, noise
    # documents with several copies and dozens of components; regenerate
    # under the same rule as deep-overlap's file.
    got = _workload_result_bytes(name, tmp_path, scale=5)
    assert got == (ROOT / "tests" / "data" / golden).read_bytes()


def test_solve_exact_is_optimal_and_mocco_covers():
    rng = random.Random(2025)
    config = RunConfig(n_size=6, generations=30)
    for _ in range(20):
        cover, costs = random_instance(rng, max_inputs=8, max_blocks=8)
        universe = coverage_of(cover, cover)
        reduction = reduce_problem(cover, costs)
        want, _ = bruteforce_min_cover(frozenset(cover), cover, costs, universe)
        exact = solve(reduction, costs, "exhaustive", config, seed=3)
        assert exact.total_cost == want
        assert coverage_of(exact.selected, cover) == universe
        found = solve(reduction, costs, "mocco", config, seed=3)
        assert coverage_of(found.selected, cover) == universe
        assert found.total_cost >= want
        assert len(found.per_component) == len(reduction.components)


@pytest.fixture
def fixture_dataset(monkeypatch):
    # The ratio-trap instance: in1:{bl1,bl2} cost 2, in2:{bl1,bl3} cost 3,
    # in3:{bl2,bl4} cost 3. Actions are placeholders; `harness.build_coverage`
    # returns the hand-built coverage.
    records = tuple(
        InputRecord(
            id=i,
            actions=(Action(method="GET", url_words=("http", "h", f"p{i}")),),
            outputs=("x",),
            mr_action_counts={"mr": cost},
        )
        for i, cost in ((1, 2), (2, 3), (3, 3))
    )
    bl = [BlockId(k, "GET", 0) for k in range(4)]
    coverage = CoverageMap({
        1: frozenset({bl[0], bl[1]}),
        2: frozenset({bl[0], bl[2]}),
        3: frozenset({bl[1], bl[3]}),
    })
    monkeypatch.setattr(harness, "build_coverage", lambda *args: coverage)
    return Dataset(inputs=records)


def test_bench_greedy_vs_exhaustive_fixture(fixture_dataset):
    report = bench(fixture_dataset, CONFIG, algorithms=("greedy", "exhaustive"),
                   repetitions=1, seed=0)
    by_algo = {row["algorithm"]: row for row in report["rows"]}
    assert len(report["rows"]) == 2  # one row per algorithm
    assert by_algo["greedy"]["cost"] == 8
    assert by_algo["exhaustive"]["cost"] == 6
    assert by_algo["exhaustive"]["covers_all"]
    assert report["a12_cost"]["exhaustive|greedy"] == 0.0
    assert report["a12_cost"]["greedy|exhaustive"] == 1.0


def test_bench_identical_cost_distributions_score_half(fixture_dataset):
    report = bench(fixture_dataset, CONFIG, algorithms=("mocco", "exhaustive"),
                   repetitions=2, seed=0)
    assert report["a12_cost"]["mocco|exhaustive"] == 0.5


def test_bench_random_size_tracks_largest_selection(fixture_dataset):
    rows = run_repetition(fixture_dataset, CONFIG, ("greedy", "random"), seed=0,
                          repetition=0)
    by_algo = {row["algorithm"]: row for row in rows}
    assert by_algo["random"]["size"] == by_algo["greedy"]["size"]


def test_solve_rejects_unknown_solver_names():
    # A three-cycle stays one component, so some solver would have to run.
    cover = {1: frozenset("ab"), 2: frozenset("bc"), 3: frozenset("ca")}
    costs = {1: 1, 2: 1, 3: 1}
    reduction = reduce_problem(cover, costs)
    assert len(reduction.components) == 1
    for name in ("greedy", "Mocco", "exhaustiv", ""):
        with pytest.raises(ValueError, match=f"unknown solver {name!r}"):
            solve(reduction, costs, name, CONFIG, seed=0)


def test_bench_checks_its_arguments(fixture_dataset):
    # The library call, not only the CLI, rejects what names no run and
    # keeps each algorithm once.
    for kwargs, message in (
        (dict(algorithms=()), "bench names no algorithm"),
        (dict(algorithms=("greedy", "nope")), r"unknown algorithms \['nope'\]; known: "),
        (dict(repetitions=0), "repetitions must be at least 1, got 0"),
        (dict(repetitions=2**70), f"repetitions must be at most {MAX_REPETITIONS}, got {2**70}"),
        (dict(jobs=0), "jobs must be at least 1, got 0"),
    ):
        with pytest.raises(ValidationError, match=message):
            bench(fixture_dataset, CONFIG, **{"repetitions": 1, **kwargs})
    report = bench(fixture_dataset, CONFIG, algorithms=("greedy", "greedy"),
                   repetitions=2, seed=0)
    assert [(row["algorithm"], row["repetition"]) for row in report["rows"]] == [
        ("greedy", 0), ("greedy", 1)]
    assert report["a12_cost"] == {}


def test_bench_bounds_the_repetitions(monkeypatch, fixture_dataset):
    # `bench` alone bounds a repetition count; a stub repetition runs nothing.
    calls = []
    monkeypatch.setattr(harness, "run_repetition", lambda *args: calls.append(args) or [])
    bench(fixture_dataset, CONFIG, algorithms=("greedy",), repetitions=MAX_REPETITIONS)
    assert len(calls) == MAX_REPETITIONS
    with pytest.raises(ValidationError, match=f"repetitions must be at most {MAX_REPETITIONS}, "
                                              f"got {MAX_REPETITIONS + 1}"):
        bench(fixture_dataset, CONFIG, algorithms=("greedy",), repetitions=MAX_REPETITIONS + 1)
    assert len(calls) == MAX_REPETITIONS


def test_bench_reproducible_modulo_runtime():
    ds = make_synthetic_dataset()
    config = RunConfig(generations=10)
    kwargs = dict(algorithms=("mocco", "greedy", "random"), repetitions=2, seed=5)
    r1 = bench(ds, config, **kwargs)
    r2 = bench(ds, config, **kwargs)

    def strip(report):
        return [
            {k: v for k, v in row.items() if k != "runtime_ms"}
            for row in report["rows"]
        ], report["a12_cost"]

    assert strip(r1) == strip(r2)


def test_bench_component_seeds_distinct_across_repetitions(monkeypatch):
    # Component seeds are `seed ^ idx`; repetition seeds must not let two
    # (repetition, component) pairs share one.
    seeds = []
    real_mocco_run = harness.mocco_run

    def recording(cover, costs, config, seed, *args, **kwargs):
        seeds.append(seed)
        return real_mocco_run(cover, costs, config, seed, *args, **kwargs)

    monkeypatch.setattr(harness, "mocco_run", recording)
    bench(make_synthetic_dataset(), RunConfig(generations=5),
          algorithms=("mocco",), repetitions=3, seed=7)
    assert len(seeds) == 6  # two components in each of three repetitions
    assert len(set(seeds)) == len(seeds)


def test_bench_parallel_jobs_match_sequential():
    ds = make_synthetic_dataset()
    config = RunConfig(generations=5)
    kwargs = dict(algorithms=("greedy", "random"), repetitions=2, seed=1)
    seq = bench(ds, config, jobs=1, **kwargs)
    par = bench(ds, config, jobs=2, **kwargs)
    strip = lambda rep: [
        {k: v for k, v in row.items() if k != "runtime_ms"}
        for row in rep["rows"]
    ]
    assert strip(seq) == strip(par)


def test_bench_workers_capped_at_repetitions_and_cpus(monkeypatch, fixture_dataset):
    # A fake pool records its size and maps in-process, so no worker starts.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    strip = lambda rep: [
        {k: v for k, v in row.items() if k != "runtime_ms"} for row in rep["rows"]]
    for cpus, repetitions, jobs, want in (
        (8, 2, 100_000, [2]),
        (3, 5, 100_000, [3]),
        (8, 5, 4, [4]),
        (None, 5, 100_000, []),
        (8, 1, 100_000, []),
        (8, 5, 1, []),
    ):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        sizes.clear()
        kwargs = dict(algorithms=("greedy", "random"), repetitions=repetitions, seed=3)
        report = bench(fixture_dataset, CONFIG, jobs=jobs, **kwargs)
        assert sizes == want, (cpus, repetitions, jobs)
        assert strip(report) == strip(bench(fixture_dataset, CONFIG, **kwargs))


def test_bench_report_writers(tmp_path, fixture_dataset):
    report = bench(fixture_dataset, CONFIG, algorithms=("greedy",), repetitions=1,
                   seed=0)
    cpath = tmp_path / "r.csv"
    write_bench_csv(report, cpath)
    assert report["rows"][0]["algorithm"] == "greedy"
    header, row = cpath.read_text().strip().splitlines()
    assert header.startswith("algorithm,config,seed")
    assert row.startswith("greedy,")
