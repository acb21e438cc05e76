import importlib
import pydoc
import random
from pathlib import Path

import numpy as np

from covmin import blocks
from covmin.blocks import (
    BlockId,
    CoverageMap,
    build_coverage,
    cluster_actions,
    cluster_outputs,
    preprocess_all,
)
from covmin.config import RunConfig
from covmin.dataset import (Action, Dataset, InputRecord, TokenDoc, load_dataset,
                            split_url)
from covmin.synthetic import make_synthetic_dataset

from _oracles import (ROOT, output_distance, pair_matrix, reference_preprocess_all,
                      workload_corpus)

CONFIG = RunConfig()


def _record(input_id, specs, cost=1):
    # specs: list of (method, url, output text)
    return InputRecord(
        id=input_id,
        actions=tuple(
            Action(method=m, url_words=split_url(u)) for m, u, _ in specs
        ),
        outputs=tuple(text for _, _, text in specs),
        mr_action_counts={"mr": cost},
    )


LOGIN_PAGE = "login panel credentials username password field prompt gate"
JOBS_PAGE = "pipeline builds artifact workspace schedule trigger queue node"


def _two_page_dataset():
    return Dataset(inputs=(
        _record(1, [("GET", "http://h/login", LOGIN_PAGE),
                    ("GET", "http://h/jobs", JOBS_PAGE)]),
        _record(2, [("POST", "http://h/login", LOGIN_PAGE)]),
        _record(3, [("GET", "http://h/jobs", JOBS_PAGE)]),
    ))


def test_block_id_string_roundtrip():
    bl = BlockId(3, "POST", 1)
    assert BlockId.from_str(bl.as_str()) == bl
    assert bl.as_str() == "3:POST:1"
    # Hashing and ordering are those of the field tuple.
    assert hash(bl) == hash((3, "POST", 1))
    assert sorted([BlockId(1, "GET", 0), bl, BlockId(3, "GET", 2)]) == \
        [BlockId(1, "GET", 0), BlockId(3, "GET", 2), bl]


def test_coverage_map_is_its_cover():
    b1, b2 = BlockId(0, "GET", 0), BlockId(1, "GET", 0)
    cm = CoverageMap({1: frozenset({b1, b2}), 2: frozenset({b2}), 3: frozenset()})
    assert cm.all_blocks() == frozenset({b1, b2})
    assert cm.cover_of_set({2}) == frozenset({b2})
    assert cm.cover_of_set({2, 3}) == frozenset({b2})
    assert cm.cover_of_set(()) == frozenset()
    assert CoverageMap({}).all_blocks() == frozenset()


def test_cluster_outputs_separates_distinct_pages():
    assignments = cluster_outputs(_two_page_dataset(), CONFIG, seed=0)
    login_cls = assignments[(1, 0)]
    jobs_cls = assignments[(1, 1)]
    assert login_cls != jobs_cls
    assert assignments[(2, 0)] == login_cls
    assert assignments[(3, 0)] == jobs_cls


def test_cluster_actions_identical_actions_single_subclass():
    by_id = _two_page_dataset().by_id()
    login_get, login_post = by_id[1].actions[0], by_id[2].actions[0]
    assert cluster_actions([login_get, login_get], CONFIG, seed=0) == [0, 0]
    assert cluster_actions([login_post], CONFIG, seed=0) == [0]


def test_cluster_actions_separates_distant_urls():
    near = Action(method="GET", url_words=split_url("http://h/a/b/c/d"))
    far = Action(method="GET", url_words=split_url("http://h/x/y/z/w"))
    config = RunConfig(eps_range=(1.0, 10.0))
    labels = cluster_actions([near, near, far, far], config, seed=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_build_coverage_two_pages(monkeypatch):
    ds = _two_page_dataset()
    by_id = ds.by_id()
    parts = []
    real_cluster_actions = blocks.cluster_actions

    def record(actions, config, seed):
        parts.append(actions)
        return real_cluster_actions(actions, config, seed)

    monkeypatch.setattr(blocks, "cluster_actions", record)
    cm = build_coverage(ds, CONFIG, seed=0)
    assignments = cluster_outputs(ds, CONFIG, seed=0)
    login, jobs = assignments[(1, 0)], assignments[(1, 1)]
    # One part per (output class, method), clustered in sorted key order
    # (GET before POST), each holding its occurrences in (input, position)
    # order.
    want_parts = sorted([
        ((login, "GET"), [by_id[1].actions[0]]),
        ((login, "POST"), [by_id[2].actions[0]]),
        ((jobs, "GET"), [by_id[1].actions[1], by_id[3].actions[0]]),
    ])
    assert parts == [actions for _, actions in want_parts]
    # login GET, login POST, jobs GET; inputs 1 and 3 share the jobs GET block.
    assert cm.cover == {
        1: frozenset({BlockId(login, "GET", 0), BlockId(jobs, "GET", 0)}),
        2: frozenset({BlockId(login, "POST", 0)}),
        3: frozenset({BlockId(jobs, "GET", 0)}),
    }
    assert len(cm.all_blocks()) == 3


def test_build_coverage_on_synthetic_dataset_recovers_planted_blocks():
    ds = make_synthetic_dataset()
    cm = build_coverage(ds, CONFIG, seed=0)
    assert len(cm.all_blocks()) == 38
    # Every input's block count equals its number of distinct planted pages.
    for rec in ds.inputs:
        assert len(cm.cover[rec.id]) == len(set(rec.outputs))


def _repeated_pages_dataset():
    """Inputs whose pages repeat across and within inputs."""
    rng = random.Random(5)
    templates = [LOGIN_PAGE, JOBS_PAGE, LOGIN_PAGE + " expired",
                 JOBS_PAGE + " failed node", "empty"]
    return Dataset(inputs=tuple(
        _record(i, [("GET", f"http://h/p{rng.randrange(3)}", rng.choice(templates))
                    for _ in range(rng.randrange(1, 4))])
        for i in range(1, 13)
    ))


def test_cluster_outputs_expands_distinct_document_matrix(monkeypatch):
    selected, matrix_items = [], []
    real_select, real_pairwise = blocks.select_hyperparams, blocks.pairwise_matrix

    def select(dm, grid, seed):
        selected.append(dm.values)
        return real_select(dm, grid, seed)

    def pairwise(items, matrix_of):
        def distinct_matrix(distinct):
            matrix_items.append(distinct)
            return matrix_of(distinct)
        return real_pairwise(items, distinct_matrix)

    monkeypatch.setattr(blocks, "select_hyperparams", select)
    monkeypatch.setattr(blocks, "pairwise_matrix", pairwise)
    bundled = load_dataset(Path(__file__).resolve().parents[1] / "data" / "synthetic.json")
    for dataset in (bundled, _repeated_pages_dataset()):
        for config in (CONFIG, RunConfig(output_metric="bag")):
            selected.clear()
            matrix_items.clear()
            cluster_outputs(dataset, config, seed=0)
            docs = preprocess_all(dataset, config)
            full = pair_matrix(
                [docs[k] for k in sorted(docs)],
                lambda a, b: output_distance(a, b, config.output_metric),
            )
            assert np.array_equal(selected[0], full)
            assert len(matrix_items[0]) == len(set(docs.values())) < len(docs)


def test_cluster_outputs_lev_matrix_equals_pair_loop_on_long_pages(monkeypatch, tmp_path):
    selected = []
    real_select = blocks.select_hyperparams

    def select(dm, grid, seed):
        selected.append(dm.values)
        return real_select(dm, grid, seed)

    monkeypatch.setattr(blocks, "select_hyperparams", select)
    dataset, config = workload_corpus("long-pages", 1, tmp_path)
    assert config.output_metric == "lev"
    cluster_outputs(dataset, config, seed=1)
    docs = preprocess_all(dataset, config)
    index = {}
    rows = [index.setdefault(docs[k], len(index)) for k in sorted(docs)]
    unique = pair_matrix(list(index), lambda a, b: output_distance(a, b, "lev"))
    assert np.array_equal(selected[0], unique[np.ix_(rows, rows)])


def _prose_pages_dataset():
    """Inputs whose pages are the pydoc HTML of a few standard-library
    modules, some with non-ASCII text, repeated across and within inputs.
    Lowercasing turns U+0130 into i and a combining dot, and U+212A into k."""
    rng = random.Random(11)
    docs = [pydoc.HTMLDoc().document(importlib.import_module(name))
            for name in ("textwrap", "shlex", "colorsys", "fnmatch", "difflib")]
    accents = "<p>Caf\u00e9 r\u00e9sum\u00e9 \u00a9 2024 \u2014 \u0130stanbul \u212aelvin</p>"
    pages = docs + [doc + accents for doc in docs[:2]]
    return Dataset(inputs=tuple(
        _record(i, [("GET", f"http://h/doc{rng.randrange(3)}", rng.choice(pages))
                    for _ in range(rng.randrange(1, 4))])
        for i in range(1, 13)
    ))


def test_preprocess_all_matches_two_pass_oracle(tmp_path):
    # The shared filter counts every page, duplicates included: "beta" is on
    # 3 of 5 pages but on only 1 of the 2 distinct ones.
    duplicates = Dataset(inputs=tuple(
        _record(i, [("GET", "http://h/p", "alpha beta" if i <= 3 else "alpha gamma")])
        for i in range(1, 6)
    ))
    threshold = RunConfig(shared_threshold=0.6)
    assert set(preprocess_all(duplicates, threshold).values()) == \
        {TokenDoc(()), TokenDoc(("gamma",))}
    prose = _prose_pages_dataset()
    cases = [(duplicates, threshold), (_repeated_pages_dataset(), CONFIG),
             (load_dataset(ROOT / "data" / "synthetic.json"), CONFIG),
             (prose, CONFIG), (prose, RunConfig(shared_threshold=0.3))]
    for name in ("long-pages", "many-pages", "deep-overlap"):
        for scale in (1, 5):
            cases.append(workload_corpus(name, 1, tmp_path, scale=scale))
    for dataset, config in cases:
        assert preprocess_all(dataset, config) == reference_preprocess_all(dataset, config)
