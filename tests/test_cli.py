import copy
import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmin import baselines, harness
from covmin.blocks import build_coverage
from covmin.cli import coverage_to_dict, main
from covmin.config import MAX_GRID_POINTS, MAX_SEARCH_INDIVIDUALS, RunConfig
from covmin.dataset import ValidationError, load_dataset

from _oracles import workload_corpus, write_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = str(ROOT / "data" / "synthetic.json")
GOLDEN = Path(__file__).resolve().parent / "data"


def _dataset(tmp_path):
    path = tmp_path / "ds.json"
    write_synthetic_dataset(path)
    return str(path)


def test_ingest_summary(tmp_path, capsys):
    code = main(["ingest", "--dataset", _dataset(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["inputs"] == 40
    assert summary["total_cost"] == 190


def test_ingest_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good_input = {"id": 1, "actions": [{"method": "GET", "url": "http://h/p"}],
                  "outputs": ["x"], "mr_action_counts": {"a": 1}}
    for payload in (
        {"inputs": [{"id": 1, "actions": [], "outputs": []}]},
        [good_input],
        {"inputs": {"1": good_input}},
        {"inputs": [good_input, 7]},
        {"inputs": [{**good_input, "id": "1"}]},
        {"inputs": [{**good_input, "mr_action_counts": {"a": "x"}}]},
        {"inputs": [{**good_input, "mr_action_counts": [1]}]},
        {"inputs": [{**good_input, "actions": 5}]},
        {"inputs": [{**good_input, "outputs": "x"}]},
        {"inputs": [{**good_input, "outputs": [3]}]},
        {"inputs": [{**good_input, "actions": [{"method": "GET", "url": 5}]}]},
        {"inputs": [good_input],
         "vulnerabilities": [{"id": "v", "detecting_groups": [["1"]]}]},
        {"inputs": [good_input],
         "vulnerabilities": [{"id": "v", "detecting_groups": [1]}]},
        {"inputs": [{**good_input, "actions": [{
            "method": "GET", "url": "http://h/p",
            "params": [{"name": "q", "type": "int", "value": "x"}]}]}]},
        *({"inputs": [{**good_input, "actions": [{
            "method": "GET", "url": "http://h/p", "params": [param]}]}]}
          for param in ({"name": ["q"], "type": "str", "value": "x"},
                        {"name": "q", "type": "str", "value": [1]},
                        {"name": "q", "type": "str", "value": 5},
                        {"name": "q", "type": "blob", "value": "x"})),
        {"inputs": [good_input],
         "vulnerabilities": [{"id": [1, 2], "detecting_groups": [[1]]}]},
        {"inputs": [good_input],
         "vulnerabilities": [{"id": "v", "detecting_groups": [[1], []]}]},
        {"inputs": [good_input],
         "vulnerabilities": [{"id": "v", "detecting_groups": [[1]]},
                             {"id": "v", "detecting_groups": []}]},
        {"inputs": [good_input, {**good_input, "id": 2, "mr_action_counts": {"a": 0}}],
         "vulnerabilities": [{"id": "v", "detecting_groups": [[1, 2]]}]},
    ):
        bad.write_text(json.dumps(payload))
        assert main(["ingest", "--dataset", str(bad)]) == 2, payload
        assert capsys.readouterr().err.startswith("error: "), payload


def test_missing_dataset_key_names_file_and_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    action = {"method": "GET", "url": "http://h/p"}
    good_input = {"id": 1, "actions": [action], "outputs": ["x"], "mr_action_counts": {"a": 1}}
    param = {"name": "q", "type": "str", "value": "x"}
    for payload, entry in (
        ({"inputs": [{}]}, "input entry 0 has no 'id'"),
        ({"inputs": [good_input, {"id": 2, "actions": [action]}]},
         "input entry 1 has no 'outputs'"),
        ({"inputs": [{**good_input, "actions": [action, {"url": "http://h/p"}]}]},
         "input entry 0 action 1 has no 'method'"),
        ({"inputs": [{**good_input, "actions": [{"method": "GET"}]}]},
         "input entry 0 action 0 has no 'url'"),
        *(({"inputs": [{**good_input, "actions": [{**action, "params": [
            param, {k: v for k, v in param.items() if k != key}]}]}]},
           f"input entry 0 action 0 parameter 1 has no {key!r}") for key in param),
        ({"inputs": [good_input], "vulnerabilities": [{"detecting_groups": [[1]]}]},
         "vulnerability entry 0 has no 'id'"),
        ({"inputs": [good_input], "vulnerabilities": [{"id": "v"}]},
         "vulnerability entry 0 has no 'detecting_groups'"),
    ):
        bad.write_text(json.dumps(payload))
        assert main(["ingest", "--dataset", str(bad)]) == 2, payload
        assert capsys.readouterr().err == f"error: {bad}: {entry}\n", payload


def test_internal_key_error_is_not_a_validation_error(monkeypatch):
    # Exit 2 means bad input; a KeyError from a bug propagates.
    def broken(*args):
        raise KeyError("internal bug")

    monkeypatch.setattr(harness, "run_pipeline", broken)
    with pytest.raises(KeyError, match="internal bug"):
        main(["minimize", "--dataset", BUNDLED])


def test_empty_dataset_exit_code(tmp_path, capsys):
    # No inputs, or only zero-cost ones (dropped on load): nothing to cluster.
    free_input = {"id": 1, "actions": [{"method": "GET", "url": "http://h/p"}],
                  "outputs": ["x"], "mr_action_counts": {"a": 0}}
    data = tmp_path / "empty.json"
    for payload in ({"inputs": []}, {"inputs": [free_input]}):
        data.write_text(json.dumps(payload))
        for command in ("minimize", "oracle", "bench"):
            args = [command, "--dataset", str(data), "--out", str(tmp_path / "out")]
            assert main(args) == 2, (payload, command)
            err = [line for line in capsys.readouterr().err.splitlines()
                   if not line.startswith("WARNING")]
            assert err == ["error: cannot cluster an empty dataset"], (payload, command)


def test_missing_file_exit_code(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"inputs": [], "caf\xe9": 1}')
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"inputs": [')
    for argv in (
        ["ingest", "--dataset", str(tmp_path / "nope.json")],
        ["ingest", "--dataset", str(tmp_path)],
        ["ingest", "--dataset", str(not_utf8)],
        ["ingest", "--dataset", str(truncated)],
        ["ingest", "--dataset", BUNDLED, "--config", str(not_utf8)],
        ["ingest", "--dataset", BUNDLED, "--config", str(truncated)],
        ["ingest", "--dataset", BUNDLED, "--out", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert argv[-1] in err, (argv, err)


def test_cluster_then_reduce_roundtrip(tmp_path, capsys):
    ds = _dataset(tmp_path)
    cov = tmp_path / "coverage.json"
    red = tmp_path / "reduction.json"
    assert main(["cluster", "--dataset", ds, "--out", str(cov)]) == 0
    payload = json.loads(cov.read_text())
    assert len(payload["blocks"]) == 38
    assert set(payload["cover"]) == {str(i) for i in range(1, 41)}
    assert main(["reduce", "--dataset", ds, "--coverage", str(cov),
                 "--out", str(red)]) == 0
    reduction = json.loads(red.read_text())
    assert len(reduction["necessary"]) == 30
    assert [c["inputs"] for c in reduction["components"]] == \
        [[31, 32, 33, 34], [35, 36, 37, 38]]
    for comp in reduction["components"]:
        assert comp["objectives"]


def test_minimize_deterministic_output_file(tmp_path):
    ds = _dataset(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["minimize", "--dataset", ds, "--seed", "42",
                 "--out", str(out1)]) == 0
    assert main(["minimize", "--dataset", ds, "--seed", "42",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    result = json.loads(out1.read_text())
    assert result["total_cost"] == 151


def test_minimize_bytes_independent_of_hash_seed():
    # Blocks hash through their method string, whose hash Python salts per
    # process; the result must not depend on set iteration order.
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "covmin.cli", "minimize", "--dataset", BUNDLED],
            cwd=ROOT, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_minimize_honors_config_file(tmp_path):
    ds = _dataset(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"generations": 20, "n_size": 6}))
    out = tmp_path / "r.json"
    assert main(["minimize", "--dataset", ds, "--config", str(cfg), "--seed", "9",
                 "--out", str(out)]) == 0
    result = harness.run_pipeline(load_dataset(ds), RunConfig(generations=20, n_size=6), 9)
    assert out.read_text() == json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def test_bench_csv_and_json(tmp_path):
    ds = _dataset(tmp_path)
    csv_out = tmp_path / "bench.csv"
    json_out = tmp_path / "bench.json"
    args = ["bench", "--dataset", ds, "--reps", "1",
            "--algo", "greedy,random"]
    assert main(args + ["--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("algorithm,")
    # A repeated name runs once; random runs last.
    assert main(args + ["--algo", "exhaustive,greedy", "--out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())["rows"]
    assert [r["algorithm"] for r in rows] == ["greedy", "exhaustive", "random"]


def test_bench_art_row_covers_all_is_computed(tmp_path, capsys):
    # With one input, art must pick it, and it covers every block.
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"inputs": [{
        "id": 1, "actions": [{"method": "GET", "url": "http://h/p"}],
        "outputs": ["x"], "mr_action_counts": {"a": 1}}]}))
    assert main(["bench", "--dataset", str(one), "--reps", "1",
                 "--algo", "art"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["algorithm"] == "art"
    assert row["size"] == 1
    assert row["covers_all"] is True


def test_oracle_matches_minimize_on_synthetic(tmp_path, capsys):
    ds = _dataset(tmp_path)
    assert main(["oracle", "--dataset", ds]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["total_cost"] == 151
    assert len(oracle["necessary"]) == 30


def test_exact_solver_over_limit_exit_code(monkeypatch, capsys):
    # The bundled dataset's two components have four inputs each.
    monkeypatch.setattr(baselines, "EXHAUSTIVE_INPUT_LIMIT", 2)
    for args in (["oracle"], ["bench", "--reps", "1", "--algo", "exhaustive"]):
        assert main(args + ["--dataset", BUNDLED]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: component of 4 inputs exceeds"), err
        assert err.count("\n") == 1


def test_malformed_config_algo_and_coverage_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cases = [(["minimize", "--config"], payload) for payload in (
        {"generations": 10, "colour": "red"},
        [{"generations": 10}],
        {"output_metric": "cosine"},
        {"generations": "10"},
        {"n_size": True},
        {"k_range": [1]},
        {"eps_range": [2.0, "10"]},
        {"eps_range": [0, 10]},
        {"eps_range": [10, 2]},
        {"min_neighbors_range": [0, 5]},
        {"k_range": [5, 1], "output_algo": "kmeans"},
        {"generations": -5},
        {"eps_step": 1e-14},
        {"eps_range": [2, 10**400]},
    )] + [(["reduce", "--coverage"], payload) for payload in (
        {"cover": {"1": ["bad"]}},
        {"cover": {"x": ["1:GET:0"]}},
        {"cover": ["1:GET:0"]},
        [],
    )]
    for args, payload in cases:
        bad.write_text(json.dumps(payload))
        assert main(args + [str(bad), "--dataset", BUNDLED]) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (payload, err)
        if args[1] == "--coverage":
            assert str(bad) in err, (payload, err)
    # The seed and the repetition count are arguments, not config fields.
    for payload in ({"seed": 1}, {"repetitions": 2}):
        bad.write_text(json.dumps(payload))
        assert main(["minimize", "--config", str(bad), "--dataset", BUNDLED]) == 2, payload
        err = capsys.readouterr().err
        assert err == f"error: unknown config keys: {list(payload)}\n", err
    # Rejected at load, so by `ingest` too, with a message naming the field.
    for value in (2, 0, -0.5, 1.5):
        bad.write_text(json.dumps({"shared_threshold": value}))
        assert main(["ingest", "--config", str(bad), "--dataset", BUNDLED]) == 2, value
        err = capsys.readouterr().err
        assert err == f"error: shared_threshold must be in (0, 1], got {value}\n", err
    # Truncated, nested deeper than the JSON decoder recurses, and holding
    # an integer of more digits than Python converts.
    deep = '{"inputs": ' + "[" * 1000 + "]" * 1000 + "}"
    huge = '{"inputs": [{"id": 1' + "0" * 5000 + "}]}"
    for text in ('{"cover": {"1": ["1:GET:', deep, huge):
        bad.write_text(text)
        for args in (["minimize", "--config", str(bad), "--dataset", BUNDLED],
                     ["reduce", "--coverage", str(bad), "--dataset", BUNDLED],
                     ["ingest", "--dataset", str(bad)]):
            assert main(args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
            assert str(bad) in err, (args, err)
    assert main(["bench", "--dataset", BUNDLED, "--algo", "greedy,foo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown algorithms ['foo']"), err
    assert err.count("\n") == 1
    for algos in ([","], [",,", ""]):
        flags = [arg for a in algos for arg in ("--algo", a)]
        assert main(["bench", "--dataset", BUNDLED] + flags) == 2, algos
        err = capsys.readouterr().err
        assert err == "error: bench names no algorithm\n", err
    for flag, name, value in (("--reps", "repetitions", "0"), ("--reps", "repetitions", "-2"),
                              ("--jobs", "jobs", "-1"), ("--jobs", "jobs", "0")):
        assert main(["bench", "--dataset", BUNDLED, "--algo", "greedy", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} must be at least 1, got {value}\n", err
        assert err.count("\n") == 1
    # Without the bound, --reps 2**70 would build a list of 2**70 runs.
    assert main(["bench", "--dataset", BUNDLED, "--algo", "greedy", "--reps", str(2**70)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: repetitions must be at most {harness.MAX_REPETITIONS}, got {2**70}\n", err


def test_kmeans_k_range_above_a_part_size_is_a_validation_error(tmp_path, capsys):
    # data/synthetic.json has 80 output pages; each action part of
    # many-pages has fewer than 10 actions.
    _, workload = workload_corpus("many-pages", 1, tmp_path)
    config = tmp_path / "c.json"
    for dataset, payload, named in (
        (BUNDLED, {"output_algo": "kmeans", "k_range": [100, 170]},
         "error: k_range [100, 170] starts above the 80 points to cluster"),
        (str(tmp_path / "many-pages-1.json"),
         {**dataclasses.asdict(workload), "action_algo": "kmeans", "k_range": [10, 70]},
         "error: k_range [10, 70] starts above the "),
    ):
        config.write_text(json.dumps(payload))
        assert main(["minimize", "--dataset", dataset, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(named) and err.count("\n") == 1, err


def test_config_rejects_nonpositive_eps_step():
    # A step of 0 would never advance the DBSCAN eps grid, and neither
    # would one that vanishes when added to eps (2.0 + 1e-300 == 2.0).
    for step in (0, 0.0, -0.5, 1e-300):
        with pytest.raises(ValidationError, match="eps_step"):
            RunConfig(eps_step=step)


def test_config_bounds_the_dbscan_grid():
    # Only constructed: a walk over any of the rejected grids would not end
    # in time, or at all.
    for kwargs in (
        {"eps_step": 1e-14},
        {"eps_range": (2.0, 1e17)},
        {"eps_range": (1e17, 1e17), "eps_step": 1.0},
        {"min_neighbors_range": (1, 10**12)},
        {"eps_range": (1.0, 1.0), "min_neighbors_range": (1, MAX_GRID_POINTS + 1)},
        {"eps_range": (1.0, 1.0 + 0.5 * MAX_GRID_POINTS), "min_neighbors_range": (1, 1)},
    ):
        with pytest.raises(ValidationError, match="DBSCAN grid of .* points, above the bound"):
            RunConfig(**kwargs)
    # eps_step None is counted at 0.5, the finer of the two steps it may take.
    RunConfig(eps_range=(1.0, 1.0), min_neighbors_range=(1, MAX_GRID_POINTS))
    RunConfig(eps_range=(1.0, 1.0 + 0.5 * (MAX_GRID_POINTS - 1)), min_neighbors_range=(1, 1))


def test_config_bounds_the_search_budget(tmp_path, capsys):
    # The defaults are n_size 20 and 100 generations.
    RunConfig(n_size=MAX_SEARCH_INDIVIDUALS - 200)
    RunConfig(generations=(MAX_SEARCH_INDIVIDUALS - 20) // 2)
    for kwargs in ({"n_size": MAX_SEARCH_INDIVIDUALS - 199},
                   {"generations": (MAX_SEARCH_INDIVIDUALS - 20) // 2 + 1}):
        with pytest.raises(ValidationError, match="n_size .* and generations .* above the bound"):
            RunConfig(**kwargs)
    # A search runs on this slice; without the bound either budget would
    # keep it running without end.
    dataset, config = tmp_path / "dataset.json", tmp_path / "config.json"
    dataset.write_text(_dataset_slice())
    for field in ("generations", "n_size"):
        config.write_text(json.dumps({field: 2**70}))
        status = main(["minimize", "--dataset", str(dataset), "--config", str(config),
                       "--seed", "1", "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert status == 2, field
        assert err.startswith("error: n_size ") and err.count("\n") == 1, err
        assert f"bound of {MAX_SEARCH_INDIVIDUALS}" in err, err


def test_dataset_ints_beyond_i_json_exit_2(tmp_path, capsys):
    # Both made `minimize` raise OverflowError turning an int into a float.
    huge_param, huge_cost = (json.loads(Path(BUNDLED).read_text()) for _ in range(2))
    for action, value in zip(huge_param["inputs"][0]["actions"], (0, 10**400)):
        action["params"] = [{"name": "n", "type": "int", "value": value}]
    for rec in huge_cost["inputs"]:
        if rec["id"] in range(31, 35):
            rec["mr_action_counts"] = {"mr1": 10**400}
    dataset = tmp_path / "dataset.json"
    for doc, named in ((huge_param, "input entry 0 action 1 parameter 0 'value' is outside "),
                       (huge_cost, "input 31 takes the total cost above ")):
        dataset.write_text(json.dumps(doc))
        for command in ("ingest", "minimize"):
            assert main([command, "--dataset", str(dataset)]) == 2, (named, command)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {dataset}: {named}"), err
            assert err.count("\n") == 1, err


def test_reduce_coverage_ids_must_match_dataset(tmp_path, capsys):
    # data/synthetic.json has input ids 1..40.
    cov = tmp_path / "coverage.json"
    every = {str(i): ["0:GET:0"] for i in range(1, 41)}
    for cover, named in (
        ({"1": ["0:GET:0"]}, "missing input ids [2, 3, "),
        ({**every, "41": ["0:GET:0"], "99": []}, "unknown input ids [41, 99]"),
        ({**every, " 01": []}, "lists input id 1 twice"),
    ):
        cov.write_text(json.dumps({"cover": cover}))
        assert main(["reduce", "--dataset", BUNDLED, "--coverage", str(cov)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: coverage file {cov} ") and named in err, err
        assert err.count("\n") == 1, err
    cov.write_text(json.dumps({"cover": every}))
    assert main(["reduce", "--dataset", BUNDLED, "--coverage", str(cov)]) == 0


@functools.cache
def _cluster_output() -> str:
    """The text `covmin cluster` writes for the bundled dataset at seed 1."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "coverage.json"
        assert main(["cluster", "--dataset", BUNDLED, "--seed", "1", "--out", str(out)]) == 0
        return out.read_text()


def _replace_leaf(doc, site, k, j, value):
    """`doc` with one leaf replaced by `value`: the whole document, its
    cover, the k-th entry, that entry's key (for odd j the entry also stays
    under its old key) or its j-th block string, each index taken modulo
    the length. `doc` is returned as it is where it has no such leaf."""
    if site == "top":
        return value
    if not isinstance(doc, dict):
        return doc
    if site == "cover":
        doc["cover"] = value
        return doc
    cover = doc.get("cover")
    if not isinstance(cover, dict) or not cover:
        return doc
    key = sorted(cover)[k % len(cover)]
    if site == "entry":
        cover[key] = value
    elif site == "key":
        new_key = value if isinstance(value, str) else json.dumps(value)
        cover[new_key] = cover[key] if j % 2 else cover.pop(key)
    elif isinstance(cover[key], list) and cover[key]:
        cover[key][j % len(cover[key])] = value
    return doc


_FUZZ_VALUES = (None, [], {}, -1, 0, 2**70, 1.5, "", "x", True, [1], {"a": 1},
                "1:POST:x", "a:b:c:d", "01", " 1")
_LEAF_EDITS = st.lists(st.tuples(
    st.sampled_from(("top", "cover", "entry", "key", "block")),
    st.integers(0, 63), st.integers(0, 7),
    st.sampled_from(_FUZZ_VALUES).map(copy.deepcopy),
), min_size=1, max_size=2)


@settings(max_examples=800, derandomize=True, deadline=None)
@given(_LEAF_EDITS)
def test_reduce_on_a_fuzzed_coverage_file_exits_0_or_2(edits):
    doc = json.loads(_cluster_output())
    for edit in edits:
        doc = _replace_leaf(doc, *edit)
    with tempfile.TemporaryDirectory() as tmp:
        cov, out = Path(tmp) / "coverage.json", Path(tmp) / "reduced.json"
        cov.write_text(json.dumps(doc))
        status = main(["reduce", "--dataset", BUNDLED, "--coverage", str(cov), "--out", str(out)])
    assert status in (0, 2), (edits, status)
    if status == 0:  # each input id is listed once
        assert len({int(key) for key in doc["cover"]}) == len(doc["cover"]), edits


# Inputs 1 and 2 are necessary and 31-34 are one component of the reduction.
_COMPONENT_SLICE = frozenset({1, 2, 31, 32, 33, 34})


@functools.cache
def _dataset_slice() -> str:
    """The inputs of data/synthetic.json in `_COMPONENT_SLICE` and the
    vulnerabilities that only they detect, as JSON text."""
    doc = json.loads(Path(BUNDLED).read_text())
    inputs = [rec for rec in doc["inputs"] if rec["id"] in _COMPONENT_SLICE]
    return json.dumps({"inputs": inputs, "vulnerabilities": [
        v for v in doc["vulnerabilities"]
        if all(set(group) <= _COMPONENT_SLICE for group in v["detecting_groups"])]})


def _nodes(node, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(node, dict):
        children = sorted(node.items())
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace_node(doc, k, value):
    """`doc` with its k-th value (a leaf, list or object; `_nodes` order,
    modulo their number) replaced by `value`."""
    paths = list(_nodes(doc))
    path = paths[k % len(paths)]
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_LOADER_FUZZ_VALUES = (None, [], {}, -1, 0, 2**70, 10**400, 1.5, 1e308, math.nan, math.inf,
                       "", "x", True, [1], [2, 1], [1e-300, 1e-300], {"a": 1},
                       "GET", "POST", "http://h/p", "int", "bag", "kmeans")


def _node_index(path: tuple) -> int:
    """The k for which `_replace_node` replaces the value at `path` of
    `_dataset_slice()`."""
    return list(_nodes(json.loads(_dataset_slice()))).index(path)


# Two actions of input 1 with int parameters 0 and 10**400, which the action
# distance subtracts; and 10**400 as the cost of each of inputs 31-34, so none
# is dominated and the search normalizes their costs. Either made `minimize`
# exit 1 with OverflowError.
_HUGE_PARAM_ACTIONS = [
    {"method": "GET", "url": "http://host/u0",
     "params": [{"name": "n", "type": "int", "value": value}]}
    for value in (0, 10**400)
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.sampled_from(_LOADER_FUZZ_VALUES)),
                min_size=1, max_size=2))
@example([(_node_index(("inputs", 0, "actions")), _HUGE_PARAM_ACTIONS)])
@example([(_node_index(("inputs", k, "mr_action_counts", "mr1")), 10**400) for k in range(2, 6)])
def test_ingest_and_minimize_on_a_fuzzed_dataset_exit_0_or_2(edits):
    # Inputs 31-34 are one component, so an edit can reach the search.
    doc = json.loads(_dataset_slice())
    for k, value in edits:
        doc = _replace_node(doc, k, copy.deepcopy(value))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "dataset.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(doc))
        for args in (["ingest"], ["minimize", "--seed", "1"]):
            status = main(args + ["--dataset", str(path), "--out", str(out)])
            assert status in (0, 2), (edits, args, status)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
                          st.sampled_from(_LOADER_FUZZ_VALUES)),
                min_size=1, max_size=2))
def test_minimize_on_a_fuzzed_config_file_exits_0_or_2(edits):
    # Every field of the default configuration is written out, then one or
    # two are replaced. Inputs 31-34 are one component, so the search runs,
    # and the search budget bound keeps every run that passes validation short.
    config = json.loads(json.dumps(dataclasses.asdict(RunConfig())))
    for field, value in edits:
        config[field] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        dataset, path, out = (Path(tmp) / name for name in ("dataset.json", "config.json", "out.json"))
        dataset.write_text(_dataset_slice())
        path.write_text(json.dumps(config))
        status = main(["minimize", "--dataset", str(dataset), "--config", str(path),
                       "--seed", "1", "--out", str(out)])
    assert status in (0, 2), (edits, status)


def test_result_bytes_match_golden_files(tmp_path):
    # Result bytes pinned across code versions: regenerate these files only
    # in a change that means to alter results, and say so in CHANGES.md.
    for args, golden in (
        (["ingest"], "ingest_synthetic.json"),
        (["cluster", "--seed", "7"], "cluster_synthetic_seed7.json"),
        (["minimize", "--seed", "7"], "minimize_synthetic_seed7.json"),
        (["oracle"], "oracle_synthetic.json"),
        (["reduce", "--seed", "7"], "reduce_synthetic_seed7.json"),
    ):
        out = tmp_path / golden
        assert main(args + ["--dataset", BUNDLED, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_bench_bytes_match_golden_file(tmp_path):
    # Bench rows and A12 table with the wall-clock `runtime_ms` dropped.
    # Naming random first pins that it runs last, sized from the largest
    # other selection. Regenerate under the same rule as the files above;
    # a change to the adaptive-sampling baseline alters its rows.
    out = tmp_path / "bench.json"
    assert main(["bench", "--dataset", BUNDLED, "--seed", "7", "--reps", "2",
                 "--algo", "random,mocco,exhaustive,greedy,art", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for row in report["rows"]:
        del row["runtime_ms"]
    got = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / "bench_synthetic_seed7.json").read_text()


def test_bench_csv_matches_golden_file(tmp_path):
    # The CSV form of the same run: a fixed header, then each golden row
    # with every value as `str()` and the wall-clock `runtime_ms` left out.
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dataset", BUNDLED, "--seed", "7", "--reps", "2",
                 "--algo", "random,mocco,exhaustive,greedy,art", "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert header == "algorithm,config,seed,repetition,size,cost,runtime_ms,vdr,covers_all"
    golden = json.loads((GOLDEN / "bench_synthetic_seed7.json").read_text())["rows"]
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        del row["runtime_ms"]
        assert row == {k: str(v) for k, v in want.items()}


def test_cluster_bytes_match_golden_file_on_many_pages(tmp_path):
    # Pins the coverage map on GET and POST parts with typed parameters under
    # the bag output distance; regenerate under the same rule as above.
    dataset, config = workload_corpus("many-pages", 1, tmp_path)
    coverage = coverage_to_dict(build_coverage(dataset, config, seed=1))
    text = json.dumps(coverage, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "cluster_many_pages_seed1.json").read_text()
