import json
import logging
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmin.blocks import preprocess_all
from covmin.config import RunConfig
from covmin.dataset import (
    MAX_SAFE_INT,
    Action,
    Dataset,
    InputRecord,
    ValidationError,
    compute_cost,
    load_dataset,
    split_url,
    tokenize,
)

from _oracles import reference_tokenize, write_dataset, write_synthetic_dataset

BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic.json"


def _write(tmp_path, payload):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(payload))
    return path


def _input(input_id=1, cost=3, url="http://host/page"):
    return {
        "id": input_id,
        "actions": [{"method": "GET", "url": url, "params": []}],
        "outputs": ["hello world"],
        "mr_action_counts": {"mr1": cost},
    }


def test_split_url():
    assert split_url("http://host/admin/user") == ("http", "host", "admin", "user")
    with pytest.raises(ValidationError):
        split_url("host/admin")


def test_action_requires_two_words():
    with pytest.raises(ValidationError):
        Action(method="GET", url_words=("http",))
    with pytest.raises(ValidationError):
        Action(method="PUT", url_words=("http", "host"))


def test_cost_is_sum_over_relations():
    rec = InputRecord(
        id=1,
        actions=(Action(method="GET", url_words=("http", "h")),),
        outputs=("x",),
        mr_action_counts={"mr1": 4, "mr2": 7},
    )
    assert compute_cost(rec) == 11


def test_load_roundtrip(tmp_path):
    ds = load_dataset(_write(tmp_path, {
        "inputs": [_input(1), _input(2, cost=5)],
        "vulnerabilities": [{"id": "v1", "detecting_groups": [[1, 2]]}],
    }))
    assert [rec.id for rec in ds.inputs] == [1, 2]
    assert ds.costs() == {1: 3, 2: 5}
    assert ds.vulnerabilities == (("v1", (frozenset({1, 2}),)),)


def test_bundled_dataset_is_the_synthetic_generator_output(tmp_path):
    # The golden files in tests/data/ are computed from data/synthetic.json.
    path = tmp_path / "synthetic.json"
    write_synthetic_dataset(path)
    assert path.read_bytes() == BUNDLED.read_bytes()


def test_written_dataset_loads_back_with_its_parameters(tmp_path):
    ds = Dataset(
        inputs=(
            InputRecord(
                id=1,
                actions=(
                    Action("POST", split_url("http://h/job/new"),
                           (("name", "build"), ("retries", 3), ("name", ""))),
                    Action("GET", split_url("http://h/job")),
                ),
                outputs=("created", "list"),
                mr_action_counts={"mr": 2},
            ),
            InputRecord(
                id=2,
                actions=(Action("POST", split_url("http://h/job/7"), (("retries", -1),)),),
                outputs=("updated",),
                mr_action_counts={"mr": 1, "mr2": 4},
            ),
        ),
        vulnerabilities=(("v1", (frozenset({1, 2}), frozenset({2}))),),
    )
    path = tmp_path / "ds.json"
    write_dataset(ds, path)
    assert load_dataset(path) == ds


def test_zero_cost_inputs_dropped_with_warning(tmp_path, caplog):
    with caplog.at_level(logging.WARNING):
        ds = load_dataset(_write(tmp_path, {
            "inputs": [_input(1), _input(2, cost=0)],
        }))
    assert [rec.id for rec in ds.inputs] == [1]
    assert any("zero cost" in rec.message for rec in caplog.records)


def test_duplicate_ids_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_dataset(_write(tmp_path, {"inputs": [_input(1), _input(1)]}))


def test_unknown_vulnerability_member_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_dataset(_write(tmp_path, {
            "inputs": [_input(1)],
            "vulnerabilities": [{"id": "v1", "detecting_groups": [[9]]}],
        }))


def test_group_naming_dropped_zero_cost_input_rejected(tmp_path):
    # Loading drops input 2, so the group {1, 2} could never hold.
    with pytest.raises(ValidationError, match=r"'v1' references dropped zero-cost inputs \[2\]"):
        load_dataset(_write(tmp_path, {
            "inputs": [_input(1), _input(2, cost=0)],
            "vulnerabilities": [{"id": "v1", "detecting_groups": [[1, 2]]}],
        }))


def test_empty_group_and_repeated_vulnerability_id_rejected(tmp_path):
    undetected = {"id": "v1", "detecting_groups": []}
    for vulns, match in (
        ([{"id": "v1", "detecting_groups": [[1], []]}], "'v1' has an empty detecting group"),
        ([undetected, undetected], "duplicate vulnerability id 'v1'"),
    ):
        with pytest.raises(ValidationError, match=match):
            load_dataset(_write(tmp_path, {"inputs": [_input(1)], "vulnerabilities": vulns}))
    # A vulnerability without groups is legal: nothing detects it.
    dataset = load_dataset(_write(tmp_path, {"inputs": [_input(1)], "vulnerabilities": [undetected]}))
    assert dataset.vulnerabilities == (("v1", ()),)


def test_ints_are_bounded_at_i_json_range(tmp_path):
    def with_param(value):
        rec = _input(1)
        rec["actions"][0]["params"] = [{"name": "n", "type": "int", "value": value}]
        return {"inputs": [rec]}

    for value in (MAX_SAFE_INT, -MAX_SAFE_INT):
        assert load_dataset(_write(tmp_path, with_param(value))).inputs[0].actions[0].params == \
            (("n", value),)
    for value in (MAX_SAFE_INT + 1, -MAX_SAFE_INT - 1):
        with pytest.raises(ValidationError, match="parameter 0 'value' is outside"):
            load_dataset(_write(tmp_path, with_param(value)))
    # The bound is on the running total: inputs 1-3 reach it, input 4 crosses it.
    at_bound = [_input(1, cost=MAX_SAFE_INT - 1), _input(2, cost=0), _input(3, cost=1)]
    assert sum(load_dataset(_write(tmp_path, {"inputs": at_bound})).costs().values()) == \
        MAX_SAFE_INT
    with pytest.raises(ValidationError, match="input 4 takes the total cost above"):
        load_dataset(_write(tmp_path, {"inputs": at_bound + [_input(4, cost=1), _input(5)]}))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValidationError):
        load_dataset(path)


def _preprocessed(pages, threshold=0.8):
    """The tokens `preprocess_all` keeps of each page, one page per input."""
    get = Action(method="GET", url_words=("http", "host", "page"))
    dataset = Dataset(inputs=tuple(
        InputRecord(id=i, actions=(get,), outputs=(page,), mr_action_counts={"mr": 1})
        for i, page in enumerate(pages, start=1)
    ))
    docs = preprocess_all(dataset, RunConfig(shared_threshold=threshold))
    return [docs[(i, 0)].tokens for i in range(1, len(pages) + 1)]


def test_preprocess_strips_markup_stopwords_numbers_and_stems():
    # A second page keeps the first page's words below the shared threshold.
    doc, _ = _preprocessed(["<p>The administrators deleted 42 running jobs</p>",
                            "<p>unrelated</p>"])
    assert "42" not in doc
    assert "the" not in doc
    assert "administr" in doc
    assert "delet" in doc
    assert "run" in doc


def test_shared_filter_drops_boilerplate():
    docs = [
        "menu version home alpha",
        "menu version home beta",
        "menu version home gamma",
        "menu version home delta",
        "menu version home epsilon",
    ]
    kept = _preprocessed(docs, threshold=0.8)
    assert not {"menu", "version", "home"} & set().union(*kept)
    assert kept[0] == ("alpha",)


def test_shared_filter_threshold_is_document_frequency():
    # "alpha" is on exactly 3 of the 4 pages, 0.75; "gamma" on 2 of them.
    docs = ["alpha beta", "alpha gamma", "delta gamma", "alpha zeta"]
    kept = _preprocessed(docs, threshold=0.75)
    assert kept == [("beta",), ("gamma",), ("delta", "gamma"), ("zeta",)]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("<>/ =-_.aZy9Q0\n\t\u00e9\u00df\u0130\u212a\u017f\ufb01"),
                                  st.characters())))
@example("<p class='x'>Jobs: 42 RUNNING</p>")
@example("\u0130stanbul \u212aelvin \ufb01le")
@example("ab\ud800cd \udfff")  # lone surrogates
@example("a\x00b\x7fc\x80d")  # NUL, DEL and the first byte past ASCII
@example("x\U00010400y \U0001f600z")  # non-BMP: a Deseret capital, an emoji
@example("\uff21\uff41 A1a")  # full-width letters
@example("keep <unclosed tag text")
@example(" ".join(f"W{i}<b>x{i}</b>\u00e9-" for i in range(70))[:700])  # a 700-character page
def test_tokenize_matches_split_and_filter(text):
    assert tokenize(text) == reference_tokenize(text)
