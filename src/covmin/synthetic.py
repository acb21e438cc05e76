"""Deterministic synthetic dataset with a known structure.

Forty inputs over 38 planted blocks:

- inputs 1-30 each cover one private block (necessary after reduction);
- inputs 31-34 form a four-cycle over blocks A0..A3 (optimum cost 10);
- inputs 35-38 form a four-cycle over blocks B0..B3 (optimum cost 8);
- input 39 duplicates input 31's coverage and cost (removed as duplicate);
- input 40 repeats input 35's coverage at a higher cost (locally dominated).

Each planted block gets its own eight-token output vocabulary, so output
clustering recovers the blocks exactly; all actions within a block are
identical, so action clustering yields one subclass per class and method.
"""

from __future__ import annotations

from .dataset import Action, Dataset, InputRecord, split_url

_UNIQUE_COUNT = 30
_UNIQUE_COSTS = [3 + (i % 4) for i in range(_UNIQUE_COUNT)]
_CYCLE_A_COSTS = [5, 5, 5, 5]
_CYCLE_B_COSTS = [4, 6, 4, 6]


def _vocab(block_name: str) -> str:
    return " ".join(f"zz{block_name}qq{j}" for j in range(8))


def _record(input_id: int, url_blocks: list[str], cost: int) -> InputRecord:
    actions = tuple(
        Action(method="GET", url_words=split_url(f"http://host/{name}"))
        for name in url_blocks
    )
    outputs = tuple(_vocab(name) for name in url_blocks)
    return InputRecord(
        id=input_id,
        actions=actions,
        outputs=outputs,
        mr_action_counts={"mr1": cost},
    )


def planted_optimum_cost() -> int:
    return sum(_UNIQUE_COSTS) + 10 + 8


def make_synthetic_dataset() -> Dataset:
    records = []
    for i in range(_UNIQUE_COUNT):
        # Two identical actions so every output class holds at least two docs.
        records.append(_record(i + 1, [f"u{i}", f"u{i}"], _UNIQUE_COSTS[i]))
    cycle_a = [["a0", "a1"], ["a1", "a2"], ["a2", "a3"], ["a3", "a0"]]
    for k, blocks in enumerate(cycle_a):
        records.append(_record(31 + k, blocks, _CYCLE_A_COSTS[k]))
    cycle_b = [["b0", "b1"], ["b1", "b2"], ["b2", "b3"], ["b3", "b0"]]
    for k, blocks in enumerate(cycle_b):
        records.append(_record(35 + k, blocks, _CYCLE_B_COSTS[k]))
    records.append(_record(39, ["a0", "a1"], _CYCLE_A_COSTS[0]))
    records.append(_record(40, ["b0", "b1"], 12))
    vulnerabilities = (
        ("v-unique", (frozenset({1}),)),
        ("v-paired", (frozenset({31, 33}), frozenset({32, 34}))),
        ("v-either", (frozenset({5}), frozenset({6}))),
    )
    return Dataset(inputs=tuple(records), vulnerabilities=vulnerabilities)
