"""Double-clustering pipeline: output classes, the (output class, request
method) parts of the action occurrences, their action subclasses, and the
resulting coverage map.

Action occurrences (input id, position) are clustered, not deduplicated
actions; `pairwise_matrix` computes each distinct action once, and
identical actions, at distance zero, end up in one subclass.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .clustering import DistanceMatrix, select_hyperparams
from .config import RunConfig
from .dataset import (Action, Dataset, ValidationError, build_shared_filter,
                      preprocess_output, stem_table, tokenize)
from .distance import action_matrix, bag_matrix, lev_matrix, pairwise_matrix
from .reduction import CoverageMap

Occurrence = tuple[int, int]  # (input id, action position)


class BlockId(NamedTuple):
    output_class: int
    method: str
    subclass_index: int

    def as_str(self) -> str:
        return f"{self.output_class}:{self.method}:{self.subclass_index}"

    @classmethod
    def from_str(cls, s: str) -> "BlockId":
        out_cl, method, sub = s.split(":")
        return cls(int(out_cl), method, int(sub))


def preprocess_all(dataset: Dataset, config: RunConfig):
    """TokenDoc per action occurrence, with the shared-content filter built
    over every raw page in the dataset, duplicates included. Each distinct
    page is tokenized and preprocessed once, and each distinct kept word
    is stemmed once, in one stem table for this call, so every run pays for
    its own work."""
    pages = [out for rec in dataset.inputs for out in rec.outputs]
    tokens = {raw: tokenize(raw) for raw in dict.fromkeys(pages)}
    shared = build_shared_filter([tokens[raw] for raw in pages], config.shared_threshold)
    stems = stem_table(chain.from_iterable(tokens.values()), shared)
    doc_of = {raw: preprocess_output(toks, shared, stems) for raw, toks in tokens.items()}
    return {(rec.id, pos): doc_of[raw]
            for rec in dataset.inputs for pos, raw in enumerate(rec.outputs)}


def cluster_outputs(dataset: Dataset, config: RunConfig, seed: int) -> dict[Occurrence, int]:
    """One clustering over all output documents; returns the output class of
    every (input, position)."""
    if not dataset.inputs:
        raise ValidationError("cannot cluster an empty dataset")
    docs = preprocess_all(dataset, config)
    keys = sorted(docs)
    matrix_of = bag_matrix if config.output_metric == "bag" else lev_matrix
    matrix = pairwise_matrix([docs[k] for k in keys], matrix_of)
    choice = select_hyperparams(DistanceMatrix(matrix), config.grid(config.output_algo), seed)
    return {k: lab for k, lab in zip(keys, choice.labels)}


def cluster_actions(actions: list[Action], config: RunConfig, seed: int) -> list[int]:
    """Subclass labels for the actions of one (output class, method) part."""
    if not actions:
        raise ValueError("cannot cluster an empty action-set part")
    if len(actions) == 1:
        return [0]
    matrix = pairwise_matrix(actions, action_matrix)
    if not matrix.any():
        return [0] * len(actions)
    choice = select_hyperparams(DistanceMatrix(matrix), config.grid(config.action_algo), seed)
    return choice.labels


def action_cover(dataset: Dataset, output_class: dict[Occurrence, int],
                 config: RunConfig, seed: int) -> dict[int, frozenset[BlockId]]:
    """Group the action occurrences by (output class, method), in id order,
    cluster each part's actions, and give every input the blocks of its
    occurrences."""
    by_id = dataset.by_id()
    parts: dict[tuple[int, str], list[tuple[int, Action]]] = {}
    for (input_id, pos), out_cl in sorted(output_class.items()):
        action = by_id[input_id].actions[pos]
        parts.setdefault((out_cl, action.method), []).append((input_id, action))
    cover: dict[int, set[BlockId]] = {rec.id: set() for rec in dataset.inputs}
    for (out_cl, method), part in sorted(parts.items()):
        ids, actions = zip(*part)
        for input_id, lab in zip(ids, cluster_actions(list(actions), config, seed)):
            cover[input_id].add(BlockId(out_cl, method, lab))
    return {i: frozenset(b) for i, b in cover.items()}


def build_coverage(dataset: Dataset, config: RunConfig, seed: int) -> CoverageMap:
    """The action stage over the output classes of every occurrence."""
    return CoverageMap(action_cover(
        dataset, cluster_outputs(dataset, config, seed), config, seed))
