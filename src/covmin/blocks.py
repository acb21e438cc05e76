"""Double-clustering pipeline: output classes, action sets, the request
partition, action subclasses, and the resulting coverage map.

Action occurrences (input id, position) are clustered rather than
deduplicated actions; identical actions sit at distance zero and end up in
one subclass anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import DistanceMatrix, select_hyperparams
from .config import RunConfig
from .dataset import (Dataset, TokenDoc, ValidationError, build_shared_filter,
                      preprocess_output)
from .distance import action_distance, bag_matrix, lev_matrix, pairwise_matrix

Occurrence = tuple[int, int]  # (input id, action position)


@dataclass(frozen=True, order=True)
class BlockId:
    output_class: int
    method: str
    subclass_index: int

    def as_str(self) -> str:
        return f"{self.output_class}:{self.method}:{self.subclass_index}"

    @classmethod
    def from_str(cls, s: str) -> "BlockId":
        out_cl, method, sub = s.split(":")
        return cls(int(out_cl), method, int(sub))


@dataclass(frozen=True)
class CoverageMap:
    cover: dict[int, frozenset[BlockId]]
    inputs_of: dict[BlockId, frozenset[int]]

    @classmethod
    def from_cover(cls, cover: dict[int, frozenset[BlockId]]) -> "CoverageMap":
        inv: dict[BlockId, set[int]] = {}
        for input_id, blocks in cover.items():
            for bl in blocks:
                inv.setdefault(bl, set()).add(input_id)
        return cls(
            cover={i: frozenset(bls) for i, bls in cover.items()},
            inputs_of={bl: frozenset(ids) for bl, ids in inv.items()},
        )

    def all_blocks(self) -> frozenset[BlockId]:
        return frozenset(self.inputs_of)

    def cover_of_set(self, ids) -> frozenset[BlockId]:
        out: set[BlockId] = set()
        for i in ids:
            out |= self.cover[i]
        return frozenset(out)


def preprocess_all(dataset: Dataset, config: RunConfig):
    """TokenDoc per action occurrence, with the shared-content filter built
    over every raw page in the dataset. Stems are memoized for this call
    only, so every run pays for its own stemming."""
    raw_pages = [out for rec in dataset.inputs for out in rec.outputs]
    shared = build_shared_filter(raw_pages, config.shared_threshold)
    stems: dict[str, str] = {}
    docs = {}
    for rec in dataset.inputs:
        for pos, raw in enumerate(rec.outputs):
            docs[(rec.id, pos)] = preprocess_output(raw, shared, stems)
    return docs


def cluster_outputs(dataset: Dataset, config: RunConfig, seed: int) -> dict[Occurrence, int]:
    """One clustering over all output documents; returns the output class of
    every (input, position)."""
    if not dataset.inputs:
        raise ValidationError("cannot cluster an empty dataset")
    docs = preprocess_all(dataset, config)
    keys = sorted(docs)
    # Equal documents are at distance 0 under every metric, so the distance
    # of each distinct pair is computed once and expanded to all occurrences.
    index: dict[TokenDoc, int] = {}
    rows = [index.setdefault(docs[k], len(index)) for k in keys]
    matrix_of = bag_matrix if config.output_metric == "bag" else lev_matrix
    unique = pairwise_matrix(list(index), matrix_of=matrix_of)
    matrix = unique[np.ix_(rows, rows)]
    choice = select_hyperparams(DistanceMatrix(matrix), config.grid(config.output_algo), seed)
    return {k: lab for k, lab in zip(keys, choice.labels)}


def build_action_sets(assignments: dict[Occurrence, int]) -> dict[int, list[Occurrence]]:
    """Group action occurrences by the output class of their output."""
    sets: dict[int, list[Occurrence]] = {}
    for occ in sorted(assignments):
        sets.setdefault(assignments[occ], []).append(occ)
    return sets


def partition_by_method(dataset: Dataset, occurrences) -> tuple[list[Occurrence], list[Occurrence]]:
    by_id = dataset.by_id()
    get_part = [occ for occ in occurrences if by_id[occ[0]].actions[occ[1]].method == "GET"]
    post_part = [occ for occ in occurrences if by_id[occ[0]].actions[occ[1]].method == "POST"]
    return get_part, post_part


def cluster_actions(dataset: Dataset, part, config: RunConfig, seed: int) -> list[int]:
    """Subclass labels for one method part of one action set."""
    if not part:
        raise ValueError("cannot cluster an empty action-set part")
    if len(part) == 1:
        return [0]
    by_id = dataset.by_id()
    actions = [by_id[i].actions[pos] for i, pos in part]
    matrix = pairwise_matrix(actions, action_distance)
    if not matrix.any():
        return [0] * len(part)
    choice = select_hyperparams(DistanceMatrix(matrix), config.grid(config.action_algo), seed)
    return choice.labels


def build_coverage(dataset: Dataset, config: RunConfig, seed: int) -> CoverageMap:
    """Run action clustering over every (output class, method) part and fold
    the subclass of each occurrence into a bidirectional coverage map."""
    assignments = cluster_outputs(dataset, config, seed)
    block_of: dict[Occurrence, BlockId] = {}
    for out_cl, occurrences in sorted(build_action_sets(assignments).items()):
        for method, part in zip(("GET", "POST"), partition_by_method(dataset, occurrences)):
            if not part:
                continue
            labels = cluster_actions(dataset, part, config, seed)
            for occ, lab in zip(part, labels):
                block_of[occ] = BlockId(out_cl, method, lab)
    cover: dict[int, set[BlockId]] = {rec.id: set() for rec in dataset.inputs}
    for (input_id, _), bl in block_of.items():
        cover[input_id].add(bl)
    return CoverageMap.from_cover({i: frozenset(b) for i, b in cover.items()})
