"""Double-clustering pipeline: output classes, the (output class, request
method) parts of the action occurrences, their action subclasses, and the
resulting coverage map.

Action occurrences (input id, position) are clustered, not deduplicated
actions; `pairwise_matrix` computes each distinct action once, and
identical actions, at distance zero, end up in one subclass.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .clustering import DistanceMatrix, select_hyperparams
from .config import RunConfig
from .dataset import Action, Dataset, TokenDoc, ValidationError, tokenize
from .distance import action_matrix, bag_matrix, lev_matrix, pairwise_matrix
from .reduction import CoverageMap
from .stemming import STOPWORDS, stem

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
    """TokenDoc per action occurrence: each page's `tokenize` words, less
    the shared, stop and numeric ones, stemmed.

    A word is shared when at least `config.shared_threshold` of the pages
    hold it, every page counted, duplicates included: boilerplate shared
    across most pages (menus, version strings, dates) cannot characterize
    a page. Each distinct page is tokenized once and gives one document,
    returned for every occurrence, and each kept word is stemmed once, in
    a table local to this call, so every run pays for its own work."""
    pages = [out for rec in dataset.inputs for out in rec.outputs]
    occurrences = Counter(pages)
    tokens = {raw: tokenize(raw) for raw in occurrences}
    # Each distinct page's word set, once per occurrence of the page.
    freq = Counter(chain.from_iterable(
        [*set(tokens[raw])] * n for raw, n in occurrences.items()))
    stems = {tok: stem(tok) for tok, n in freq.items()
             if n / len(pages) < config.shared_threshold
             and tok not in STOPWORDS and not tok.isdigit()}
    doc_of = {raw: TokenDoc(tuple([stems[tok] for tok in toks if tok in stems]))
              for raw, toks in tokens.items()}
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
