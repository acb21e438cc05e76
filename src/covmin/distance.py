"""Dissimilarity functions: edit distances, URL distance, parameter distance,
the composite action distance, and the normalization x/(x+1).

Output distances operate on word tokens; parameter string distances operate
on characters. Parameter matching is positional and type-based.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .dataset import Action, TokenDoc


def normalize(x: float) -> float:
    """Map [0, inf) to [0, 1) monotonically: x / (x + 1)."""
    if x < 0:
        raise ValueError(f"normalize requires a non-negative value, got {x}")
    return x / (x + 1.0)


def levenshtein(a, b) -> int:
    """Unit-cost insert/delete/substitute edit distance over two sequences of
    hashable items.

    Myers' (1999) bit-vector algorithm in Hyyrö's (2003) Levenshtein form:
    one column of the DP table is held as vertical +1/-1 delta bit vectors
    over the shorter sequence, one Python int each, so any length works. The
    longer sequence is scanned once; `mask` trims every complement and shift
    back to the column's length.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq: dict = {}
    bit = 1
    for x in b:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # The first row is 0, 1, 2, ...: a +1 horizontal delta enters at bit 0.
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def bag_distance(a, b) -> int:
    """Multiset lower bound of the edit distance, computed in linear time:
    the longer length minus the size of the multiset intersection."""
    return max(len(a), len(b)) - sum((Counter(a) & Counter(b)).values())


def bag_matrix(docs) -> np.ndarray:
    """`bag_distance` of every pair of TokenDocs as one float64 matrix.

    Each token's postings (the documents holding it, with its count in each)
    add min(count_i, count_j) to the intersection of every pair among them,
    so only pairs that share a token cost work. The arithmetic is int64
    until the last step, so the matrix equals the pair loop's exactly.
    """
    postings: dict[str, tuple[list[int], list[int]]] = {}
    for i, doc in enumerate(docs):
        for tok, count in Counter(doc.tokens).items():
            ids, counts = postings.setdefault(tok, ([], []))
            ids.append(i)
            counts.append(count)
    n = len(docs)
    inter = np.zeros((n, n), dtype=np.int64)
    for ids, counts in postings.values():
        c = np.array(counts, dtype=np.int64)
        # Each document appears once per posting, so no index repeats.
        inter[np.ix_(ids, ids)] += np.minimum.outer(c, c)
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    return (np.maximum.outer(lengths, lengths) - inter).astype(np.float64)


def output_distance(d1: TokenDoc, d2: TokenDoc, metric: str) -> int:
    if metric == "lev":
        return levenshtein(d1.tokens, d2.tokens)
    if metric == "bag":
        return bag_distance(d1.tokens, d2.tokens)
    raise ValueError(f"unknown output metric: {metric!r}")


def url_distance(u1, u2) -> int:
    """Words separating the two URLs from their longest common prefix."""
    lca = 0
    for w1, w2 in zip(u1, u2):
        if w1 != w2:
            break
        lca += 1
    return len(u1) + len(u2) - 2 * lca


def param_value_distance(v1: str | int, v2: str | int) -> int | None:
    """Character edit distance for str pairs, absolute difference for int
    pairs, None (undefined) for mixed types."""
    if type(v1) is not type(v2):
        return None
    if isinstance(v1, str):
        return levenshtein(v1, v2)
    return abs(v1 - v2)


def params_match(p1, p2) -> bool:
    return len(p1) == len(p2) and all(
        type(a[1]) is type(b[1]) for a, b in zip(p1, p2)
    )


def param_distance(p1, p2) -> float:
    """In [0, 1]; exactly 1 iff the parameter lists do not match."""
    if not params_match(p1, p2):
        return 1.0
    total = 0.0
    for (_, v1), (_, v2) in zip(p1, p2):
        d = param_value_distance(v1, v2)
        total += normalize(d)
    return normalize(total)


def action_distance(a1: Action, a2: Action) -> float:
    """URL distance as the integral part, parameter distance as the decimal
    part. Method equality is enforced upstream by the request partition."""
    return url_distance(a1.url_words, a2.url_words) + param_distance(a1.params, a2.params)


def pairwise_matrix(items, dist=None, *, matrix_of=None) -> np.ndarray:
    """Symmetric float64 distance matrix with zero diagonal: `dist` over
    every pair of `items`, or `matrix_of(items)` when a whole-matrix form of
    the distance is given instead."""
    if matrix_of is not None:
        return matrix_of(items)
    n = len(items)
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(dist(items[i], items[j]))
            m[i, j] = d
            m[j, i] = d
    return m
