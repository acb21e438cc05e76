"""Dissimilarity functions: edit distances, URL distance, parameter distance,
the composite action distance, and the normalization x/(x+1).

Output distances operate on word tokens; parameter string distances operate
on characters. Parameter matching is positional and type-based.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .dataset import Action


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


def lev_matrix(docs) -> np.ndarray:
    """`levenshtein` of every pair of TokenDocs as one float64 matrix.

    The multi-pattern form of the bit-vector algorithm (Hyyrö, Fredriksson
    and Navarro, "Increased bit-parallelism for approximate and multiple
    string matching", ACM JEA 10, 2005). Every document is packed into one
    Python int, each in its own bit segment, the last document lowest, so
    the documents after document i are exactly the low `off[i]` bits. Each
    document is scanned once as the text against all of those segments at
    once. The addition is carry-blocked at each segment's top bit (`top`),
    the shifts drop what crosses into a segment's bottom bit (`low`), where
    the first row's +1 enters instead, and every vector stays within the low
    `off[i]` bits, so a complement is an XOR with `mask`. The last column's
    vertical deltas then give d(i, j) = len(i) + popcount(pv & seg_j) -
    popcount(mv & seg_j). Every step is integer arithmetic, so the matrix
    equals the pair loop's exactly.
    """
    n = len(docs)
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    off = np.cumsum(lengths[::-1])[::-1] - lengths
    peq: dict = {}
    low = top = 0
    for doc, start in zip(docs, off.tolist()):
        local: dict = {}
        bit = 1
        for tok in doc.tokens:
            local[tok] = local.get(tok, 0) | bit
            bit <<= 1
        if doc.tokens:
            low |= 1 << start
            top |= bit >> 1 << start
        for tok, bits in local.items():
            peq[tok] = peq.get(tok, 0) | bits << start
    out = np.zeros((n, n), dtype=np.int64)
    for i, doc in enumerate(docs[:-1]):
        width = int(off[i])
        mask = (1 << width) - 1
        h, lo = top & mask, low & mask
        not_h, not_lo = mask ^ h, mask ^ lo
        eqs = {tok: peq[tok] & mask for tok in set(doc.tokens)}
        pv, mv = mask, 0
        for tok in doc.tokens:
            eq = eqs[tok]
            xv = eq | mv
            x = eq & pv
            added = ((x & not_h) + (pv & not_h)) ^ ((x ^ pv) & h)
            xh = (added ^ pv) | eq
            ph = mv | ((xh | pv) ^ mask)
            mh = pv & xh
            ph = ((ph << 1) | lo) & mask
            mh = (mh << 1) & not_lo
            pv = mh | ((xv | ph) ^ mask)
            mv = ph & xv
        # Running sums of the vertical deltas, read off at segment bounds.
        delta = _bits(pv, width) - _bits(mv, width)
        sums = np.zeros(width + 1, dtype=np.int64)
        np.cumsum(delta, out=sums[1:])
        start = off[i + 1:]
        out[i, i + 1:] = len(doc.tokens) + sums[start + lengths[i + 1:]] - sums[start]
    return (out + out.T).astype(np.float64)


def _bits(x: int, width: int) -> np.ndarray:
    """The low `width` bits of a non-negative int as int64 0/1, lowest first."""
    raw = np.frombuffer(x.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").astype(np.int64)


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
