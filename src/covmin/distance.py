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
    longer sequence is scanned once by `_lev_scan` with the shorter one as
    its only segment; the last row is len(a) plus the column's deltas.
    """
    if len(a) < len(b):
        a, b = b, a
    peq: dict = {}
    bit = 1
    for x in b:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = _lev_scan(a, peq, mask, bit >> 1, mask & 1)
    return len(a) + pv.bit_count() - mv.bit_count()


def _lev_scan(text, eqs, mask: int, top: int, low: int) -> tuple[int, int]:
    """Hyyrö's Levenshtein column step over every item of `text`, against
    patterns packed into bit segments within `mask`: `eqs` maps an item to
    its match bits, `top` and `low` hold each segment's top and bottom bit.
    The addition is carry-blocked at the top bits, the shifts drop what
    crosses into a bottom bit, where the first row's +1 enters instead, and
    every vector stays within `mask`, so a complement is an XOR with it.
    Returns the last column's vertical +1 and -1 delta vectors."""
    not_top, not_low = mask ^ top, mask ^ low
    pv, mv = mask, 0
    for x in text:
        eq = eqs.get(x, 0)
        xv = eq | mv
        y = eq & pv
        added = ((y & not_top) + (pv & not_top)) ^ ((y ^ pv) & top)
        xh = (added ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        ph = ((ph << 1) | low) & mask
        mh = (mh << 1) & not_low
        pv = mh | ((xv | ph) ^ mask)
        mv = ph & xv
    return pv, mv


def bag_matrix(docs) -> np.ndarray:
    """Bag distance of every pair of TokenDocs as one float64 matrix: the
    longer length minus the size of the multiset intersection, a lower
    bound of the edit distance.

    Each token's postings (the documents holding it, with its count in each)
    add min(count_i, count_j) to the intersection of every pair among them,
    so only pairs that share a token cost work. Tokens with identical
    postings add the same block, so each such group adds it once, times the
    group's size. The arithmetic is int64 until the last step, so the matrix
    equals the pair loop's exactly.
    """
    postings: dict[str, list[tuple[int, int]]] = {}
    for i, doc in enumerate(docs):
        for tok, count in Counter(doc.tokens).items():
            postings.setdefault(tok, []).append((i, count))
    n = len(docs)
    inter = np.zeros((n, n), dtype=np.int64)
    for posting, size in Counter(map(tuple, postings.values())).items():
        ids, counts = zip(*posting)
        c = np.array(counts, dtype=np.int64)
        # Each document appears once per posting, so no index repeats.
        inter[np.ix_(ids, ids)] += size * np.minimum.outer(c, c)
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    return (np.maximum.outer(lengths, lengths) - inter).astype(np.float64)


def lev_matrix(docs) -> np.ndarray:
    """`levenshtein` of every pair of TokenDocs as one float64 matrix.

    The multi-pattern form of the bit-vector algorithm (Hyyrö, Fredriksson
    and Navarro, "Increased bit-parallelism for approximate and multiple
    string matching", ACM JEA 10, 2005). Every document is packed into one
    Python int, each in its own bit segment, the last document lowest, so
    the documents after document i are exactly the low `off[i]` bits. Each
    document is scanned once by `_lev_scan` as the text against all of
    those segments at once. The last column's vertical deltas then give
    d(i, j) = len(i) + popcount(pv & seg_j) - popcount(mv & seg_j). Every
    step is integer arithmetic, so the matrix equals the pair loop's
    exactly.
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
        eqs = {tok: peq[tok] & mask for tok in set(doc.tokens)}
        pv, mv = _lev_scan(doc.tokens, eqs, mask, top & mask, low & mask)
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
