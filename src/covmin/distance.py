"""Dissimilarity functions: edit distances, URL distance, parameter distance,
the composite action distance, and the normalization x/(x+1).

Output distances operate on word tokens; parameter string distances operate
on characters. Parameter matching is positional and type-based.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .dataset import Action

# The most bytes of bit segments packed into one match table by `lev_matrix`.
# It bounds the table and each block read out, and sets time; never the result.
LEV_BATCH_BYTES = 1024

# The number of set bits of each byte value.
_BYTE_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)


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
    pv, mv = _lev_scan(a, peq, mask, mask & 1)
    return len(a) + pv.bit_count() - mv.bit_count()


def _lev_scan(text, eqs, mask: int, low: int) -> tuple[int, int]:
    """Hyyrö's Levenshtein column step over every item of `text`, against
    patterns packed into bit segments: `eqs` maps an item to its match bits,
    `mask` holds every segment's bits and `low` each one's bottom bit.
    Each segment has a zero pad bit above it, outside `mask`, where the
    addition's carry out of the segment dies; the shifts drop what crosses
    into a bottom bit or a pad bit, and the first row's +1 enters at the
    bottom bits. So the vectors stay within `mask`, and a complement is an
    XOR with it. An item no pattern holds (eq = 0, so xh = mh = 0) takes a
    short step. Returns the last column's vertical +1 and -1 delta vectors."""
    not_low = mask ^ low
    pv, mv = mask, 0
    for x in text:
        eq = eqs.get(x)
        if eq is None:
            ph = (((mv | (pv ^ mask)) << 1) | low) & mask
            pv = (mv | ph) ^ mask
            mv &= ph
            continue
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
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
    group's size. The intersection is summed in the result array itself and
    then subtracted from max(len_i, len_j) in place, a block of rows at a
    time. Every value is an integer far below 2**53, so the float64
    arithmetic is exact and the matrix equals the pair loop's.
    """
    postings: dict[str, list[tuple[int, int]]] = {}
    for i, doc in enumerate(docs):
        for tok, count in Counter(doc.tokens).items():
            postings.setdefault(tok, []).append((i, count))
    n = len(docs)
    out = np.zeros((n, n))
    for posting, size in Counter(map(tuple, postings.values())).items():
        ids, counts = zip(*posting)
        c = np.array(counts, dtype=np.float64)
        # Each document appears once per posting, so no index repeats.
        out[np.ix_(ids, ids)] += size * np.minimum.outer(c, c)
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.float64)
    step = max(1, 2**16 // max(n, 1))  # rows whose max(len_i, len_j) block is at most 512 KiB
    for r in range(0, n, step):
        rows = out[r:r + step]
        np.subtract(np.maximum.outer(lengths[r:r + step], lengths), rows, out=rows)
    return out


def lev_matrix(docs) -> np.ndarray:
    """`levenshtein` of every pair of TokenDocs as one float64 matrix.

    The multi-pattern form of the bit-vector algorithm (Hyyrö, Fredriksson
    and Navarro, "Increased bit-parallelism for approximate and multiple
    string matching", ACM JEA 10, 2005). Runs of consecutive documents
    whose segments take at most `LEV_BATCH_BYTES` bytes (a longer document
    alone) form batches. Within a batch, each document is packed into one
    Python int in its own byte-aligned bit segment of (len + 8) // 8 bytes,
    so at least one zero pad bit lies above it, the first document lowest.
    Each document of the batch is scanned by `_lev_scan` as the text just
    before it is packed, when the match table holds exactly the documents
    before it; each later document is scanned once against the whole
    batch. The last column's vertical deltas give d(i, j) = len(i) +
    popcount(pv & seg_j) - popcount(mv & seg_j), read off by
    `_lev_readout` for a batch of rows at once. Every step is integer
    arithmetic, so the matrix equals the pair loop's exactly; the batch
    size sets time and memory only.
    """
    n = len(docs)
    out = np.zeros((n, n))
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    sizes = (lengths + 8) // 8
    bounds, used = [0], 0
    for i, size in enumerate(sizes.tolist()):
        if used and used + size > LEV_BATCH_BYTES:
            bounds.append(i)
            used = 0
        used += size
    bounds.append(n)
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        width = int(sizes[lo:hi].sum())
        table: dict = {}
        mask = low = start = 0
        own = bytearray()
        for k in range(lo, hi):
            tokens = docs[k].tokens
            if k > lo:
                own += _lev_row(tokens, table, mask, low, width)
            local: dict = {}
            bit = 1
            for tok in tokens:
                local[tok] = local.get(tok, 0) | bit
                bit <<= 1
            for tok, bits in local.items():
                table[tok] = table.get(tok, 0) | bits << start
            if tokens:
                low |= 1 << start
                mask |= (bit - 1) << start
            start += 8 * int(sizes[k])
        for r_lo, r_hi in zip(bounds[b + 1:], bounds[b + 2:]):
            rows = bytearray()
            for i in range(r_lo, r_hi):
                rows += _lev_row(docs[i].tokens, table, mask, low, width)
            d = _lev_readout(rows, sizes[lo:hi], lengths[r_lo:r_hi])
            out[r_lo:r_hi, lo:hi] = d
            out[lo:hi, r_lo:r_hi] = d.T
        del table  # not needed to read out the batch's own rows
        if hi - lo > 1:
            # The row of document k is a distance only to the documents before k.
            square = out[lo:hi, lo:hi]
            square[1:] = np.tril(_lev_readout(own, sizes[lo:hi], lengths[lo + 1:hi]))
            square += square.T
    return out


def _lev_row(text, eqs, mask: int, low: int, width: int) -> bytes:
    """`_lev_scan` of `text` as one row: pv then mv, `width` little-endian
    bytes each."""
    pv, mv = _lev_scan(text, eqs, mask, low)
    return pv.to_bytes(width, "little") + mv.to_bytes(width, "little")


def _lev_readout(rows, sizes, lengths) -> np.ndarray:
    """The distances of a block of scanned rows (`_lev_row`, one per entry
    of `lengths`) to each segment of a batch of `sizes` bytes:
    len(row) + popcount(pv) - popcount(mv) over the segment's bytes. Each
    segment's count fits the smallest unsigned type that holds its bits."""
    width = int(sizes.sum())
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(lengths), 2 * width)
    starts = np.cumsum(sizes) - sizes
    counts = np.add.reduceat(_BYTE_POPCOUNT[bits], np.concatenate((starts, width + starts)),
                             axis=1, dtype=np.min_scalar_type(8 * int(sizes.max())))
    d = counts[:, :len(sizes)].astype(np.float64)
    d -= counts[:, len(sizes):]
    d += lengths[:, None]
    return d


def url_distance(u1, u2) -> int:
    """Words separating the two URLs from their longest common prefix."""
    lca = 0
    for w1, w2 in zip(u1, u2):
        if w1 != w2:
            break
        lca += 1
    return len(u1) + len(u2) - 2 * lca


def param_distance(p1, p2) -> float:
    """In [0, 1]; exactly 1 iff the parameter lists do not match: their
    lengths differ, or the value types at some position do. Otherwise the
    normalized sum of each position's normalized value distance: character
    edit distance for str values, absolute difference for int values. One
    pass over the positions judges the match and sums the distances."""
    if len(p1) != len(p2):
        return 1.0
    total = 0.0
    for (_, v1), (_, v2) in zip(p1, p2):
        if type(v1) is not type(v2):
            return 1.0
        total += normalize(levenshtein(v1, v2) if isinstance(v1, str) else abs(v1 - v2))
    return normalize(total)


def action_distance(a1: Action, a2: Action) -> float:
    """URL distance as the integral part, parameter distance as the decimal
    part. Method equality is enforced upstream by the request partition."""
    return url_distance(a1.url_words, a2.url_words) + param_distance(a1.params, a2.params)


def action_matrix(actions) -> np.ndarray:
    """`action_distance` of every pair of actions as one float64 matrix."""
    n = len(actions)
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = action_distance(actions[i], actions[j])
    return m


def pairwise_matrix(items, matrix_of) -> np.ndarray:
    """Symmetric distance matrix with zero diagonal over `items`: `matrix_of`
    over the distinct items in first-occurrence order (equal items are at
    distance 0 under every metric), expanded to every item when one repeats."""
    index: dict = {}
    rows = [index.setdefault(item, len(index)) for item in items]
    unique = matrix_of(list(index))
    if len(index) == len(rows):
        return unique
    rows = np.array(rows)
    return unique[rows[:, None], rows]
