import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmin import distance
from covmin.dataset import Action, TokenDoc
from covmin.distance import (
    action_distance,
    action_matrix,
    bag_matrix,
    lev_matrix,
    levenshtein,
    normalize,
    pairwise_matrix,
    param_distance,
    url_distance,
)

from _oracles import (bag_distance, bag_distance_by_differences, levenshtein_dp, output_distance,
                      pair_matrix, param_distance_two_pass, param_lists_match)


def test_normalize_maps_to_unit_interval():
    assert normalize(0) == 0.0
    assert normalize(1) == 0.5
    assert normalize(32) == pytest.approx(32 / 33)
    with pytest.raises(ValueError):
        normalize(-1)


def test_levenshtein_known_values():
    assert levenshtein("John", "Johnny") == 2
    assert levenshtein("qwerty", "qwertyuiop") == 4
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein(("a", "b"), ("a", "c", "b")) == 1


WORDS = ("add", "user", "ok", "error", "login", "job", "build", "queue")


@st.composite
def _sequence_pair(draw):
    """Two sequences over a 1-8 symbol alphabet of ints, characters (as str)
    or word tokens (as tuples), each 0-150 long so the bit vectors cross the
    64-bit word size."""
    size = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("int", "str", "words")))
    symbol = st.integers(0, size - 1)

    def sequence():
        return st.integers(0, 150).flatmap(
            lambda n: st.lists(symbol, min_size=n, max_size=n))

    a, b = draw(sequence()), draw(sequence())
    if kind == "str":
        return "".join(chr(97 + x) for x in a), "".join(chr(97 + x) for x in b)
    if kind == "words":
        return tuple(WORDS[x] for x in a), tuple(WORDS[x] for x in b)
    return a, b


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_sequence_pair())
@example(("a" * 64, "a" * 65))
@example(("ab" * 75, "ba" * 75))
@example((list(range(8)) * 18, list(range(7, -1, -1)) * 8))
@example(((), ("ok",) * 150))
def test_levenshtein_matches_dp(pair):
    a, b = pair
    assert levenshtein(a, b) == levenshtein_dp(a, b)
    assert levenshtein(b, a) == levenshtein_dp(a, b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_sequence_pair())
@example(("", ""))
@example(("aab", "abb"))
@example(((), ("ok",) * 150))
def test_bag_distance_matches_multiset_differences(pair):
    a, b = pair
    assert bag_distance(a, b) == bag_distance_by_differences(a, b)
    assert bag_distance(b, a) == bag_distance_by_differences(a, b)


@st.composite
def _documents(draw):
    """0-12 token documents over a 1-6 word vocabulary, each 0-20 tokens
    long, so tokens repeat within a document, and documents are empty,
    one token long or equal to one another."""
    size = draw(st.integers(1, 6))
    token = st.sampled_from(WORDS[:size])
    return [TokenDoc(tuple(doc)) for doc in draw(st.lists(
        st.lists(token, max_size=20), max_size=12))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_documents())
@example([])
@example([TokenDoc(()), TokenDoc(()), TokenDoc(("ok",))])
@example([TokenDoc(("ok",) * 5), TokenDoc(("ok", "ok", "job")), TokenDoc(("job",) * 3)])
def test_bag_matrix_matches_multiset_differences(docs):
    m = bag_matrix(docs)
    assert m.dtype == np.float64 and m.shape == (len(docs), len(docs))
    want = np.array([[bag_distance_by_differences(a.tokens, b.tokens) for b in docs]
                     for a in docs], dtype=np.float64).reshape(m.shape)
    assert np.array_equal(m, want)
    assert np.array_equal(m, pair_matrix(docs, lambda a, b: bag_distance(a.tokens, b.tokens)))


def test_bag_matrix_groups_tokens_with_equal_postings():
    # Each group's tokens sit in the same documents with the same counts,
    # up to 3 per document, so `bag_matrix` adds each group's block once,
    # times the group's size; single-holder tokens and empty documents mix in.
    rng = random.Random(22)
    for trial in range(20):
        n = rng.randrange(2, 14)
        tokens = [[f"solo{i}"] * rng.randrange(0, 3) for i in range(n)]
        for g in range(rng.randrange(1, 7)):
            counts = {i: rng.randrange(1, 4) for i in rng.sample(range(n), rng.randrange(1, n + 1))}
            for t in range(rng.randrange(2, 15)):
                for i, count in counts.items():
                    tokens[i] += [f"g{g}t{t}"] * count
        docs = [TokenDoc(tuple(rng.sample(toks, len(toks)))) for toks in tokens]
        want = np.array([[bag_distance_by_differences(a.tokens, b.tokens) for b in docs]
                         for a in docs], dtype=np.float64)
        assert np.array_equal(bag_matrix(docs), want), trial


def test_bag_distance_known_values():
    assert bag_distance("John", "Johnny") == 2
    assert bag_distance("abc", "cba") == 0
    assert bag_distance("aab", "abb") == 1


def test_bag_is_levenshtein_lower_bound_random_sweep():
    rng = random.Random(20240817)
    alphabet = "abcde"
    for _ in range(10_000):
        a = "".join(rng.choices(alphabet, k=rng.randrange(0, 12)))
        b = "".join(rng.choices(alphabet, k=rng.randrange(0, 12)))
        assert bag_distance(a, b) <= levenshtein(a, b)


def test_output_distance_oracle_dispatch():
    d1 = TokenDoc(tokens=("add", "user", "ok"))
    d2 = TokenDoc(tokens=("add", "ok", "user"))
    assert output_distance(d1, d2, "lev") == 2
    assert output_distance(d1, d2, "bag") == 0
    docs = [d1, d2, TokenDoc(()), TokenDoc(("ok",) * 4)]
    for metric, matrix_of in (("lev", lev_matrix), ("bag", bag_matrix)):
        loop = pair_matrix(docs, lambda a, b: output_distance(a, b, metric))
        assert np.array_equal(pairwise_matrix(docs, matrix_of), loop)


@st.composite
def _packed_documents(draw):
    """0-8 documents over a 1-3 letter alphabet, each 0-70 tokens long, so
    tokens repeat heavily, segments are longer or shorter than the text,
    the packed width crosses 64 bits and documents repeat."""
    token = st.sampled_from("abc"[:draw(st.integers(1, 3))])
    length = st.integers(0, draw(st.sampled_from((1, 4, 70))))
    docs = draw(st.lists(length.flatmap(
        lambda n: st.lists(token, min_size=n, max_size=n)), max_size=8))
    if docs and draw(st.booleans()):
        docs.append(draw(st.sampled_from(docs)))
    return [TokenDoc(tuple(doc)) for doc in docs]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_documents())
@example([])
@example([TokenDoc(("a",) * 3)])
@example([TokenDoc(())])
@example([TokenDoc(()), TokenDoc(()), TokenDoc(())])
@example([TokenDoc(("a",)), TokenDoc(()), TokenDoc(("b",)), TokenDoc(("a",))])
@example([TokenDoc(("a",)), TokenDoc(("ab",) * 40 + ("a",) * 30), TokenDoc(())])
@example([TokenDoc(("a", "b") * 35), TokenDoc(("b",) * 65), TokenDoc(("a", "b") * 35)])
def test_lev_matrix_matches_dp(docs):
    m = lev_matrix(docs)
    n = len(docs)
    assert m.dtype == np.float64 and m.shape == (n, n)
    want = np.array([[levenshtein_dp(a.tokens, b.tokens) for b in docs]
                     for a in docs], dtype=np.float64).reshape(n, n)
    assert np.array_equal(m, want)
    assert np.array_equal(m, m.T)
    assert not np.diag(m).any()


# Lengths on both sides of the byte bounds of `lev_matrix`'s segments.
PAD_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65)


@st.composite
def _batched_documents(draw):
    """0-12 documents of the PAD_LENGTHS over a 1-3 word vocabulary, each
    document also drawing from a token of its own that no other one holds."""
    size = draw(st.integers(1, 3))
    docs = []
    for i in range(draw(st.integers(0, 12))):
        token = st.sampled_from(WORDS[:size] + (f"own{i}",))
        n = draw(st.sampled_from(PAD_LENGTHS))
        docs.append(TokenDoc(tuple(draw(st.lists(token, min_size=n, max_size=n)))))
    return docs


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_batched_documents())
@example([TokenDoc(("ok",) * 300), TokenDoc(("ok", "ok"))])
@example([TokenDoc(("ok",) * 8), TokenDoc(("job",) * 8), TokenDoc(()), TokenDoc(("ok",) * 16)])
def test_lev_matrix_matches_dp_in_small_batches(docs):
    # Batches of 1-7 bytes split the documents between rows and between
    # batches; the first example's segment holds more than 255 set bits.
    n = len(docs)
    want = np.array([[levenshtein_dp(a.tokens, b.tokens) for b in docs]
                     for a in docs], dtype=np.float64).reshape(n, n)
    with pytest.MonkeyPatch.context() as mp:
        for batch_bytes in (1, 2, 3, 7):
            mp.setattr(distance, "LEV_BATCH_BYTES", batch_bytes)
            assert np.array_equal(lev_matrix(docs), want), batch_bytes


def test_url_distance_worked_example():
    # /login vs /job/try1/lastBuild: one word past the shared prefix on one
    # side, three on the other.
    u1 = ("http", "hostname", "login")
    u2 = ("http", "hostname", "job", "try1", "lastBuild")
    assert url_distance(u1, u2) == 4
    assert url_distance(u1, u1) == 0


def test_url_distance_triangle_inequality_random_sweep():
    rng = random.Random(99)
    words = ["a", "b", "c"]

    def rand_url():
        return tuple(rng.choices(words, k=rng.randrange(1, 6)))

    for _ in range(10_000):
        x, y, z = rand_url(), rand_url(), rand_url()
        assert url_distance(x, z) <= url_distance(x, y) + url_distance(y, z)


def test_param_value_distance_kinds():
    # A single-parameter list's distance is its one value distance,
    # normalized once as a term and once as the sum.
    assert param_distance((("a", 10),), (("a", 42),)) == normalize(normalize(32))
    assert param_distance((("a", "John"),), (("a", "Johnny"),)) == normalize(normalize(2))
    assert param_distance((("a", 10),), (("a", "10"),)) == 1.0


def test_param_distance_worked_example():
    # Per-value distances 32, 2, 4 normalize to 32/33, 2/3, 4/5; the
    # normalized sum lands near 0.71.
    p1 = (("a", 10), ("b", "John"), ("c", "qwerty"))
    p2 = (("a", 42), ("b", "Johnny"), ("c", "qwertyuiop"))
    assert param_lists_match(p1, p2)
    assert param_distance(p1, p2) == pytest.approx(0.71, abs=0.005)


def test_param_distance_is_one_exactly_when_lists_do_not_match():
    matched = (("a", 1),)
    assert param_distance(matched, (("a", 1),)) == 0.0
    # Names do not count.
    assert param_distance(matched, (("b", 1),)) == 0.0
    # Different lengths.
    assert param_distance(matched, ()) == 1.0
    # Same length, different value type at one position.
    assert param_distance(matched, (("a", "1"),)) == 1.0


def test_param_distance_range_random_sweep():
    rng = random.Random(7)

    def rand_params():
        out = []
        for i in range(rng.randrange(0, 4)):
            if rng.random() < 0.5:
                out.append((f"p{i}", rng.randrange(0, 50)))
            else:
                out.append((f"p{i}", "".join(rng.choices("xyz", k=3))))
        return tuple(out)

    for _ in range(2000):
        p1, p2 = rand_params(), rand_params()
        d = param_distance(p1, p2)
        assert 0.0 <= d <= 1.0
        if d == 1.0:
            assert not param_lists_match(p1, p2)


_PARAM_NAMES = st.sampled_from(("a", "b", "q"))


def _param_value(kind):
    return st.integers(0, 60) if kind is int else st.text("xyz", max_size=6)


@st.composite
def _param_list_pair(draw):
    """Two parameter lists of 0-5 (name, value) pairs with str or int values
    and names drawn apart. The second takes the first's value types, then
    either stays so, gains or loses a pair, or flips the value type at its
    first, middle or last position."""
    kinds = draw(st.lists(st.sampled_from((str, int)), max_size=5))
    p1 = [(draw(_PARAM_NAMES), draw(_param_value(kind))) for kind in kinds]
    p2 = [(draw(_PARAM_NAMES), draw(_param_value(kind))) for kind in kinds]
    change = draw(st.sampled_from(("none", "longer", "shorter", "first", "middle", "last")))
    if change == "longer":
        p2.append((draw(_PARAM_NAMES), draw(_param_value(draw(st.sampled_from((str, int)))))))
    elif change == "shorter" and p2:
        del p2[draw(st.integers(0, len(p2) - 1))]
    elif change in ("first", "middle", "last") and p2:
        i = {"first": 0, "middle": len(p2) // 2, "last": len(p2) - 1}[change]
        name, value = p2[i]
        p2[i] = (name, draw(_param_value(str if isinstance(value, int) else int)))
    return tuple(p1), tuple(p2)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_param_list_pair())
@example(((), ()))
@example(((), (("a", 1),)))
@example(((("a", 1), ("b", "x")), (("a", 1),)))
@example(((("a", 1), ("b", "x"), ("c", 2)), (("a", "1"), ("b", "x"), ("c", 2))))
@example(((("a", 1), ("b", "x"), ("c", 2)), (("a", 1), ("b", 0), ("c", 2))))
@example(((("a", 1), ("b", "x"), ("c", 2)), (("a", 1), ("b", "x"), ("c", "2"))))
@example(((("a", 1), ("b", "xy")), (("q", 5), ("a", "y"))))
def test_param_distance_equals_two_pass_oracle(pair):
    p1, p2 = pair
    want = param_distance_two_pass(p1, p2)
    assert param_distance(p1, p2) == want
    assert param_distance(p2, p1) == want


def test_action_distance_combines_url_and_params():
    a1 = Action(method="GET", url_words=("http", "hostname", "login"),
                params=(("q", 10),))
    a2 = Action(method="GET", url_words=("http", "hostname", "job", "try1", "lastBuild"),
                params=(("q", 42),))
    d = action_distance(a1, a2)
    u = url_distance(a1.url_words, a2.url_words)
    p = param_distance(a1.params, a2.params)
    assert u == 4
    assert p == pytest.approx(normalize(normalize(32)))
    assert d == u + p
    assert int(d) == u


def test_pairwise_matrix_shape_and_symmetry():
    items = ["ab", "abc", "zzz"]
    m = pairwise_matrix(items, lambda xs: pair_matrix(xs, levenshtein))
    assert m.shape == (3, 3)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 0.0)
    assert m[0, 1] == 1
    assert m[0, 2] == 3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.text("ab", max_size=4), max_size=10))
@example([])
@example(["ab", "b", ""])
@example(["ab", "b", "ab", "", "b"])
def test_pairwise_matrix_computes_each_distinct_item_once(items):
    calls, results = [], []

    def matrix_of(distinct):
        calls.append(distinct)
        results.append(pair_matrix(distinct, levenshtein))
        return results[-1]

    m = pairwise_matrix(items, matrix_of)
    assert calls == [list(dict.fromkeys(items))]
    if len(set(items)) == len(items):
        assert m is results[0]
    assert np.array_equal(m, pair_matrix(items, levenshtein))


# Unequal actions at distance 0: their parameters differ only in name.
_NAMES_ONLY = [Action("GET", ("http", "h", "p"), (("a", 1), ("b", "x"))),
               Action("GET", ("http", "h", "p"), (("b", 1), ("a", "x")))]


@st.composite
def _actions(draw):
    """0-8 GET actions drawn from a pool of 1-5, so actions repeat, with 2-4
    URL words over a 3-word vocabulary and 0-3 parameters named "a" or "b"
    whose values are short str or small int, so parameter lists differ in
    length and in type at a position."""
    value = st.one_of(st.text("xy", max_size=3), st.integers(-3, 3))
    action = st.builds(
        lambda words, params: Action("GET", tuple(words), tuple(params)),
        st.lists(st.sampled_from(("http", "h", "p")), min_size=2, max_size=4),
        st.lists(st.tuples(st.sampled_from("ab"), value), max_size=3))
    pool = draw(st.lists(action, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_actions())
@example([])
@example(_NAMES_ONLY + _NAMES_ONLY[:1])
def test_action_matrix_equals_action_distance_pair_loop(actions):
    want = pair_matrix(actions, action_distance)
    assert np.array_equal(action_matrix(actions), want)
    # One row per distinct action, even for unequal actions at distance 0.
    calls = []
    m = pairwise_matrix(actions, lambda distinct: calls.append(distinct) or action_matrix(distinct))
    assert calls == [list(dict.fromkeys(actions))]
    assert np.array_equal(m, want)

