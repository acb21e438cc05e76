"""Hypothesis strategies shared by the test modules. They live apart from
`_oracles`, which `tests/check_scale.py` imports too, so that timing runs do
not import hypothesis: its import leaves enough live objects to move a full
garbage collection into the stage being timed."""

from hypothesis import strategies as st

from covmin.blocks import BlockId

_BLOCK_IDS = st.builds(BlockId, st.integers(0, 30), st.sampled_from(["GET", "POST"]),
                       st.integers(0, 2))


@st.composite
def block_id_cover(draw):
    """A cover of 1-8 inputs over `BlockId`s with output classes 0-30, where
    tuple order differs from the order of their strings (19 < 2 by repr, 19
    < 1 by `as_str()`), at costs of 1-3 so cheapest covers tie, and a set of
    its members."""
    pool = draw(st.lists(_BLOCK_IDS, min_size=1, max_size=8, unique=True))
    covers = draw(st.lists(st.frozensets(st.sampled_from(pool), min_size=1, max_size=4),
                           min_size=1, max_size=8))
    cover = dict(enumerate(covers, start=1))
    costs = {i: draw(st.integers(1, 3)) for i in cover}
    return cover, costs, draw(st.frozensets(st.sampled_from(sorted(cover))))
