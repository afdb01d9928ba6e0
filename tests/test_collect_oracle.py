"""The bit-mask collector against the word-buffer collector it replaced.

`collect_leftmost` is the earlier back end of `PCPres.collect`, kept as an
oracle: it rewrites a word buffer from the left, swapping the first
descending pair (a, b) to b, a followed by the reversed relation value of
(b, a) and cancelling the first equal pair.  `mul`, `inv`, `comm`, `conj`
and `map_elem` were this collection of the concatenated normal-form words;
`prefix_table`, which folds one letter onto an earlier entry per entry, must
agree with `mul` and `map_elem` on every entry.
The mask collector must agree on every table, consistent or not, because
CB3 witnesses print the collected words of inconsistent tables.
"""

import sys

from hypothesis import example, given, settings, strategies as st

from rgdkit.errors import CollectionOverflow
from rgdkit.groupforge import PCPres


def collect_leftmost(pres, word):
    """Leftmost collection on a word buffer to the ascending normal form."""
    buf = list(word)
    i = 0
    steps = 0
    while i + 1 <= len(buf) - 1:
        a, b = buf[i], buf[i + 1]
        if a == b:
            del buf[i:i + 2]
            i = max(0, i - 1)
        elif a > b:
            tail = pres.rel.get((b, a), ())
            buf[i:i + 2] = [b, a, *reversed(tail)]
            i = max(0, i - 1)
        else:
            i += 1
        steps += 1
        if steps > pres.step_cap:
            raise CollectionOverflow(f"collection exceeded {pres.step_cap} steps")
    bits = 0
    for x in buf:
        bits |= 1 << (x - 1)
    return bits


def raw_pres(k, rel):
    return PCPres(k, rel)


@st.composite
def cases(draw):
    """A table on k <= 7 generators with every value a random subset of its
    open interval, a word with repeated letters, two elements and a map of
    the generators."""
    k = draw(st.integers(1, 7))
    rel = {}
    for i in range(1, k + 1):
        for j in range(i + 2, k + 1):
            between = range(i + 1, j)
            picks = draw(st.integers(0, (1 << len(between)) - 1))
            rel[(i, j)] = tuple(x for n, x in enumerate(between) if picks >> n & 1)
    letters = st.integers(1, k)
    word = draw(st.lists(letters, max_size=16))
    x, y = draw(st.integers(0, (1 << k) - 1)), draw(st.integers(0, (1 << k) - 1))
    mp = dict(enumerate(draw(st.lists(letters, min_size=k, max_size=k)), start=1))
    return k, rel, word, x, y, mp


@given(cases())
@example((6, {(1, 3): (2,), (3, 5): (4,), (1, 5): (2, 4), (2, 6): (4,), (1, 6): (2, 3, 4, 5)},
          [6, 5, 6, 1, 3, 3, 2, 6, 1], 0b110101, 0b011011, {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}))
@example((4, {(1, 3): (2,), (2, 4): (3,)}, [4, 3, 2, 1, 4, 1, 2], 0b1011, 0b1101,
          {1: 4, 2: 4, 3: 1, 4: 2}))
@settings(max_examples=300, derandomize=True, deadline=2000)
def test_mask_collection_matches_the_word_buffer(case):
    # twice on one presentation, the second time from its warm memo, then
    # once on a fresh one
    k, rel, word, x, y, mp = case
    warm = raw_pres(k, rel)
    wx, wy = warm.word_of(x), warm.word_of(y)
    rx, ry = tuple(reversed(wx)), tuple(reversed(wy))
    expected = [collect_leftmost(warm, w) for w in
                (word, wx + wy, rx, wx + wy + rx + ry, wx + wy + rx, [mp[i] for i in wx])]
    for p in (warm, warm, raw_pres(k, rel)):
        assert [p.collect(word), p.mul(x, y), p.inv(x), p.comm(x, y), p.conj(x, y),
                p.map_elem(mp, x)] == expected


@given(cases())
@example((4, {(1, 3): (2,), (2, 4): (3,), (1, 4): (2, 3)}, [], 0b0110, 0b0011,
          {1: 4, 2: 3, 3: 2, 4: 1}))
@settings(max_examples=200, derandomize=True, deadline=2000)
def test_prefix_table_matches_mul_and_map_elem(case):
    # entry z of the table over letters 1 ... k is x * z, over the images of
    # a map it is map_elem of z, and over the block of letters a ... k it is
    # x times z shifted onto that block; on any table, consistent or not
    k, rel, _, x, y, mp = case
    p = raw_pres(k, rel)
    letters = range(1, k + 1)
    assert p.prefix_table(x, letters) == [p.mul(x, z) for z in range(p.order)]
    assert p.prefix_table(0, [mp[i] for i in letters]) == [
        p.map_elem(mp, z) for z in range(p.order)]
    a = y % k + 1
    assert p.prefix_table(x, range(a, k + 1)) == [
        p.mul(x, z << (a - 1)) for z in range(1 << (k - a + 1))]


@given(cases())
@settings(max_examples=300, derandomize=True, deadline=2000)
def test_a_warm_memo_keeps_the_consistency_verdict(case):
    # most random tables are inconsistent, and the witness prints collected
    # words: a presentation whose memo holds products of other elements
    # must give the verdict and witness of a fresh one
    k, rel, _, x, y, _ = case
    fresh, warm = raw_pres(k, rel), raw_pres(k, rel)
    gens = [warm.generator(i) for i in range(1, k + 1)]
    for a, b in [(x, y), (y, x), *((g, h) for g in gens for h in gens)]:
        warm.mul(warm.mul(a, b), a)
    assert warm.consistency_check() == fresh.consistency_check()
    assert warm.inconsistency_witness == fresh.inconsistency_witness


def test_examples_cover_consistent_and_inconsistent_tables():
    g2 = raw_pres(6, {(1, 3): (2,), (3, 5): (4,), (1, 5): (2, 4), (2, 6): (4,),
                      (1, 6): (2, 3, 4, 5)})
    assert g2.consistency_check()
    assert not raw_pres(4, {(1, 3): (2,), (2, 4): (3,)}).consistency_check()


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_collection_needs_no_recursion_on_long_inputs():
    limit = _stack_depth() + 40
    k = 10 * limit
    # u_{i+2} passing u_i leaves u_{i+1} behind, which must pass in turn
    p = raw_pres(k, {(i, i + 2): (i + 1,) for i in range(1, k - 1, 2)})
    word = list(range(k, 0, -1))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        x = p.collect(word)
        back = p.mul(x, p.inv(x))
        twice = p.mul(x, x)
    finally:
        sys.setrecursionlimit(old)
    assert x == collect_leftmost(p, word)
    assert back == 0
    assert twice == collect_leftmost(p, p.word_of(x) * 2)
