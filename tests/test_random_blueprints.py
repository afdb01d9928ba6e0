"""Random rank-3 blueprints as a differential oracle for the validators.

A drawn blueprint has a rank-3 Coxeter matrix with labels in {2, 3, 4, 6,
inf}, one `dir6` per 6-edge and default mode `empty` or `rank2`.  A few of
the (gallery, i, j) slots of `ball(4)` carry explicit entries, each a random
subset (possibly empty) of the positions that `ingest` allows there: those of
the roots of `roots.open_interval`.  On it, `validate_cb1`, `validate_weyl`
and `validate_cb3`, with their memos, must give the same report text and
check count as `cb1_full`, `weyl_full` and `cb3_full` on a twin blueprint
over a fresh system, and none may raise `InternalConsistencyError`.
`serialize` at RADIUS followed by `ingest` must reproduce `relations` on
every gallery of the ball, which also runs the column screen of
`LocalRank2` on every drawn matrix with the `rank2` default.
"""

from math import inf

from hypothesis import given, settings, strategies as st

from rgdkit import blueprints as bpmod
from rgdkit import groupforge
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.galleries import min_gal
from rgdkit.roots import open_interval
from tests.oracles import cb1_full, cb3_full, weyl_full

RADIUS = 4
EDGES = [(0, 1), (0, 2), (1, 2)]


def _slots(cox):
    """(word, i, j, allowed positions) for every pair of every gallery of
    ball(RADIUS) whose open interval is not empty."""
    out = []
    for w in cox.ball(RADIUS):
        for G in min_gal(cox, w):
            for j in range(2, len(G) + 1):
                for i in range(1, j):
                    allowed = sorted(G.position(r)
                                     for r in open_interval(cox, G.root(i), G.root(j), G))
                    if allowed:
                        out.append((G.word, i, j, allowed))
    return out


@st.composite
def blueprints(draw):
    labels = dict(zip(EDGES, draw(st.lists(st.sampled_from([2, 3, 4, 6, inf]),
                                           min_size=3, max_size=3))))
    directed = frozenset(edge if draw(st.booleans()) else edge[::-1]
                         for edge, m in labels.items() if m == 6)
    matrix = CoxeterMatrix.from_dict(3, labels, directed)
    default = draw(st.sampled_from(["empty", "rank2"]))
    slots = _slots(CoxeterSystem(matrix))
    entries = {}
    if slots:
        for n, picks in draw(st.lists(st.tuples(st.integers(0, len(slots) - 1),
                                                st.integers(0, 2**6 - 1)), max_size=3)):
            word, i, j, allowed = slots[n]
            entries[(word, i, j)] = tuple(k for b, k in enumerate(allowed) if picks >> b & 1)
    return matrix, entries, default


def assert_same(a, b):
    assert a.to_text() == b.to_text()
    assert a.checks == b.checks


@given(blueprints())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_memoized_validators_match_the_full_loops(case):
    matrix, entries, default = case
    bp, twin = (bpmod.Blueprint(CoxeterSystem(matrix), entries, default=default, name="random")
                for _ in range(2))
    assert_same(bpmod.validate_cb1(bp, RADIUS), cb1_full(twin, RADIUS))
    assert_same(bpmod.validate_weyl(bp, RADIUS), weyl_full(twin, RADIUS))
    assert_same(groupforge.validate_cb3(bp, RADIUS), cb3_full(twin, RADIUS))


def _relations(bp):
    cox = bp.cox
    return {G.word: bp.relations(G) for w in cox.ball(RADIUS) for G in min_gal(cox, w)}


@given(blueprints())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_serialize_then_ingest_reproduces_relations(case):
    matrix, entries, default = case
    bp = bpmod.Blueprint(CoxeterSystem(matrix), entries, default=default, name="random")
    back = bpmod.ingest(bpmod.serialize(bp, RADIUS))
    assert back.cox.matrix == matrix and back.default == "empty"
    assert _relations(back) == _relations(bp)
