"""Word arithmetic: reduction, normal forms, descents, balls.

The geometric representation is faithful, so matrix equality serves as the
independent element-equality oracle; small dihedral groups additionally get
an explicit rotation/reflection model.
"""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import InternalConsistencyError, NotSpherical, RgdError
from rgdkit.galleries import min_gal
from tests.oracles import is_left_descent, is_reduced, is_right_descent


def matrix_of(cox, word):
    """Image of the basis under the element; faithful, so an equality oracle."""
    return tuple(cox.apply(word, e) for e in cox.basis)


def cox_dihedral(m):
    return CoxeterSystem(CoxeterMatrix.dihedral(m, direction=(1, 0) if m == 6 else None))


def cox_universal(n):
    return CoxeterSystem(CoxeterMatrix.universal(n))


class DihedralModel:
    """Independent I2(m) oracle: elements (k, flip) with s: flip, t: flip.rot."""

    def __init__(self, m):
        self.m = m

    def mult(self, elem, gen):
        k, f = elem
        # right multiplication by reflections s = (0, 1), t = (1, 1)
        g = (0, 1) if gen == 0 else (1, 1)
        gk, gf = g
        if f == 0:
            return ((k + gk) % self.m, gf)
        return ((k - gk) % self.m, 1 - gf)

    def of_word(self, word):
        e = (0, 0)
        for gen in word:
            e = self.mult(e, gen)
        return e


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_reduce_matches_dihedral_model(m):
    cox = cox_dihedral(m)
    model = DihedralModel(m)
    for n in range(0, 7):
        for word in itertools.product((0, 1), repeat=n):
            red = cox.reduce_word(word)
            assert model.of_word(red) == model.of_word(word)
            assert is_reduced(cox, red)


def test_reduce_examples():
    cox = cox_dihedral(2)
    assert cox.reduce_word((0, 0)) == ()
    assert cox.reduce_word((0, 1, 0, 1)) == ()
    cox3 = cox_dihedral(3)
    out = cox3.reduce_word((0, 1, 0, 1))
    assert len(out) == 2
    assert DihedralModel(3).of_word(out) == DihedralModel(3).of_word((1, 0))


def test_normal_form_braid():
    cox3 = cox_dihedral(3)
    assert cox3.normal_form((1, 0, 1)) == (0, 1, 0)
    assert cox3.normal_form(()) == ()


def test_normal_form_lex_least_b2_longest():
    cox = cox_dihedral(4)
    w0 = cox.longest_element((0, 1))
    # oracle: enumerate every reduced word and take the lex-least
    words = sorted(G.word for G in min_gal(cox, w0))
    assert cox.normal_form(w0) == words[0]


def test_descents():
    cox = cox_dihedral(3)
    assert is_left_descent(cox, 0, (0,))
    assert not is_left_descent(cox, 0, ())
    assert not is_left_descent(cox, 1, (0, 1))
    assert is_left_descent(cox, 0, (0, 1))


@pytest.mark.parametrize("m,r,count", [(3, 3, 6), (6, 6, 12)])
def test_ball_dihedral(m, r, count):
    assert len(cox_dihedral(m).ball(r)) == count


def test_ball_universal3():
    # 1 + 3 + 3*2 elements: no relation shortens words of length <= 2
    assert len(cox_universal(3).ball(2)) == 10


def test_ball_unique_normal_forms():
    cox = cox_dihedral(6)
    ball = cox.ball(6)
    assert len(set(ball)) == len(ball)
    assert all(cox.normal_form(w) == w for w in ball)


@pytest.mark.parametrize("cox,order,longest", [
    (cox_dihedral(3), 6, 3),
    (CoxeterSystem(CoxeterMatrix.from_dict(3, {(0, 1): 3, (0, 2): 2, (1, 2): 3})), 24, 6),
], ids=["m3", "A3"])
def test_ball_of_a_finite_group_stops_at_its_first_empty_layer(cox, order, longest):
    # the layer past the longest element is empty and the ball stops there,
    # so a radius of 10**9 costs no more than one of N + 1
    ball = cox.ball(10**5)
    assert len(ball) == len(set(ball)) == order
    assert max(map(len, ball)) == longest
    assert len(cox._ball_layers) <= longest + 2
    assert cox.ball(10**9) == ball


def test_longest_element():
    cox = cox_dihedral(3)
    assert cox.longest_element((0,)) == (0,)
    assert cox.longest_element((0, 1)) == (0, 1, 0)
    assert len(cox_dihedral(6).longest_element((0, 1))) == 6
    with pytest.raises(NotSpherical):
        cox_universal(2).longest_element((0, 1))


def test_normal_form_depth_does_not_grow_with_length():
    cox = cox_universal(3)
    word = (0, 1, 2) * 50  # reduced: no letter repeats next to itself
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        nf = cox.normal_form(word)
        galleries = min_gal(cox, nf)  # min_gal takes normal forms
    finally:
        sys.setrecursionlimit(limit)
    assert nf == word
    assert [G.word for G in galleries] == [word]  # universal: one reduced word
    assert sys.getrecursionlimit() == limit


def test_reflect_involution_on_basis():
    cox = cox_universal(3)
    for s in range(3):
        for v in cox.basis:
            assert cox.reflect(s, cox.reflect(s, v)) == v


def test_reflect_examples():
    cox3 = cox_dihedral(3)
    e0, e1 = cox3.basis
    assert cox3.reflect(0, e0) == tuple(-c for c in e0)
    # m = 3: sigma_s(e_t) = e_t + e_s
    img = cox3.reflect(0, e1)
    assert img[0] == e0[0] and img[1] == e1[1]
    cox2 = cox_dihedral(2)
    assert cox2.reflect(0, cox2.basis[1]) == cox2.basis[1]


def test_matrix_entries_validated():
    with pytest.raises(RgdError):
        CoxeterMatrix.from_dict(2, {(0, 1): 5})
    with pytest.raises(RgdError):
        CoxeterMatrix.from_dict(2, {(0, 1): 6})  # missing direction
    with pytest.raises(RgdError):  # two directions on one 6-edge
        CoxeterMatrix.from_dict(2, {(0, 1): 6},
                                directed6=frozenset({(0, 1), (1, 0)}))
    assert CoxeterMatrix.dihedral(6, direction=(0, 1)).m(0, 1) == 6


words_g2 = st.lists(st.integers(0, 1), max_size=10).map(tuple)
words_u3 = st.lists(st.integers(0, 2), max_size=8).map(tuple)


@given(words_g2, words_g2)
@settings(max_examples=60, deadline=None)
def test_nf_separates_elements_g2(u, v):
    cox = cox_dihedral(6)
    same_nf = cox.normal_form(u) == cox.normal_form(v)
    same_matrix = matrix_of(cox, u) == matrix_of(cox, v)
    assert same_nf == same_matrix


@given(words_u3)
@settings(max_examples=60, deadline=None)
def test_nf_idempotent_universal(word):
    cox = cox_universal(3)
    nf = cox.normal_form(word)
    assert cox.normal_form(nf) == nf
    assert matrix_of(cox, nf) == matrix_of(cox, word)


@given(st.lists(st.integers(0, 2), max_size=30).map(tuple))
@settings(max_examples=200, deadline=None)
def test_prefix_lengths_match_normal_forms(word):
    cox = cox_universal(3)
    lengths = list(cox.prefix_lengths(word))
    assert lengths == [len(cox.normal_form(word[:k])) for k in range(1, len(word) + 1)]


@given(words_g2, st.integers(0, 9), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_nf_invariant_under_insertion(word, pos, gen):
    # inserting s.s anywhere never changes the element
    cox = cox_dihedral(6)
    pos = min(pos, len(word))
    rewritten = word[:pos] + (gen, gen) + word[pos:]
    assert cox.normal_form(rewritten) == cox.normal_form(word)


def test_prefix_roots_are_the_crossed_walls():
    cox = cox_dihedral(6)
    w0 = cox.longest_element((0, 1))
    vecs = cox.prefix_root_vectors(w0)
    assert len(vecs) == 6
    assert len(set(vecs)) == 6
    for v in vecs:
        assert cox.vec_sign(v) > 0


def test_right_mult_exchange_search_is_linear():
    # (1.2.3)^20.3 cancels its last letter; the exchange search must not
    # recompute every prefix's crossed root (about L^2/2 reflections)
    cox = cox_universal(3)
    word = (0, 1, 2) * 20
    calls = 0
    reflect = cox.reflect

    def counted(s, v):
        nonlocal calls
        calls += 1
        return reflect(s, v)

    cox.reflect = counted
    assert cox.right_mult(word, 2) == word[:-1]
    assert calls <= 3 * len(word)


# ---- the fold against the retired loops ----------------------------------


def peel_normal_form(cox, word):
    """Retired normal form: reduce by exchange, then peel least left descents."""
    red = ()
    for t in word:
        red = cox.right_mult(red, t)
    out = []
    while red:
        s = next(s for s in range(cox.rank) if is_left_descent(cox, s, red))
        out.append(s)
        red = cox.left_mult(s, red)
    return tuple(out)


def strip_coset_gate(cox, word, J):
    """Retired coset gate: strip right descents in J until none is left."""
    w = peel_normal_form(cox, word)
    changed = True
    while changed:
        changed = False
        for j in J:
            if w and is_right_descent(cox, w, j):
                w = peel_normal_form(cox, cox.right_mult(w, j))
                changed = True
    return w


def _rank3(m01, m02, m12, directed6=frozenset()):
    return CoxeterSystem(CoxeterMatrix.from_dict(
        3, {(0, 1): m01, (0, 2): m02, (1, 2): m12}, frozenset(directed6)))


FOLD_SYSTEMS = {
    "m2": lambda: cox_dihedral(2),
    "m3": lambda: cox_dihedral(3),
    "m4": lambda: cox_dihedral(4),
    "m6": lambda: cox_dihedral(6),
    "minf": lambda: cox_dihedral(math.inf),
    "universal3": lambda: cox_universal(3),
    "333": lambda: _rank3(3, 3, 3),
    "444": lambda: _rank3(4, 4, 4),
    "336dir6": lambda: _rank3(3, 3, 6, {(2, 1)}),
    "3infinf": lambda: _rank3(3, math.inf, math.inf),
    "A4": lambda: CoxeterSystem(CoxeterMatrix.from_dict(
        4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 2): 2, (0, 3): 2, (1, 3): 2})),
}


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_fold_matches_retired_loops(name):
    cox = FOLD_SYSTEMS[name]()
    faces = [J for k in (1, 2) for J in itertools.combinations(range(cox.rank), k)]
    for n in range(7):
        for word in itertools.product(range(cox.rank), repeat=n):
            nf = peel_normal_form(cox, word)
            assert cox.normal_form(word) == nf, word
            for J in faces:
                assert cox.coset_gate(word, J) == strip_coset_gate(cox, nf, J), (word, J)


def test_fold_ends_in_the_fundamental_chamber():
    cox = _rank3(3, math.inf, math.inf)
    word = (0, 1, 2, 1, 0, 2)
    gate, z = cox.fold(cox.point(word, (1, 2)), len(word))
    assert gate == cox.coset_gate(word, (1, 2))
    assert z == [1, 0, 0]
    assert cox.fold(cox.point(word), len(word)) == (cox.normal_form(word), [1, 1, 1])


def test_fold_fails_closed_past_its_limit():
    cox = cox_universal(3)
    with pytest.raises(InternalConsistencyError):
        cox.fold(cox.point((0, 1, 2)), 2)
