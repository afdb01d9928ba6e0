"""Gallery enumeration, the s-shift, and crossing orders."""

from math import inf

import pytest

from rgdkit import roots as rt
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import CapExceeded, RgdError
from rgdkit.galleries import get_gallery, min_gal, min_gal_s, shift
from tests.oracles import is_left_descent


def cox_dihedral(m):
    return CoxeterSystem(CoxeterMatrix.dihedral(m, direction=(1, 0) if m == 6 else None))


def cox_universal(n):
    return CoxeterSystem(CoxeterMatrix.universal(n))


def test_min_gal_counts():
    u3 = cox_universal(3)
    for w in u3.ball(4):
        assert len(min_gal(u3, w)) == 1
    cox3 = cox_dihedral(3)
    assert len(min_gal(cox3, (0, 1, 0))) == 2
    assert [G.word for G in min_gal(cox3, ())] == [()]


def test_min_gal_cap():
    cox3 = cox_dihedral(3)
    with pytest.raises(CapExceeded):
        min_gal(cox3, (0, 1, 0), cap=1)


def test_min_gal_s():
    cox3 = cox_dihedral(3)
    # ascent: Min_s(w) is all of Min(w)
    assert len(min_gal_s(cox3, (1, 0), 0)) == len(min_gal(cox3, (1, 0)))
    # descent: filter by first letter
    gals = min_gal_s(cox3, (0, 1, 0), 0)
    assert [G.word for G in gals] == [(0, 1, 0)]
    assert [G.word for G in min_gal_s(cox3, (0,), 0)] == [(0,)]


def test_shift():
    cox3 = cox_dihedral(3)
    assert shift(get_gallery(cox3, (0,)), 0).word == ()
    assert shift(get_gallery(cox3, (1,)), 0).word == (0, 1)
    with pytest.raises(RgdError):
        # 0 is a left descent of 101 = 010, but the gallery starts with 1
        shift(get_gallery(cox3, (1, 0, 1)), 0)


def test_shift_root_relation():
    # Phi(sG) = s . (Phi(G) minus alpha_s), order preserved
    for m in (3, 4, 6):
        cox = cox_dihedral(m)
        for w in cox.ball(m):
            for s in (0, 1):
                if not (w and is_left_descent(cox, s, w)):
                    continue
                for G in min_gal_s(cox, w, s):
                    sG = shift(G, s)
                    mapped = [rt.Root(cox.reflect(s, r.vec)) for r in G.roots[1:]]
                    assert list(sG.roots) == mapped


SHIFT_SYSTEMS = {
    "dihedral2": lambda: CoxeterMatrix.dihedral(2),
    "dihedral3": lambda: CoxeterMatrix.dihedral(3),
    "dihedral4": lambda: CoxeterMatrix.dihedral(4),
    "dihedral6": lambda: CoxeterMatrix.dihedral(6, direction=(1, 0)),
    "universal3": lambda: CoxeterMatrix.universal(3),
    "3_inf_inf": lambda: CoxeterMatrix.from_dict(3, {(0, 1): 3, (0, 2): inf, (1, 2): inf}),
    "cycle444": lambda: CoxeterMatrix.from_dict(3, {(0, 1): 4, (0, 2): 4, (1, 2): 4}),
    "cycle336": lambda: CoxeterMatrix.from_dict(
        3, {(0, 1): 3, (0, 2): 3, (1, 2): 6}, frozenset({(2, 1)})),
    "A4": lambda: CoxeterMatrix.from_dict(
        4, {(0, 1): 3, (0, 2): 2, (0, 3): 2, (1, 2): 3, (1, 3): 2, (2, 3): 3}),
}


@pytest.mark.parametrize("name", sorted(SHIFT_SYSTEMS))
def test_shift_moves_every_crossed_root_by_one_place(name):
    # s . beta_p(G) = beta_{p+d}(sG) with d = len(sG) - len(G), for every
    # position p but that of alpha_s (position 1 on a descent); Weyl-invariance
    # compares blueprint values through this identity alone
    cox = CoxeterSystem(SHIFT_SYSTEMS[name]())
    for w in cox.ball(4 if cox.rank == 4 else 5):
        for s in range(cox.rank):
            alpha_s = rt.simple_root(cox, s)
            for G in min_gal_s(cox, w, s):
                sG = shift(G, s)
                d = len(sG) - len(G)
                assert d == (-1 if G.word[:1] == (s,) else 1)
                for p in range(1, len(G) + 1):
                    if G.root(p) == alpha_s:
                        assert (d, p) == (-1, 1)
                        continue
                    assert rt.Root(cox.reflect(s, G.root(p).vec)) == sG.root(p + d), \
                        (G.label(), s, p)


def test_gallery_requires_reduced_word():
    # refused by `is_reduced` while the prefix (0,) is not cached, and by the
    # sign of (0,) . e_0 once it is
    cox = cox_dihedral(3)
    with pytest.raises(RgdError, match="not reduced"):
        get_gallery(cox, (0, 0))
    get_gallery(cox, (0,))
    with pytest.raises(RgdError, match="not reduced"):
        get_gallery(cox, (0, 0))


def _descent_min_gal_s(cox, w, s):
    """Min_s(w) by an explicit left-descent test on the normal form."""
    gals = min_gal(cox, w)
    if w and is_left_descent(cox, s, cox.normal_form(w)):
        return [G for G in gals if G.word[0] == s]
    return gals


def _descent_shift(G, s):
    """sG by an explicit left-descent test: None where it does not exist."""
    cox = G.cox
    if G.word and is_left_descent(cox, s, G.word):
        return get_gallery(cox, G.word[1:]) if G.word[0] == s else None
    return get_gallery(cox, (s,) + G.word)


@pytest.mark.parametrize("name", sorted(SHIFT_SYSTEMS))
def test_min_gal_s_and_shift_match_the_descent_test(name):
    # min_gal_s and shift read the descent off the first letter of the
    # galleries they are given; the definitions by left-descent test agree
    cox = CoxeterSystem(SHIFT_SYSTEMS[name]())
    for w in cox.ball(5):
        for s in range(cox.rank):
            assert min_gal_s(cox, w, s) == _descent_min_gal_s(cox, w, s), (w, s)
            for G in min_gal(cox, w):
                want = _descent_shift(G, s)
                if want is None:
                    with pytest.raises(RgdError):
                        shift(G, s)
                else:
                    assert shift(G, s) is want, (G.label(), s)
