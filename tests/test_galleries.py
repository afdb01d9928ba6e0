"""Gallery enumeration, the s-shift, and crossing orders."""

import pytest

from rgdkit import roots as rt
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import CapExceeded, RgdError
from rgdkit.galleries import Gallery, get_gallery, min_gal, min_gal_s, shift


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
                if not (w and cox.is_left_descent(s, w)):
                    continue
                for G in min_gal_s(cox, w, s):
                    sG = shift(G, s)
                    mapped = [rt.Root(cox.reflect(s, r.vec)) for r in G.roots[1:]]
                    assert list(sG.roots) == mapped


def test_gallery_requires_reduced_word():
    with pytest.raises(RgdError):
        Gallery(cox_dihedral(3), (0, 0))
