"""The direct common residue of a root pair against a bounded ball search.

`roots.common_residue` folds a point fixed by both reflections into the
fundamental chamber.  The oracle here is the search it replaced: scan the
rank-2 residues met by growing balls and keep the one with the shortest
gate that both reflections stabilize.  Both must name the same residue for
every pair of order 3, 4 or 6 crossed by one minimal gallery of length at
most RADIUS.
"""

from math import inf

import pytest

from rgdkit import roots as rt
from rgdkit.blueprints import ingest, ingest_path
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import RgdError
from rgdkit.galleries import get_gallery
from tests.conftest import FIXTURES

RADIUS = 4


def _labels(rank, text, directed=()):
    """Labels m(i, j) for i < j listed row by row, generators 1-based."""
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    values = [inf if x == "inf" else int(x) for x in text.split(",")]
    return CoxeterMatrix.from_dict(
        rank, dict(zip(pairs, values)),
        frozenset((t - 1, s - 1) for t, s in directed))


MATRICES = {
    **{f"fixture:{p.name}": (lambda p=p: ingest_path(str(p)).cox.matrix)
       for p in sorted(FIXTURES.glob("*.bp"))},
    "dihedral3": lambda: CoxeterMatrix.dihedral(3),
    "dihedral4": lambda: CoxeterMatrix.dihedral(4),
    "dihedral6": lambda: CoxeterMatrix.dihedral(6, direction=(1, 0)),
    "cycle334": lambda: _labels(3, "3,4,3"),
    "cycle336": lambda: _labels(3, "3,3,6", [(3, 2)]),
    "A3": lambda: _labels(3, "3,2,3"),
    "B3": lambda: _labels(3, "4,2,3"),
    "affine_A2": lambda: _labels(3, "3,3,3"),
    "affine_G2": lambda: _labels(3, "6,2,3", [(2, 1)]),
    "A4": lambda: _labels(4, "3,2,2,3,2,3"),
    "affine_A3": lambda: _labels(4, "3,2,3,3,2,3"),
    "3_inf_inf": lambda: _labels(3, "3,inf,inf"),
    "6_inf_inf": lambda: _labels(3, "6,inf,inf", [(2, 1)]),
    "rank4_446inf_inf4": lambda: _labels(4, "4,4,6,inf,inf,4", [(4, 1)]),
}


def ball_search(cox, alpha, beta, limit):
    """The shortest-gate rank-2 residue stabilized by both reflections,
    scanning ball(0), ball(1), ... up to ball(limit)."""
    ra, rb = rt.reflection_word(cox, alpha), rt.reflection_word(cox, beta)
    best = None
    for w in cox.ball(limit):
        for s in range(cox.rank):
            for t in range(s + 1, cox.rank):
                if cox.matrix.m(s, t) == inf:
                    continue
                R = rt.residue_at(cox, w, (s, t))
                if rt.stabilizes_residue(cox, ra, R) and rt.stabilizes_residue(cox, rb, R):
                    if best is None or len(R.base) < len(best.base):
                        best = R
        if best is not None and len(best.base) <= len(w):
            return best
    raise AssertionError(f"no common residue within ball({limit})")


def finite_pairs(cox):
    """Root pairs of order 3, 4 or 6 crossed by one gallery in ball(RADIUS)."""
    pairs = {}
    for w in cox.ball(RADIUS):
        crossed = rt.phi_w(cox, w)
        for i, alpha in enumerate(crossed):
            for beta in crossed[i + 1:]:
                if rt.pair_order(cox, alpha, beta) in (3, 4, 6):
                    pairs.setdefault(frozenset((alpha.vec, beta.vec)), (alpha, beta))
    return list(pairs.values())


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_common_residue_matches_ball_search(name):
    cox = CoxeterSystem(MATRICES[name]())
    pairs = finite_pairs(cox)
    if all(cox.matrix.m(s, t) in (2, inf) for s in range(cox.rank) for t in range(s)):
        assert not pairs  # right-angled and universal types have no such pair
    for alpha, beta in pairs:
        R = rt.common_residue(cox, alpha, beta)
        assert R == ball_search(cox, alpha, beta, RADIUS + 2), (alpha.describe(), beta.describe())
        assert R == rt.common_residue(cox, beta, alpha)


def test_far_residue_on_3_inf_inf():
    # the residue sits nine chambers out, beyond what a radius-8 search saw
    bp = ingest("rank 3\nm 1 2 3\nm 1 3 inf\nm 2 3 inf\ndefault rank2\n")
    cox = bp.cox
    G = get_gallery(cox, (2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0))
    R = rt.common_residue(cox, G.root(10), G.root(12))
    assert R.label() == "R{1,2}(3.1.2.1.3.1.2.1.3)"
    assert bp.query(G, 10, 12) == (11,)


def test_common_residue_refuses_infinite_pairs():
    cox = CoxeterSystem(CoxeterMatrix.universal(2))
    G = get_gallery(cox, (0, 1))
    with pytest.raises(RgdError):
        rt.common_residue(cox, G.root(1), G.root(2))
