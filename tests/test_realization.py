"""The integer root realization against the geometric one over Q(sqrt2, sqrt3).

The engine acts on integer vectors in the root lattice of a generalized
Cartan matrix; `qf24.GeometricRealization` is the Tits representation with
B(e_s, e_t) = -cos(pi/m_st).  Both realize the same Coxeter group, so they
must agree on normal forms, on the order of r_alpha r_beta for every pair of
roots, and on every interval of every minimal gallery.  On the cycle types
(4,4,4), (3,3,4) and (3,3,6) no integer Cartan matrix is symmetrizable, so
the two realizations are not related by rescaling the simple roots.
"""

from math import inf

import pytest

from rgdkit import roots as rt
from rgdkit.blueprints import ingest_path
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.galleries import min_gal
from rgdkit.qf24 import GeometricRealization
from tests.conftest import FIXTURES

RADIUS = 4

MATRICES = {
    **{f"fixture:{p.name}": (lambda p=p: ingest_path(str(p)).cox.matrix)
       for p in sorted(FIXTURES.glob("*.bp"))},
    "dihedral3": lambda: CoxeterMatrix.dihedral(3),
    "dihedral4": lambda: CoxeterMatrix.dihedral(4),
    "dihedral6": lambda: CoxeterMatrix.dihedral(6, direction=(1, 0)),
    "cycle334": lambda: CoxeterMatrix.from_dict(3, {(0, 1): 3, (0, 2): 4, (1, 2): 3}),
    "cycle336": lambda: CoxeterMatrix.from_dict(
        3, {(0, 1): 3, (0, 2): 3, (1, 2): 6}, frozenset({(2, 1)})),
}


@pytest.fixture(params=sorted(MATRICES))
def realizations(request):
    matrix = MATRICES[request.param]()
    return CoxeterSystem(matrix), GeometricRealization(matrix)


def oracle_ball(geo, r):
    """Lex-least reduced words of length <= r, found with the oracle alone.

    Lex-least reduced words are closed under prefixes, so each layer is the
    least extension, per element, of the previous layer's words; elements
    are told apart by their matrices, the representation being faithful.
    """
    layers = [[()]]
    for _ in range(r):
        least = {}
        for w in layers[-1]:
            for t in range(geo.rank):
                if geo.vec_sign(geo.apply(w, geo.basis[t])) > 0:
                    x = w + (t,)
                    key = tuple(geo.apply(x, e) for e in geo.basis)
                    least[key] = min(least.get(key, x), x)
        layers.append(sorted(least.values()))
    return [w for layer in layers for w in layer]


def crossed(cox, geo):
    """reflection word -> (engine root, oracle vector) over ball(RADIUS)."""
    out = {}
    for w in cox.ball(RADIUS):
        for root in rt.phi_w(cox, w):
            prefix, s = root.expr
            pair = (root, geo.apply(prefix, geo.basis[s]))
            assert out.setdefault(rt.reflection_word(cox, root), pair) == pair
    return out


def oracle_interval(geo, vecs, i, j):
    """Positions of [alpha_i, alpha_j] from QF24 vectors: the cone rule for
    a finite pair, the non-crossing rule for an infinite one."""
    a, b = vecs[i - 1], vecs[j - 1]
    finite = geo.pair_order(a, b) != inf
    n = len(a)
    det, p, q = next((a[p] * b[q] - a[q] * b[p], p, q)
                     for p in range(n) for q in range(p + 1, n)
                     if not (a[p] * b[q] - a[q] * b[p]).is_zero())
    out = [i]
    for k in range(i + 1, j):
        c = vecs[k - 1]
        if finite:
            # det * c = x * a + y * b
            x = c[p] * b[q] - c[q] * b[p]
            y = a[p] * c[q] - a[q] * c[p]
            if all((x * a[m] + y * b[m] - det * c[m]).is_zero() for m in range(n)) \
                    and (x * det).sign() >= 0 and (y * det).sign() >= 0:
                out.append(k)
        elif geo.pair_order(a, c) == inf and geo.pair_order(c, b) == inf:
            out.append(k)
    return out + [j]


def test_balls_agree(realizations):
    cox, geo = realizations
    assert cox.ball(RADIUS) == oracle_ball(geo, RADIUS)


def test_pair_orders_agree(realizations):
    cox, geo = realizations
    roots = list(crossed(cox, geo).values())
    # one reflection word per root in both realizations
    assert len({r.vec for r, _ in roots}) == len({v for _, v in roots}) == len(roots)
    for k, (alpha, u) in enumerate(roots):
        for beta, v in roots[k + 1:]:
            assert rt.pair_order(cox, alpha, beta) == geo.pair_order(u, v)


def test_intervals_agree(realizations):
    cox, geo = realizations
    for w in cox.ball(RADIUS):
        for G in min_gal(cox, w):
            vecs = [geo.apply(G.word[:k], geo.basis[s]) for k, s in enumerate(G.word)]
            for i in range(1, len(G) + 1):
                for j in range(i + 1, len(G) + 1):
                    got = [G.position(g) for g in rt.interval(cox, G.root(i), G.root(j), G)]
                    assert got == oracle_interval(geo, vecs, i, j), (G.label(), i, j)
