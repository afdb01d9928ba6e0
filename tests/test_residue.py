"""The direct common residue of a root pair against a bounded ball search.

`roots.common_residue` folds a point fixed by both reflections into the
fundamental chamber.  The oracle here is the search it replaced: scan the
rank-2 residues met by growing balls and keep the one with the shortest
gate that both reflections stabilize.  Both must name the same residue for
every pair of order 3, 4 or 6 crossed by one minimal gallery of length at
most RADIUS.  On types with a finite parabolic of rank >= 3 the fold can
retry from another point and land on a residue of another type that gives
the same values, so there the `default rank2` tables are compared instead,
and `validate` must pass on every small diagram.
"""

import itertools
from math import inf

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import roots as rt
from rgdkit.blueprints import LocalRank2, ingest, ingest_path
from rgdkit.cli import main
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import RgdError
from rgdkit.galleries import get_gallery, min_gal
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

# types where folding the sum of (1, ..., 1) can miss a rank-2 face
FINITE_PARABOLICS = {
    "B3_324": (3, "3,2,4"),
    "B4": (4, "3,2,2,3,2,4"),
    "D4": (4, "3,2,2,3,3,2"),
    "F4": (4, "3,2,2,4,2,3"),
    "B3_inf": (4, "3,2,2,4,2,inf"),
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


@pytest.mark.parametrize("name", sorted(FINITE_PARABOLICS))
def test_rank2_tables_match_ball_search(name, monkeypatch):
    cox = CoxeterSystem(_labels(*FINITE_PARABOLICS[name]))
    direct = LocalRank2(cox)
    tables = {G.word: direct.relations(G) for w in cox.ball(RADIUS + 1) for G in min_gal(cox, w)}
    assert any(any(table.values()) for table in tables.values())
    monkeypatch.setattr(bpmod, "common_residue",
                        lambda cox, alpha, beta: ball_search(cox, alpha, beta, RADIUS + 3))
    searched = LocalRank2(cox)
    for word, table in tables.items():
        assert searched.relations(get_gallery(cox, word)) == table, word


def _diagram(rank, labels):
    """A `default rank2` file with one `dir6` line per 6-edge."""
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    lines = [f"rank {rank}", *(f"m {i} {j} {m}" for (i, j), m in zip(pairs, labels)),
             *(f"dir6 {j} {i}" for (i, j), m in zip(pairs, labels) if m == "6"), "default rank2"]
    return "\n".join(lines) + "\n"


def test_default_rank2_validates_every_small_diagram(tmp_path, capsys):
    # every rank-3 diagram at radius 3 and the rank-4 types above at radius
    # 4; on (3,2,4), (3,4,2) and (4,3,2) the point (1, 1, 1) folds onto a
    # face of type {1,2,3} for some root pairs
    cases = [(3, labels, 3) for labels in itertools.product(["2", "3", "4", "6", "inf"], repeat=3)]
    cases += [(4, labels.split(","), 4) for rank, labels in FINITE_PARABOLICS.values()
              if rank == 4]
    path = tmp_path / "diagram.bp"
    failed = []
    for rank, labels, radius in cases:
        path.write_text(_diagram(rank, labels))
        if main(["--blueprint", str(path), "--radius", str(radius), "validate"]) != 0:
            failed.append((labels, capsys.readouterr().err))
    capsys.readouterr()
    assert len(cases) == 129 and not failed
