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

`LocalRank2` runs `common_residue` once per residue and fills every pair
of its walls; the per-pair path (`oracles.pair_value_per_pair`) must give
every pair the same value, on every system here and on the benchmark's
rank-3 diagrams, and the work budget pins one call per residue.

The fold is checked by a support test (`roots.local_root`): r_gamma
stabilizes gate<J> iff gate^-1 . gamma is supported on J.  Its oracle is
`stabilizes_residue`, the normal form of the conjugated reflection word,
on residues that the reflections stabilize and on residues that they do
not.  A fold that returns a wrong gate must make `validate` fail closed.
"""

import itertools
from math import inf

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import roots as rt
from rgdkit.blueprints import Blueprint, LocalRank2, builtin, ingest, ingest_path
from rgdkit.cli import main
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import InternalConsistencyError, RgdError
from rgdkit.galleries import get_gallery, min_gal, rj_gallery
from tests.conftest import FIXTURES
from tests.oracles import pair_value_per_pair
from tests.test_goldens import GOLDENS, run

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

# the systems of the support-test and coroot-row oracles: B2, G2 in both
# `dir6` orientations, the B2 x A1 product of the far-walls test in
# tests/test_roots.py, (3, inf, inf), the (4, 4, 4) triangle and the types
# with a finite parabolic of rank >= 3
ORACLE_SYSTEMS = {
    "B2": MATRICES["dihedral4"],
    "G2_dir21": MATRICES["dihedral6"],
    "G2_dir12": lambda: CoxeterMatrix.dihedral(6, direction=(0, 1)),
    "B2xA1": MATRICES["fixture:rank3_b2_product.bp"],
    "3_inf_inf": MATRICES["3_inf_inf"],
    "cycle444": MATRICES["fixture:rank3_cycle444.bp"],
    "B3": MATRICES["B3"],
    **{name: (lambda args=args: _labels(*args)) for name, args in FINITE_PARABOLICS.items()},
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


def finite_pairs(cox, orders=(3, 4, 6)):
    """Root pairs of the given orders crossed by one gallery in ball(RADIUS)."""
    pairs = {}
    for w in cox.ball(RADIUS):
        crossed = rt.phi_w(cox, w)
        for i, alpha in enumerate(crossed):
            for beta in crossed[i + 1:]:
                if rt.pair_order(cox, alpha, beta) in orders:
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


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_support_test_matches_stabilizes_residue(name):
    cox = CoxeterSystem(ORACLE_SYSTEMS[name]())
    pairs = finite_pairs(cox, orders=(2, 3, 4, 6))
    assert pairs
    # the residue of each pair: both reflections stabilize it
    for alpha, beta in pairs:
        R = rt.common_residue(cox, alpha, beta)
        for gamma, image in zip((alpha, beta), R.images):
            assert rt.stabilizes_residue(cox, rt.reflection_word(cox, gamma), R)
            assert rt.local_root(cox, R, gamma) == image == cox.apply_inv(R.base, gamma.vec)
    # each root of those pairs against every spherical residue with a gate
    # in ball(2): above rank 2, most of them it does not stabilize (on B2 x A1
    # these include the far walls of tests/test_roots.py, alpha_1 and R{2,3}(e))
    residues = [rt.residue_at(cox, w, (s, t)) for w in cox.ball(2)
                for s in range(cox.rank) for t in range(s + 1, cox.rank)
                if cox.matrix.m(s, t) != inf]
    roots = {gamma.vec: gamma for pair in pairs for gamma in pair}
    verdicts = set()
    for gamma in roots.values():
        refl = rt.reflection_word(cox, gamma)
        for R in residues:
            stabilized = rt.stabilizes_residue(cox, refl, R)
            assert (rt.local_root(cox, R, gamma) is not None) == stabilized, (
                gamma.describe(), R.label())
            verdicts.add(stabilized)
    assert verdicts == ({True, False} if cox.rank > 2 else {True})


def test_wrong_gate_fails_closed(monkeypatch, capsys):
    # a fold inside common_residue that ends one wall too far: the gate
    # gains a generator outside J, and the support test must refuse it
    fold, common = CoxeterSystem.fold, rt.common_residue

    def wrong_fold(self, z, limit):
        gate, z = fold(self, z, limit)
        return gate + (next(s for s, zs in enumerate(z) if zs),), z

    def wrong_common(cox, alpha, beta):
        with monkeypatch.context() as patch:
            patch.setattr(CoxeterSystem, "fold", wrong_fold)
            return common(cox, alpha, beta)

    cox = CoxeterSystem(MATRICES["fixture:rank3_cycle444.bp"]())
    G = get_gallery(cox, (0, 1, 0, 1))
    with pytest.raises(InternalConsistencyError, match="is not stabilized by the reflection"):
        wrong_common(cox, G.root(1), G.root(4))
    monkeypatch.setattr(bpmod, "common_residue", wrong_common)
    code = main(["--blueprint", str(FIXTURES / "rank3_cycle444.bp"), "--radius", "3", "validate"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: R{") and "is not stabilized by the reflection" in err


def test_common_residue_refuses_infinite_pairs():
    cox = CoxeterSystem(CoxeterMatrix.universal(2))
    G = get_gallery(cox, (0, 1))
    with pytest.raises(RgdError):
        rt.common_residue(cox, G.root(1), G.root(2))


@pytest.mark.parametrize("name", sorted(FINITE_PARABOLICS))
def test_rank2_tables_match_ball_search(name, monkeypatch):
    cox = CoxeterSystem(_labels(*FINITE_PARABOLICS[name]))
    direct = Blueprint(cox, {}, default="rank2")
    tables = {G.word: direct.relations(G) for w in cox.ball(RADIUS + 1) for G in min_gal(cox, w)}
    assert any(any(table.values()) for table in tables.values())

    def searched_residue(cox, alpha, beta):
        R = ball_search(cox, alpha, beta, RADIUS + 3)
        images = (rt.local_root(cox, R, alpha), rt.local_root(cox, R, beta))
        return rt.Residue2(R.base, R.J, images)

    monkeypatch.setattr(bpmod, "common_residue", searched_residue)
    searched = Blueprint(cox, {}, default="rank2")
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


# every `default rank2` system above, and the rank-3 diagrams of the
# benchmark's `validate-rank3-moufang` under every renaming of the
# generators, the hexagon in both directions
FILL_SYSTEMS = {
    **MATRICES,
    **{name: (lambda args=args: _labels(*args)) for name, args in FINITE_PARABOLICS.items()},
    **{f"bench_{label}_{''.join(map(str, perm))}{'_flip' * flip}":
       (lambda text=run.rank3_text(label, perm, flip): ingest(text).cox.matrix)
       for label, _ in run.RANK3_INPUTS for perm in itertools.permutations((1, 2, 3))
       for flip in ((False, True) if label == 6 else (False,))},
}


@pytest.mark.parametrize("name", sorted(FILL_SYSTEMS))
def test_residue_fill_matches_the_per_pair_oracle(name):
    # every pair of order 2, 3, 4 or 6 crossed by one gallery in ball(RADIUS),
    # read from a fresh `LocalRank2` that fills a residue per miss, has the
    # value of its own `common_residue` and base-table entry
    cox = CoxeterSystem(FILL_SYSTEMS[name]())
    local = LocalRank2(cox)
    for alpha, beta in finite_pairs(cox, orders=(2, 3, 4, 6)):
        assert local.pair_value(alpha, beta) == pair_value_per_pair(cox, alpha, beta), (
            alpha.describe(), beta.describe())


def count_common_residue(monkeypatch) -> list[int]:
    """A one-element counter of the `common_residue` calls of `LocalRank2`."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return common(*args)

    common = bpmod.common_residue
    monkeypatch.setattr(bpmod, "common_residue", counted)
    return calls


@pytest.mark.parametrize("name", ["rank2:m6lr", "rank2:m6rl"])
def test_one_common_residue_call_fills_both_rj_tables(monkeypatch, name):
    # the hexagon's one residue: its 15 pairs come from the first miss
    calls = count_common_residue(monkeypatch)
    bp = builtin(name)
    tables = [bp.relations(rj_gallery(bp.cox, s, t)) for s, t in ((0, 1), (1, 0))]
    assert all(any(table.values()) for table in tables)
    assert calls == [1]


def test_one_hexagon_pass_makes_one_common_residue_call_per_job(tmp_path, monkeypatch):
    # each of the 10 jobs builds a fresh blueprint with the one residue
    monkeypatch.chdir(tmp_path)
    jobs, _, _ = run.workload("rank2-hexagon", 1)
    (run.WORK / "reports").mkdir(parents=True)
    calls = count_common_residue(monkeypatch)
    _, _, outcomes = run.run_pass(jobs)
    assert run.check(jobs, outcomes, GOLDENS)[0] == []
    assert len(jobs) == 10 and calls == [10]
