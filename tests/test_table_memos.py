"""CB1 and Weyl-invariance on the memoized table comparison, against the full loops.

`validate_cb1` and `validate_weyl` read `Blueprint.mismatches`, which
compares each (table, table, d) triple of table numbers once and remembers
the answer, failures included, on the blueprint, so a failing pair is still
reported at every site.  `cb1_full` and `weyl_full` in `tests/oracles.py`
compare at every site: both must give the same report on valid tables, on
their single-entry mutants and on tables where one failing pair recurs.
`validate_weyl` first compares each edge inside the ball once, for both of
its sites, and reruns the loop over every site on a mismatch or a cap: it
must also match `weyl_full` on an edge that fails inside the ball and at
gallery caps that skip elements.
"""

import pytest

from rgdkit import blueprints as bpmod
from rgdkit.errors import BlueprintError
from rgdkit.galleries import get_gallery, min_gal
from tests.conftest import FIXTURES, fixture_path
from tests.oracles import cb1_full, weyl_full
from tests.test_mutations import CASES, _mutants

BUILTINS = ["rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl",
            "allempty:universal3"]
FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.bp"))


def assert_same(a, b):
    assert a.to_text() == b.to_text()
    assert a.violations == b.violations  # the same sites, in the same order
    assert a.checks == b.checks


def assert_memos_match_full_loops(bp, r):
    assert_same(bpmod.validate_cb1(bp, r), cb1_full(bp, r))
    assert_same(bpmod.validate_weyl(bp, r), weyl_full(bp, r))


@pytest.mark.parametrize("name", BUILTINS + FIXTURE_NAMES)
def test_memos_match_full_loops_on_fixtures_and_builtins(name):
    bp = bpmod.builtin(name) if ":" in name else bpmod.ingest_path(fixture_path(name))
    assert_memos_match_full_loops(bp, 6)


@pytest.mark.parametrize("name,r", [(case[0], case[1]) for case in CASES],
                         ids=[case[0] for case in CASES])
def test_memos_match_full_loops_on_every_mutant(name, r):
    failing = 0
    for _, mutant in _mutants(bpmod.ingest_path(fixture_path(name)), r):
        assert_memos_match_full_loops(mutant, r)
        failing += not bpmod.validate_cb1(mutant, r).ok
    assert failing  # the failing path is reached, not only the memo


def test_a_failing_pair_is_reported_at_every_site():
    # universal3 with M(1, 3) = {2} on the gallery 1.2.3.1 only: both of its
    # extensions 1.2.3.1.2 and 1.2.3.1.3 have the all-empty table of length
    # 5, so CB1 meets the same failing (prefix table, full table) pair twice
    cox = bpmod.builtin("allempty:universal3").cox
    bp = bpmod.Blueprint(cox, {((0, 1, 2, 0), 1, 3): (2,)}, name="broken-cb1")
    sites = [(0, 1, 2, 0, 1), (0, 1, 2, 0, 2)]
    keys = {(bp.table_no(get_gallery(cox, w[:4])), bp.table_no(get_gallery(cox, w)))
            for w in sites}
    assert len(keys) == 1
    report = bpmod.validate_cb1(bp, 5)
    found = [(v.w, v.gallery, v.i, v.j) for v in report.violations]
    assert ("1.2.3.1.2", "1.2.3.1", 1, 3) in found and ("1.2.3.1.3", "1.2.3.1", 1, 3) in found
    assert_memos_match_full_loops(bp, 5)


def test_an_interior_weyl_violation_is_reported_at_both_sites():
    # I2(4) x A1 is finite, its longest element w0 has length 5 and no
    # ascent, so a new value at (2, 5) on one gallery G of w0 breaks one
    # Weyl edge, {G, G.word[1:]}, inside the ball, and no prefix table.  The
    # first pass stops at the descent site; the loop over every site reports
    # the edge there and at the ascent site below it, in its order
    bp = bpmod.ingest_path(fixture_path("rank3_b2_product.bp"))
    cox = bp.cox
    w0 = cox.ball(6)[-1]
    G = min_gal(cox, w0)[0]
    H = get_gallery(cox, G.word[1:])  # the normal forms of w0 and of G.word[0].w0
    assert G.word == w0 and cox.normal_form(H.word) == H.word
    assert len(G) == 5 and all(len(cox.normal_form((s,) + w0)) < 5 for s in range(3))
    value = () if bp.relations(G)[(2, 5)] else (3,)
    mutant = bpmod.Blueprint(cox, {**bp.entries, (G.word, 2, 5): value},
                             default=bp.default, name="interior-weyl")
    assert bpmod.validate_cb1(mutant, 6).ok
    report = bpmod.validate_weyl(mutant, 6)
    s = str(G.word[0] + 1)
    assert [(v.w, v.s, v.gallery, v.i, v.j) for v in report.violations] == [
        (H.label(), s, H.label(), 1, 4), (G.label(), s, G.label(), 2, 5)]
    assert_same(report, weyl_full(mutant, 6))


@pytest.mark.parametrize("name", ["rank3_b2_product.bp", "rank3_cycle444.bp", "rank2:m6lr"])
def test_weyl_at_a_gallery_cap_matches_the_full_loop(name):
    # an element past the cap ends the first pass: the loop over every site
    # notes each skipped element in ball order and still checks the ascent
    # sites below it, so checks, violations and notes are the full loop's
    skipped = 0
    for cap in (1, 2, 3):
        bp = bpmod.builtin(name) if ":" in name else bpmod.ingest_path(fixture_path(name))
        got, want = bpmod.validate_weyl(bp, 6, cap), weyl_full(bp, 6, cap)
        assert_same(got, want)  # the notes, in order, are part of `to_text()`
        assert got.skipped == want.skipped
        skipped += got.skipped
    assert skipped


def test_a_table_that_fails_to_build_raises_as_in_the_full_loop():
    # strict universal3 with entries up to length 2: at radius 3 the first
    # pass meets a missing length-3 table at the descents of 1.2.1, the
    # loop over every site at the ascent 2 of 1.2; the error is the loop's
    cox = bpmod.builtin("allempty:universal3").cox
    entries = {((a, b), 1, 2): () for a in range(3) for b in range(3) if a != b}
    errors = []
    for validate in (bpmod.validate_weyl, weyl_full):
        with pytest.raises(BlueprintError) as caught:
            validate(bpmod.Blueprint(cox, entries, default="strict", name="strict2"), 3)
        errors.append(str(caught.value))
    assert errors == ["strict2: no entry for gallery 2.1.2 pair (1,2) (strict mode)"] * 2


def test_table_numbers_name_distinct_tables():
    bp = bpmod.ingest_path(fixture_path("rank3_cycle444.bp"))
    galleries = [G for w in bp.cox.ball(5) for G in min_gal(bp.cox, w)]
    numbers = {}
    for G in galleries:
        numbers.setdefault(bp.table_no(G), bp.relations(G))
    assert sorted(numbers) == list(range(len(numbers)))  # first-seen order from 0
    assert all(bp.relations(G) is numbers[bp.table_no(G)] for G in galleries)
    tables = list(numbers.values())
    assert all(a != b for i, a in enumerate(tables) for b in tables[i + 1:])


def test_oversized_universal_rank_is_refused_before_the_matrix(monkeypatch):
    from rgdkit.coxeter import CoxeterMatrix

    def refuse(rank):
        raise AssertionError("CoxeterMatrix.universal reached before the rank bound")

    assert bpmod.builtin(f"allempty:universal{bpmod.MAX_UNIVERSAL_RANK}").cox.rank == 64
    monkeypatch.setattr(CoxeterMatrix, "universal", staticmethod(refuse))
    with pytest.raises(BlueprintError, match="rank above 64"):
        bpmod.builtin(f"allempty:universal{bpmod.MAX_UNIVERSAL_RANK + 1}")
