"""CB1 and Weyl-invariance on the memoized table comparison, against the full loops.

`validate_cb1` and `validate_weyl` read `Blueprint.mismatches`, which
compares each (table, table, d) triple of table numbers once and remembers
the answer, failures included, on the blueprint, so a failing pair is still
reported at every site.  `cb1_full` and `weyl_full` in `tests/oracles.py`
compare at every site: both must give the same report on valid tables, on
their single-entry mutants and on tables where one failing pair recurs.
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
