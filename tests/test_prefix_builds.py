"""Words, galleries and tables built from shorter ones, against the oracles.

The ball grows by left multiplication under the least-descent rule,
`min_gal` reads left descents off a point, `get_gallery` checks a word
against its cached prefix, and `Blueprint.relations` builds tables from
cached prefix columns.  Each must agree with its from-scratch oracle in
`tests/oracles.py`, and `validate` must stay within the work budget this
buys.
"""

import contextlib
import io
from collections import Counter
from itertools import product
from math import inf

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import cli
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import BlueprintError, RgdError
from rgdkit.galleries import get_gallery, min_gal
from tests.conftest import fixture_path
from tests.oracles import ball_by_right_extension, reduced_words_by_descent, relations_by_query
from tests.test_coxeter import _rank3
from tests.test_mutations import CASES, _mutants
from tests.test_table_memos import BUILTINS, FIXTURE_NAMES


def _system(rank, labels, directed6=()):
    return CoxeterSystem(CoxeterMatrix.from_dict(rank, labels, frozenset(directed6)))


def _rank4(**labels):
    """Rank 4 with the given labels on the pairs "ij", 2 elsewhere."""
    return _system(4, {(i, j): labels.get(f"m{i}{j}", 2)
                       for i in range(4) for j in range(i + 1, 4)})


SYSTEMS = {
    "A4": lambda: _rank4(m01=3, m12=3, m23=3),
    "B4": lambda: _rank4(m01=3, m12=3, m23=4),
    "D4": lambda: _rank4(m01=3, m12=3, m13=3),
    "F4": lambda: _rank4(m01=3, m12=4, m23=3),
    "affine_A3": lambda: _rank4(m01=3, m12=3, m23=3, m03=3),
    "affine_C2": lambda: _rank3(4, 2, 4),
    "affine_G2": lambda: _rank3(6, 2, 3, {(1, 0)}),
    "3_inf_inf": lambda: _rank3(3, inf, inf),
    "4_4_4": lambda: _rank3(4, 4, 4),
    "2_3_inf": lambda: _rank3(2, 3, inf),
    "universal4": lambda: CoxeterSystem(CoxeterMatrix.universal(4)),
}

RANK3 = {
    "A3": lambda: _rank3(3, 2, 3),
    "B3": lambda: _rank3(3, 2, 4),
    "affine_A2": lambda: _rank3(3, 3, 3),
    "affine_C2": SYSTEMS["affine_C2"],
    "affine_G2": SYSTEMS["affine_G2"],
    "3_3_6": lambda: _rank3(3, 3, 6, {(2, 1)}),
    "3_inf_inf": SYSTEMS["3_inf_inf"],
    "4_4_4": SYSTEMS["4_4_4"],
    "2_3_inf": SYSTEMS["2_3_inf"],
    "universal3": lambda: CoxeterSystem(CoxeterMatrix.universal(3)),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_ball_and_min_gal_match_the_oracles(name):
    cox = SYSTEMS[name]()
    want = ball_by_right_extension(cox, 7)
    # ball(3) is cached first, so ball(7) also extends a cached ball
    assert cox.ball(3) == want[:len(cox.ball(3))]
    assert cox.ball(7) == want
    for w in want:
        assert [G.word for G in min_gal(cox, w)] == reduced_words_by_descent(cox, w), w


def _accepts(cox, word):
    try:
        get_gallery(cox, word)
    except RgdError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(RANK3))
def test_get_gallery_refuses_exactly_the_unreduced_words(name):
    # `cached` meets the words by length, so the prefix of a word is cached
    # iff it is reduced; `fresh` never has the prefix and asks `is_reduced`
    cached, fresh = RANK3[name](), RANK3[name]()
    for n in range(7):
        for word in product(range(3), repeat=n):
            reduced = cached.is_reduced(word)
            if word and reduced:
                assert word[:-1] in cached._gallery_cache
            fresh._gallery_cache.clear()
            assert _accepts(cached, word) == _accepts(fresh, word) == reduced, word


def _outcome(f, *args):
    try:
        return f(*args)
    except RgdError as exc:
        return type(exc), str(exc)


def assert_relations_match_queries(bp, r=6):
    cox = bp.cox
    for w in cox.ball(r):
        for G in min_gal(cox, w):
            assert _outcome(bp.relations, G) == _outcome(relations_by_query, bp, G), G.label()


@pytest.mark.parametrize("name", BUILTINS + FIXTURE_NAMES)
def test_relations_match_queries_on_fixtures_and_builtins(name):
    bp = bpmod.builtin(name) if ":" in name else bpmod.ingest_path(fixture_path(name))
    assert_relations_match_queries(bp)


@pytest.mark.parametrize("name,r", [(case[0], case[1]) for case in CASES],
                         ids=[case[0] for case in CASES])
def test_relations_match_queries_on_every_mutant(name, r):
    for _, mutant in _mutants(bpmod.ingest_path(fixture_path(name)), r):
        assert_relations_match_queries(mutant)


@pytest.mark.parametrize("default", ["empty", "rank2", "strict"])
def test_relations_raise_the_first_bad_query(default):
    # bad explicit values, and in strict mode the missing entries, raise
    # the error of the first bad pair in row order
    cox = bpmod.builtin("rank2:m4").cox
    word = (0, 1, 0, 1)
    G = get_gallery(cox, word)
    entries = {(word, 2, 4): (3,), (word, 1, 4): (2, 4), (word, 1, 3): (3,)}
    bp = bpmod.FileTable(cox, entries, default=default, name="bad")
    want = _outcome(relations_by_query, bp, G)
    assert want[0] is BlueprintError
    assert _outcome(bp.relations, G) == want
    assert ("(1,3)" in want[1]) == (default != "strict")


def test_validate_work_budget(monkeypatch):
    # universal3 at radius 6: the ball folds nothing, galleries are checked
    # against their prefixes and the all-empty tables need no query (the
    # from-scratch builds made 760 folds and 6 138 queries)
    calls = Counter()
    fold, query = CoxeterSystem.fold, bpmod.Blueprint.query

    def counted_fold(self, z, limit):
        calls["fold"] += 1
        return fold(self, z, limit)

    def counted_query(self, G, i, j):
        calls["query"] += 1
        return query(self, G, i, j)

    monkeypatch.setattr(CoxeterSystem, "fold", counted_fold)
    monkeypatch.setattr(bpmod.Blueprint, "query", counted_query)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--builtin", "allempty:universal3", "--radius", "6", "validate"]) == 0
    assert calls["fold"] <= 1 and calls["query"] == 0
    calls.clear()
    CoxeterSystem(CoxeterMatrix.universal(3)).ball(8)
    assert calls["fold"] == 0
