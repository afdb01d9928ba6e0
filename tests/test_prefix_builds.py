"""Words, galleries and tables built from shorter ones, against the oracles.

The ball grows by left multiplication under the least-descent rule and
records which words have a second left descent, `min_gal` builds each
element's galleries from those below its left descents, `get_gallery`
builds a gallery as its prefix gallery plus the root its last letter
crosses, one reflection of the last root of its tail gallery,
`Gallery.roots` reads the roots off those links, `validate_cb1` compares
each gallery with its immediate prefix, `validate_weyl` compares each
gallery with the gallery of its word less the first letter, and
`Blueprint.relations` builds tables from cached prefix columns.
Each must agree with its from-scratch oracle in `tests/oracles.py`, and
`validate` must stay within the work budget this buys.
"""

import contextlib
import inspect
import io
import sys
from collections import Counter
from itertools import product
from math import inf

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import cli
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import BlueprintError, RgdError
from rgdkit.galleries import Gallery, get_gallery, min_gal
from rgdkit.roots import phi_w
from tests.conftest import fixture_path
from tests.oracles import (ball_by_right_extension, cb1_full, coroot_pairing_by_expression,
                           is_reduced, local_answers_full, reduced_words_by_descent,
                           relations_by_query, root_vectors_by_apply)
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


@pytest.mark.parametrize("name", sorted(RANK3) + ["A2"])
def test_get_gallery_refuses_exactly_the_unreduced_words(name):
    # `cached` meets the words by length, so the prefix and the tail of a
    # word are cached iff they are reduced; `fresh` never has them and checks
    # every prefix from the identity.  A refused word caches no gallery on
    # either.  On A2, 1.2.1.2 is refused with both its links cached
    systems = {**RANK3, "A2": lambda: _system(2, {(0, 1): 3})}
    cached, fresh = systems[name](), systems[name]()
    for n in range(7):
        for word in product(range(cached.rank), repeat=n):
            reduced = is_reduced(cached, word)
            if word and reduced:
                assert word[:-1] in cached._gallery_cache
            fresh._gallery_cache.clear()
            before = None if reduced else dict(cached._gallery_cache)
            assert _accepts(cached, word) == _accepts(fresh, word) == reduced, word
            if not reduced:
                assert cached._gallery_cache == before and not fresh._gallery_cache, word


def _assert_links(cox):
    """Every cached gallery but the identity is its cached prefix gallery
    plus the root its last letter crosses, expressed on the prefix's word."""
    cache = cox._gallery_cache
    assert cache[()].head is None and cache[()].last is None and cache[()].roots == ()
    for G in cache.values():
        if G.word:
            assert G.head is cache[G.word[:-1]], G.label()
            assert G.last == cox.apply(G.word[:-1], cox.basis[G.word[-1]]), G.label()
            assert G.roots[-1].expr[0] is G.head.word, G.label()
            assert G.roots[-1].expr[1] == G.word[-1] and G.roots[-1].vec == G.last


@pytest.mark.parametrize("name", sorted(RANK3))
def test_a_gallery_is_its_prefix_plus_one_root(name):
    # `warm` builds the galleries of ball(6) by length, each against its
    # cached prefix; `cold` starts every gallery from an empty cache, so one
    # pass from the identity builds all its prefix galleries.  Both keep the
    # links, and their roots agree with each other and with the oracle
    warm, cold = RANK3[name](), RANK3[name]()
    gals = [G for w in warm.ball(6) for G in min_gal(warm, w)]
    _assert_links(warm)
    for G in gals:
        cold._gallery_cache.clear()
        C = get_gallery(cold, G.word)
        assert [r.vec for r in C.roots] == root_vectors_by_apply(warm, G.word), G.label()
        assert [(r.vec, r.expr) for r in C.roots] == [(r.vec, r.expr) for r in G.roots]
        assert len(cold._gallery_cache) == len(G) + 1
        _assert_links(cold)


def _record(monkeypatch, *names, owner=CoxeterSystem):
    """The arguments of every call of the named attributes of `owner`: the
    methods of a class, recorded without `self`, or a module's functions."""
    seen = {name: [] for name in names}
    first = 1 if isinstance(owner, type) else 0
    for name in names:
        def recorded(*args, _function=getattr(owner, name), _calls=seen[name]):
            _calls.append(args[first:])
            return _function(*args)
        monkeypatch.setattr(owner, name, recorded)
    return seen


@pytest.mark.parametrize("name, r", [("allempty:universal3", 8), ("rank3_cycle444.bp", 6)])
def test_warm_step_work_budget(monkeypatch, name, r):
    # swept over a built ball in order, every new gallery has its prefix and
    # tail galleries cached, so a gallery of length >= 2 costs one reflection
    # of its tail's last root, one of length 1 none, and only the identity
    # takes the pass from the identity
    cox = CoxeterSystem(_blueprint(name).cox.matrix)
    ball = cox.ball(r)
    seen = _record(monkeypatch, "apply", "reflect", "prefix_root_vectors")
    gals = [G for w in ball for G in min_gal(cox, w)]
    assert len(cox._gallery_cache) == len(gals)
    assert not seen["apply"] and seen["prefix_root_vectors"] == [((),)]
    assert len(seen["reflect"]) == sum(len(G) >= 2 for G in gals)


@pytest.mark.parametrize("name", ["allempty:universal3", "rank3_cycle444.bp"])
def test_weyl_work_budget(monkeypatch, name):
    # on a clean blueprint Weyl walks each element's galleries once: a
    # gallery G of w != e is compared with the gallery of G.word[1:], which
    # checks the descent site at w and the ascent site below it, and only the
    # last layer compares its ascents, whose partner lies past the ball.  The
    # descents are counted here from the ball by reducedness; universal3 has
    # 189 descent galleries and 96 x 2 ascent ones (the loop over every
    # (w, s) site made 570 calls of `min_gal_s` and of `mismatches`)
    bp, r = _blueprint(name), 6
    cox = bp.cox
    ball = cox.ball(r)
    descent = sum(len(min_gal(cox, w)) for w in ball[1:])
    ascent = sum(len(min_gal(cox, w)) for w in ball if len(w) == r
                 for s in range(cox.rank) if is_reduced(cox, (s,) + w))
    seen = _record(monkeypatch, "min_gal_s", owner=bpmod)
    seen.update(_record(monkeypatch, "mismatches", owner=bpmod.Blueprint))
    report = bpmod.validate_weyl(bp, r)
    assert report.ok and not seen["min_gal_s"]
    assert len(seen["mismatches"]) == descent + ascent
    assert [d for _, _, d in seen["mismatches"]].count(-1) == descent
    if name == "allempty:universal3":
        assert (descent, ascent) == (189, 192)


def test_a_word_without_its_tail_gallery_takes_the_cold_pass(monkeypatch):
    # the prefix gallery of 1.2.1.2 is cached but its tail 2.1.2 is not:
    # the pass from the identity builds the one missing gallery, as a fresh
    # system does.  On A2 both links of 1.2.1.2 are cached and the word is
    # refused by one reflection, with nothing cached
    cox = bpmod.builtin("rank2:m6lr").cox
    a2 = bpmod.builtin("rank2:m3").cox
    for system, word in ((cox, (0, 1, 0)), (a2, (0, 1, 0)), (a2, (1, 0, 1))):
        get_gallery(system, word)
    cache = cox._gallery_cache
    assert (0, 1, 0) in cache and (1, 0, 1) not in cache
    seen = _record(monkeypatch, "reflect", "prefix_root_vectors")
    before = set(cache)
    G = get_gallery(cox, (0, 1, 0, 1))
    assert seen["prefix_root_vectors"] == [((0, 1, 0, 1),)]
    assert set(cache) - before == {(0, 1, 0, 1)} and G.head is cache[(0, 1, 0)]
    F = get_gallery(CoxeterSystem(cox.matrix), (0, 1, 0, 1))
    assert G.last == F.last and _roots(G) == _roots(F)

    seen["reflect"].clear()
    seen["prefix_root_vectors"].clear()
    before = dict(a2._gallery_cache)
    with pytest.raises(RgdError, match="not reduced"):
        get_gallery(a2, (0, 1, 0, 1))
    assert a2._gallery_cache == before and not seen["prefix_root_vectors"]
    assert len(seen["reflect"]) == 1


def _outcome(f, *args):
    try:
        return f(*args)
    except RgdError as exc:
        return type(exc), str(exc)


# `default rank2` on the shapes of the moufang benchmark, which no fixture
# has: a 3- or 6-edge with both other edges infinite, the hexagon directed
# either way
MOUFANG = {
    "3_inf_inf": lambda: _rank3(3, inf, inf),
    "6_inf_inf_lr": lambda: _rank3(6, inf, inf, {(1, 0)}),
    "6_inf_inf_rl": lambda: _rank3(6, inf, inf, {(0, 1)}),
}


def _blueprint(name):
    if name in MOUFANG:
        return bpmod.Blueprint(MOUFANG[name](), {}, default="rank2", name=name)
    return bpmod.builtin(name) if ":" in name else bpmod.ingest_path(fixture_path(name))


def assert_relations_match_queries(bp, r=6):
    cox = bp.cox
    for w in cox.ball(r):
        for G in min_gal(cox, w):
            assert _outcome(bp.relations, G) == _outcome(relations_by_query, bp, G), G.label()


@pytest.mark.parametrize("name", BUILTINS + FIXTURE_NAMES)
def test_relations_match_queries_on_fixtures_and_builtins(name):
    assert_relations_match_queries(_blueprint(name))


@pytest.mark.parametrize("name", sorted(MOUFANG))
def test_relations_match_queries_on_moufang_shapes(name):
    assert_relations_match_queries(_blueprint(name))


@pytest.mark.parametrize("name", BUILTINS + FIXTURE_NAMES + sorted(MOUFANG))
def test_screened_columns_match_the_full_loop(name):
    # `answers` screens each column by pairing products, and the oracle
    # sends every pair through `value`.  The default answers are a function
    # of the system, so every system gets them, whatever its blueprint's
    # default.  In ball order each gallery's prefix columns are cached
    cox = _blueprint(name).cox
    local, full = bpmod.LocalRank2(cox), bpmod.LocalRank2(cox)
    nonempty = 0
    for w in cox.ball(6):
        for G in min_gal(cox, w):
            answers = local.answers(G)
            assert answers == local_answers_full(full, G), G.label()
            nonempty += sum(map(bool, answers or ()))
    if name in MOUFANG or (name.startswith("rank2:") and name != "rank2:m2"):
        assert nonempty


def test_screen_pair_value_budget(monkeypatch):
    # (3, inf, inf) at radius 4: each new column, one per gallery, sends
    # only its pairs with 0 < p < 4 to `pair_value`, p = <alpha, beta^vee>
    # <beta, alpha^vee> read here off the expressions (every pair was sent)
    bp = _blueprint("3_inf_inf")
    cox = bp.cox
    gals = [G for w in cox.ball(4) for G in min_gal(cox, w)]
    finite = pairs = 0
    for G in gals[1:]:
        beta = G.roots[-1]
        for alpha in G.roots[:-1]:
            p = (coroot_pairing_by_expression(cox, alpha, beta)
                 * coroot_pairing_by_expression(cox, beta, alpha))
            finite += 0 < p < 4
            pairs += 1
    seen = _record(monkeypatch, "pair_value", owner=bpmod.LocalRank2)
    for G in gals:
        bp.relations(G)
    assert len(seen["pair_value"]) == finite
    assert 0 < finite < pairs


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
    bp = bpmod.Blueprint(cox, entries, default=default, name="bad")
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


def test_default_rank2_work_budget(monkeypatch):
    # rank3_cycle444 at radius 8: common_residue checks its fold by the
    # support of two root images and keeps the gate it folded, and the
    # residue values are vectors, so nearly nothing is normalized (the
    # reflection-word postcondition, the re-fold and `act` made 4 132
    # normal forms and 5 500 folds)
    calls = Counter()
    fold, normal_form = CoxeterSystem.fold, CoxeterSystem.normal_form

    def counted_fold(self, z, limit):
        calls["fold"] += 1
        return fold(self, z, limit)

    def counted_normal_form(self, word):
        calls["normal_form"] += 1
        return normal_form(self, word)

    monkeypatch.setattr(CoxeterSystem, "fold", counted_fold)
    monkeypatch.setattr(CoxeterSystem, "normal_form", counted_normal_form)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--blueprint", fixture_path("rank3_cycle444.bp"), "--radius", "8",
                         "validate"]) == 0
    assert calls["normal_form"] <= 8 and calls["fold"] <= 1_000


def assert_descent_record_matches_points(cox, r):
    # the least negative coordinate of u.x is u[0]; the record holds exactly
    # the words with another one
    cox.ball(3)
    ball = cox.ball(r)
    for u in ball[1:]:
        negative = [s for s, z in enumerate(cox.point(u)) if z < 0]
        assert negative[0] == u[0] and (u in cox._ball_descents) == (len(negative) > 1), u
    assert cox._ball_descents <= set(ball)


@pytest.mark.parametrize("name", BUILTINS + FIXTURE_NAMES)
def test_descent_record_on_fixtures_and_builtins(name):
    assert_descent_record_matches_points(_blueprint(name).cox, 6)


@pytest.mark.parametrize("name", ["A3", "B3", "affine_A2"])
def test_descent_record_to_radius_8(name):
    assert_descent_record_matches_points(RANK3[name](), 8)


def _roots(G):
    return [(root.vec, root.expr) for root in G.roots]


@pytest.mark.parametrize("name", sorted(RANK3))
def test_gallery_roots_match_phi_w_warm_and_cold(name):
    # in ball order each gallery's prefix gallery already knows its roots;
    # in reverse order each gallery walks its links down to the identity
    for order in (1, -1):
        cox = RANK3[name]()
        gals = [G for w in cox.ball(6) for G in min_gal(cox, w)][::order]
        for G in gals:
            assert _roots(G) == [(root.vec, root.expr) for root in phi_w(cox, G.word)], G.word
            assert [root.vec for root in G.roots] == root_vectors_by_apply(cox, G.word)


def test_long_gallery_roots_need_no_recursion():
    # a gallery walks its prefix links in a loop to the first gallery whose
    # roots are known, so no call depth grows with l
    cox = CoxeterSystem(CoxeterMatrix.universal(3))
    word = (0, 1, 2) * 1000
    chain = [get_gallery(cox, word[:k]) for k in range(301)]
    G, H = get_gallery(cox, word[:-1]), get_gallery(cox, word)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        for gallery in [*chain[::-1], G, H]:
            gallery.roots
    finally:
        sys.setrecursionlimit(limit)
    assert [root.vec for root in chain[-1].roots] == root_vectors_by_apply(cox, word[:300])
    assert H.roots[:-1] == G.roots
    assert _roots(H)[-1] == (cox.apply(word[:-1], (0, 0, 1)), (word[:-1], 2))
    assert [root.vec for root in H.roots] == cox.prefix_root_vectors(word)


def test_cb1_falls_back_to_every_prefix_on_a_disagreement(monkeypatch):
    # the immediate-prefix pass decides a clean blueprint alone; on a
    # mutant it stops at the first disagreement, and the every-prefix pass
    # reports what the memo-free loop reports
    calls = Counter()
    report, prefix = bpmod.Report, Gallery.prefix

    def counted_report(name):
        calls["pass"] += 1
        return report(name)

    def counted_prefix(self, m):
        calls["prefix"] += 1
        return prefix(self, m)

    monkeypatch.setattr(bpmod, "Report", counted_report)
    monkeypatch.setattr(Gallery, "prefix", counted_prefix)
    product = _blueprint("rank3_b2_product.bp")
    mutant = bpmod.Blueprint(product.cox, {**product.entries, ((0, 1, 0), 1, 3): (2,)},
                             default=product.default, name=product.name)
    for name, bp, passes in (("b2_full.bp", _blueprint("b2_full.bp"), 1),
                             ("b2_cb1_mutated.bp", _blueprint("b2_cb1_mutated.bp"), 2),
                             ("mutant", mutant, 2)):
        calls.clear()
        got = bpmod.validate_cb1(bp, 6)
        assert calls["pass"] == passes, name
        lookups = calls["prefix"]
        calls.clear()
        want = cb1_full(bp, 6)
        assert got.to_text() == want.to_text() and got.ok == (passes == 1), name
        if name == "mutant":
            # the first pass stopped before looking up a prefix of each gallery
            cox = bp.cox
            assert lookups - calls["prefix"] < sum(
                len(G) >= 2 for w in cox.ball(6) for G in min_gal(cox, w))


def test_gallery_work_budget(monkeypatch):
    # universal3 at radius 8: `min_gal` reads each element's one left
    # descent off the ball's record and computes no point, and CB1 looks up
    # one prefix per gallery of length >= 2 (reading every element's
    # descents off its point took 765 points, and the every-prefix loop
    # 4 614 lookups)
    bp = bpmod.builtin("allempty:universal3")
    cox = bp.cox
    ball = cox.ball(8)
    calls = Counter()
    point, prefix = CoxeterSystem.point, Gallery.prefix

    def counted_point(self, word, face=()):
        calls["point"] += 1
        return point(self, word, face)

    def counted_prefix(self, m):
        calls["prefix"] += 1
        return prefix(self, m)

    monkeypatch.setattr(CoxeterSystem, "point", counted_point)
    monkeypatch.setattr(Gallery, "prefix", counted_prefix)
    gals = [G for w in ball for G in min_gal(cox, w)]
    assert calls["point"] == 0 and calls["prefix"] == 0
    report = bpmod.validate_cb1(bp, 8)
    assert report.ok and calls["point"] == 0
    assert calls["prefix"] == sum(len(G) >= 2 for G in gals)
    assert report.checks == cb1_full(bpmod.builtin("allempty:universal3"), 8).checks


def test_warm_roots_work_budget(monkeypatch):
    # rank3_cycle444 at radius 6: once the galleries of ball(5) have their
    # roots, each longer gallery extends its prefix's by the root its link
    # keeps, with no `apply` and no pass from the identity
    cox = bpmod.ingest_path(fixture_path("rank3_cycle444.bp")).cox
    gals = [G for w in cox.ball(6) for G in min_gal(cox, w)]
    for G in gals:
        if len(G) < 6:
            G.roots
    calls = Counter()
    prefix_root_vectors, apply = CoxeterSystem.prefix_root_vectors, CoxeterSystem.apply

    def counted(self, word):
        calls[len(word)] += 1
        return prefix_root_vectors(self, word)

    def counted_apply(self, word, v):
        calls["apply"] += 1
        return apply(self, word, v)

    monkeypatch.setattr(CoxeterSystem, "prefix_root_vectors", counted)
    monkeypatch.setattr(CoxeterSystem, "apply", counted_apply)
    assert all(len(G.roots) == 6 for G in gals if len(G) == 6)
    assert not calls
