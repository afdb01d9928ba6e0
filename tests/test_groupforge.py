"""Collection engine, consistency certification, subgroups and series."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rgdkit import blueprints as bpmod
from rgdkit import groupforge as gf
from rgdkit.errors import RgdError
from rgdkit.parabolics import build_residue_group
from tests.conftest import fixture_path
from tests.coset_enum import group_order, relators
from tests.lemma_checks import vws_iso_check


def raw_pres(k, rel):
    """Presentation on k generators, with every pair (i, j) in its table."""
    full = {(i, j): rel.get((i, j), ()) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    return gf.PCPres(k, full)


def nilpotency_class(pres):
    return len(gf.lower_central_series(pres)) - 1


A2 = {(1, 3): (2,)}
B2 = {(1, 4): (2, 3)}
G2 = {(1, 3): (2,), (3, 5): (4,), (1, 5): (2, 4), (2, 6): (4,), (1, 6): (2, 3, 4, 5)}


def test_collect_a2_examples():
    p = raw_pres(3, A2)
    # u3 u1 = u1 u3 u2 = u1 u2 u3
    assert p.word_of(p.collect([3, 1])) == (1, 2, 3)
    assert p.collect([1, 1]) == 0
    assert p.collect([2, 2, 3, 3]) == 0


def test_collect_g2_reversal_chain():
    p = raw_pres(6, G2)
    assert p.collect([1, 5, 6]) == p.collect([6, 4, 3, 1])


def test_mul_inv_comm():
    p = raw_pres(3, A2)
    u1, u2, u3 = (p.generator(i) for i in (1, 2, 3))
    assert p.mul(u1, 0) == u1
    assert p.comm(u1, u3) == u2
    assert p.comm(u1, u2) == 0
    x = p.collect([1, 3])
    assert p.mul(x, p.inv(x)) == 0
    # [u3, u1] is the inverse commutator, here again u2 (involution)
    assert p.comm(u3, u1) == u2


def test_g2_commutators(bp_m6):
    pres, rep = gf.build_Uw(bp_m6, bp_m6.cox.longest_element((0, 1)))
    assert rep.ok
    assert pres.word_of(pres.comm(pres.generator(2), pres.generator(6))) == (4,)
    assert pres.word_of(pres.comm(pres.generator(1), pres.generator(6))) == (2, 3, 4, 5)


def test_consistency_builtin_presentations():
    assert raw_pres(3, A2).consistency_check()
    assert raw_pres(4, B2).consistency_check()
    assert raw_pres(6, G2).consistency_check()


def test_consistency_matches_enumeration_oracle_exhaustive():
    """Every valid <=4-generator table: collection consistency iff the
    enumerated group order is exactly 2^k."""
    for r13 in [(), (2,)]:
        for r24 in [(), (3,)]:
            for r14 in [(), (2,), (3,), (2, 3)]:
                rel = {(1, 3): r13, (2, 4): r24, (1, 4): r14}
                p = raw_pres(4, rel)
                order = group_order(4, relators(p))
                assert p.consistency_check() == (order == 16), (rel, order)
    for r13 in [(), (2,)]:
        p = raw_pres(3, {(1, 3): r13})
        assert p.consistency_check() == (group_order(3, relators(p)) == 8)


def test_inconsistent_table_has_witness():
    p = raw_pres(4, {(1, 3): (2,), (2, 4): (3,)})
    assert not p.consistency_check()
    assert p.inconsistency_witness
    assert group_order(4, relators(p)) < 16


def test_mutated_b2_table_is_consistent_but_wrong():
    # the order-16 check alone cannot see the wrong Moufang value
    p = raw_pres(4, {(1, 4): (2,)})
    assert p.consistency_check()
    assert group_order(4, relators(p)) == 16


@pytest.mark.parametrize("name,length,order", [
    ("rank2:m3", 3, 8), ("rank2:m4", 4, 16), ("rank2:m6lr", 6, 64),
    ("rank2:m6rl", 6, 64), ("rank2:m2", 2, 4),
])
def test_build_uw_builtin(name, length, order):
    bp = bpmod.builtin(name)
    w0 = bp.cox.longest_element((0, 1))
    assert len(w0) == length
    pres, rep = gf.build_Uw(bp, w0)
    assert pres.consistent and rep.ok
    assert pres.order == order


def test_build_uw_trivial(bp_universal3):
    pres, rep = gf.build_Uw(bp_universal3, ())
    assert rep.ok and pres.order == 1


def test_build_uw_orders_match_enumeration(bp_m4, bp_m6):
    for bp in (bp_m4, bp_m6):
        pres, _ = gf.build_Uw(bp, bp.cox.longest_element((0, 1)))
        assert group_order(pres.k, relators(pres)) == pres.order


def test_subgroup_closure():
    p = raw_pres(3, A2)
    assert gf.subgroup_closure(p, []) == {0}
    whole = gf.subgroup_closure(p, [p.generator(i) for i in (1, 2, 3)])
    assert len(whole) == 8
    # u2 = [u1, u3], so u1 and u3 già generate everything
    assert len(gf.subgroup_closure(p, [p.generator(1), p.generator(3)])) == 8


def test_lower_central_series():
    p = raw_pres(3, A2)
    series = gf.lower_central_series(p)
    assert [len(g) for g in series] == [8, 2, 1]
    assert nilpotency_class(p) == 2

    p2 = raw_pres(3, {})
    assert nilpotency_class(p2) == 1

    p6 = raw_pres(6, G2)
    assert nilpotency_class(p6) == 3  # regression value, computed by this engine


def series_by_elements(pres):
    """The element-wise definition: gamma_{i+1} is the normal closure of
    [x, u_j] for every element x of gamma_i."""
    gens = [pres.generator(i) for i in range(1, pres.k + 1)]
    series = [set(range(pres.order))]
    while len(series[-1]) > 1:
        series.append(gf.normal_closure(pres, {pres.comm(x, g) for x in series[-1] for g in gens}))
    return series


def test_lower_central_series_matches_the_element_definition():
    presentations = [raw_pres(3, A2), raw_pres(4, B2), raw_pres(6, G2)]
    for name in ("rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl"):
        bp = bpmod.builtin(name)
        presentations += [gf.build_Uw(bp, w)[0] for w in bp.cox.ball(6)]
    bp = bpmod.ingest_path(fixture_path("rank3_g2_product.bp"))
    presentations += [gf.build_Uw(bp, w)[0] for w in bp.cox.ball(4)]
    assert max(len(series_by_elements(p)) for p in presentations) == 4  # class 3 occurs
    for p in presentations:
        assert [set(g) for g in gf.lower_central_series(p)] == series_by_elements(p)


def test_lower_central_series_commutes_generators_not_elements(monkeypatch):
    # U_w of the all-empty universal3 table with l(w) = 12 is elementary
    # abelian of order 2^12; the element-wise definition makes 12 * 2^12
    # commutators, the generator form at most k^2
    bp = bpmod.builtin("allempty:universal3")
    pres, _ = gf.build_Uw(bp, tuple(i % 3 for i in range(12)))
    calls = []
    comm = gf.PCPres.comm
    monkeypatch.setattr(gf.PCPres, "comm", lambda self, x, y: calls.append(1) or comm(self, x, y))
    assert [len(g) for g in gf.lower_central_series(pres)] == [1 << 12, 1]
    assert len(calls) <= pres.k ** 2


def test_class_one_iff_every_square_trivial():
    # sanity cross-check: exponent 2 is equivalent to being abelian here
    for k, rel in ((3, {}), (3, A2), (4, B2), (6, G2)):
        p = raw_pres(k, rel)
        abelian = nilpotency_class(p) <= 1
        exponent_two = all(p.mul(x, x) == 0 for x in range(p.order))
        assert abelian == exponent_two


def test_retraction_and_tau_image_checks_cannot_fail():
    # u_1 = u_s and u_k = u_t lie in no relation value, so U = <u_s> x| N_R,
    # and tau_s (tau_t) maps no other root to alpha_s (alpha_t): the residue
    # verdict counts both checks without running them
    for name in ("rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl"):
        bp = bpmod.builtin(name)
        for s, t in ((0, 1), (1, 0)):
            rg = build_residue_group(bp, s, t)
            k = rg.pres.k
            for value in rg.pres.rel.values():
                assert 1 not in value and k not in value, (name, s)
            assert 1 not in rg.tau_maps[rg.s].values()
            assert k not in rg.tau_maps[rg.t].values()


def test_vws_iso_rank2(bp_m3, bp_m4, bp_m6, bp_m6_mirror):
    for bp, w in ((bp_m3, (0, 1, 0)), (bp_m4, (0, 1, 0, 1)),
                  (bp_m6, (0, 1, 0, 1, 0, 1)), (bp_m6_mirror, (0, 1, 0, 1, 0, 1))):
        for s in (0, 1):
            rep = vws_iso_check(bp, w, s)
            assert rep.ok, rep.to_text()


def test_vws_iso_product(bp_product_b2):
    cox = bp_product_b2.cox
    for w, s in (((0, 1, 0, 1), 0), ((0, 2, 1, 0, 1), 0), ((2, 0, 1), 2)):
        rep = vws_iso_check(bp_product_b2, cox.normal_form(w), s)
        assert rep.ok, rep.to_text()


def test_vws_universal(bp_universal3):
    # w = st: V_{w,s} = <u_{s.alpha_t}> of order 2, isomorphic to U_t
    rep = vws_iso_check(bp_universal3, (0, 1), 0)
    assert rep.ok
    pres_u, _ = gf.build_Uw(bp_universal3, (0, 1))
    pres_t, _ = gf.build_Uw(bp_universal3, (1,))
    assert pres_u.k == 2 and pres_t.order == 2


def test_tail_generators_span_the_masks_without_u1(bp_m4, bp_m6):
    # why vws_iso_check needs no subgroup closure for V_{w,s}: relation
    # values for i, j >= 2 lie strictly between i and j, so in a consistent
    # presentation u_2 ... u_k generate exactly the even masks
    presentations = [raw_pres(3, A2), raw_pres(4, B2), raw_pres(6, G2)]
    for bp in (bp_m4, bp_m6):
        presentations.append(gf.build_Uw(bp, bp.cox.longest_element((0, 1)))[0])
    for p in presentations:
        assert p.consistency_check()
        tail = gf.subgroup_closure(p, [p.generator(i) for i in range(2, p.k + 1)])
        assert tail == set(range(0, p.order, 2))


def test_vws_requires_descent(bp_m3):
    with pytest.raises(RgdError):
        vws_iso_check(bp_m3, (0, 1), 1)


def test_collect_split_compatibility_random():
    rng = random.Random(7)
    for rel in (A2, B2, G2):
        p = raw_pres(max(max(k) for k in rel), rel)
        for _ in range(300):
            word = [rng.randint(1, p.k) for _ in range(rng.randint(0, 12))]
            cut = rng.randint(0, len(word))
            whole = p.collect(word)
            assert whole == p.mul(p.collect(word[:cut]), p.collect(word[cut:]))
            assert p.collect(p.word_of(whole)) == whole


@given(st.lists(st.integers(1, 6), max_size=14), st.lists(st.integers(1, 6), max_size=8))
@settings(max_examples=80, deadline=None)
def test_collect_is_homomorphic_on_words(w1, w2):
    p = raw_pres(6, G2)
    assert p.collect(w1 + w2) == p.mul(p.collect(w1), p.collect(w2))


@given(st.lists(st.integers(1, 6), max_size=10), st.lists(st.integers(1, 6), max_size=10),
       st.lists(st.integers(1, 6), max_size=10))
@settings(max_examples=60, deadline=None)
def test_mul_associative(wa, wb, wc):
    p = raw_pres(6, G2)
    a, b, c = p.collect(wa), p.collect(wb), p.collect(wc)
    assert p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))
