"""Residue automorphisms tau_s: each displayed computation line of the
rank-2 case analysis is reproduced as a named check, then the truncation
maps and gallery independence."""

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import parabolics as pb
from rgdkit import roots as rt
from rgdkit.errors import RgdError
from rgdkit.galleries import get_gallery, min_gal_s, rj_gallery
from rgdkit.groupforge import presentation_for_gallery
from tests import lemma_checks as lc
from tests.conftest import fixture_path
from tests.oracles import residue_roots


def residue_group(bp, s):
    return pb.build_residue_group(bp, s, 1 - s)


def f_of(rg):
    return lambda x: rg.us_tau(x)


# ---------------------------------------------------------------------------
# A1 x A1


def test_tausv_a1xa1_line(bp_m2):
    rg = residue_group(bp_m2, 0)
    p = rg.pres
    u_beta = p.generator(2)
    # s fixes the opposite wall and u_s commutes with u_beta
    assert rg.tau(rg.s, u_beta) == u_beta
    assert p.comm(p.generator(1), u_beta) == 0
    f = f_of(rg)
    assert f(u_beta) == u_beta
    assert f(f(f(u_beta))) == u_beta


def test_tau_refuses_elements_with_a_u_gen_component(bp_m4):
    # tau_gen is defined on the elements without u_gen, for both generators
    rg = residue_group(bp_m4, 0)
    p = rg.pres
    for gen in (rg.s, rg.t):
        u = p.generator(rg.position[gen])
        with pytest.raises(RgdError):
            rg.tau(gen, p.mul(p.generator(2), u))
        assert rg.tau(gen, p.generator(2)) == p.generator(rg.tau_maps[gen][2])


# ---------------------------------------------------------------------------
# A2: Phi(R) = {alpha_s, delta, epsilon}, s.epsilon = delta


def test_tausv_a2_epsilon_line(bp_m3):
    rg = residue_group(bp_m3, 0)
    p = rg.pres
    delta, eps = p.generator(2), p.generator(3)
    f = f_of(rg)
    assert rg.tau_maps[rg.s][3] == 2  # s.epsilon = delta
    assert f(eps) == delta
    assert f(delta) == p.collect([2, 3])  # u_s.u_delta' = u_delta u_eps
    assert f(p.collect([2, 3])) == eps
    assert f(f(f(eps))) == eps


def test_tausv_a2_delta_line(bp_m3):
    rg = residue_group(bp_m3, 0)
    p = rg.pres
    delta, eps = p.generator(2), p.generator(3)
    f = f_of(rg)
    assert f(f(f(delta))) == delta
    assert f(f(delta)) == eps  # (u_s tau_s)^3 . delta = u_s tau_s . eps


# ---------------------------------------------------------------------------
# B2: Phi(R) = {alpha_s, delta, gamma, epsilon}; s.gamma = gamma, s.eps = delta


def test_tausv_b2_fixed_wall_line(bp_m4):
    rg = residue_group(bp_m4, 0)
    p = rg.pres
    gamma = p.generator(3)
    assert rg.tau_maps[rg.s][3] == 3
    f = f_of(rg)
    assert f(gamma) == gamma
    assert f(f(f(gamma))) == gamma


def test_tausv_b2_epsilon_line(bp_m4):
    rg = residue_group(bp_m4, 0)
    p = rg.pres
    delta, eps = p.generator(2), p.generator(4)
    assert rg.tau_maps[rg.s][4] == 2
    f = f_of(rg)
    assert f(eps) == delta
    # u_s tau_s . delta = u_delta u_gamma u_eps
    assert f(delta) == p.collect([2, 3, 4])
    assert f(p.collect([2, 3, 4])) == eps
    assert f(f(f(eps))) == eps


def test_tausv_b2_only_epsilon_moves(bp_m4):
    rg = residue_group(bp_m4, 0)
    p = rg.pres
    us = p.generator(1)
    for i in (2, 3):
        assert p.comm(us, p.generator(i)) == 0
    assert p.comm(us, p.generator(4)) != 0


def test_tausv_b2_delta_line(bp_m4):
    rg = residue_group(bp_m4, 0)
    p = rg.pres
    delta, eps = p.generator(2), p.generator(4)
    f = f_of(rg)
    assert f(f(delta)) == eps
    assert f(f(f(delta))) == delta


# ---------------------------------------------------------------------------
# G2, wall alpha_s = first crossed root (u_i indexing along the gallery)


@pytest.fixture(scope="module")
def g2_low(bp_m6):
    return residue_group(bp_m6, 0)


def test_tausv_g2_low_root_map(g2_low):
    assert g2_low.tau_maps[g2_low.s] == {2: 6, 3: 5, 4: 4, 5: 3, 6: 2}


def test_tausv_g2_low_u4(g2_low):
    p, f = g2_low.pres, f_of(g2_low)
    u4 = p.generator(4)
    assert f(u4) == u4
    assert f(f(f(u4))) == u4


def test_tausv_g2_low_u6(g2_low):
    p, f = g2_low.pres, f_of(g2_low)
    u6, u2 = p.generator(6), p.generator(2)
    assert f(u6) == u2
    assert f(u2) == p.collect([2, 3, 4, 5, 6])
    mid = p.collect([2, 3, 4, 5, 6])
    # the displayed twelve-letter word collapses back to u6
    assert f(mid) == p.collect([2, 3, 4, 5, 6, 2, 4, 5, 4, 2, 3, 2])
    assert p.collect([2, 3, 4, 5, 6, 2, 4, 5, 4, 2, 3, 2]) == p.collect([2, 3, 4, 6, 3, 2])
    assert p.collect([2, 3, 4, 6, 3, 2]) == u6
    assert f(f(f(u6))) == u6


def test_tausv_g2_low_u2(g2_low):
    p, f = g2_low.pres, f_of(g2_low)
    u2, u6 = p.generator(2), p.generator(6)
    assert f(f(u2)) == u6
    assert f(f(f(u2))) == u2


def test_tausv_g2_low_u5(g2_low):
    p, f = g2_low.pres, f_of(g2_low)
    u5 = p.generator(5)
    assert f(u5) == p.collect([2, 3])
    assert f(p.collect([2, 3])) == p.collect([2, 3, 4, 5, 6, 2, 4, 5])
    assert p.collect([2, 3, 4, 5, 6, 2, 4, 5]) == p.collect([3, 4, 6])
    assert f(p.collect([3, 4, 6])) == p.collect([2, 4, 5, 4, 2])
    assert p.collect([2, 4, 5, 4, 2]) == u5
    assert f(f(f(u5))) == u5


def test_tausv_g2_low_u3(g2_low):
    p, f = g2_low.pres, f_of(g2_low)
    u3 = p.generator(3)
    assert f(u3) == p.collect([2, 4, 5])
    assert f(f(p.collect([2, 4, 5]))) == p.collect([6, 4, 3, 4, 6])
    assert p.collect([6, 4, 3, 4, 6]) == u3
    assert f(f(f(u3))) == u3


# ---------------------------------------------------------------------------
# G2, wall alpha_s = last crossed root (the other orientation of the hexagon)


@pytest.fixture(scope="module")
def g2_high(bp_m6):
    return residue_group(bp_m6, 1)


def test_tausv_g2_high_root_map(g2_high):
    # in the gallery starting with t, positions renumber: old u_i sits at
    # position 7-i, so s.beta_1 = beta_5, s.beta_2 = beta_4, s.beta_3 = beta_3
    # becomes the same symmetric position map anchored at the new wall
    assert g2_high.tau_maps[g2_high.s] == {2: 6, 3: 5, 4: 4, 5: 3, 6: 2}
    old = lambda i: 7 - i
    assert g2_high.tau_maps[g2_high.s][old(1)] == old(5)
    assert g2_high.tau_maps[g2_high.s][old(2)] == old(4)
    assert g2_high.tau_maps[g2_high.s][old(3)] == old(3)


def _old(p, indices):
    """Collect a word given in the low-orientation numbering u_1..u_6."""
    return p.collect([7 - i for i in indices])


def test_tausv_g2_high_u3(g2_high):
    p, f = g2_high.pres, f_of(g2_high)
    u3 = _old(p, [3])
    assert f(u3) == u3
    assert f(f(f(u3))) == u3


def test_tausv_g2_high_u1(g2_high):
    p, f = g2_high.pres, f_of(g2_high)
    u1, u5 = _old(p, [1]), _old(p, [5])
    assert f(u1) == u5
    assert f(u5) == _old(p, [1, 2, 3, 4, 5])
    assert f(_old(p, [1, 2, 3, 4, 5])) == _old(p, [5, 4, 3, 2, 4, 1, 2, 3, 4, 5])
    assert _old(p, [5, 4, 3, 2, 4, 1, 2, 3, 4, 5]) == _old(p, [5, 4, 1, 2, 5])
    assert _old(p, [5, 4, 1, 2, 5]) == _old(p, [4, 1, 2, 4, 2])
    assert _old(p, [4, 1, 2, 4, 2]) == u1
    assert f(f(f(u1))) == u1


def test_tausv_g2_high_u5(g2_high):
    p, f = g2_high.pres, f_of(g2_high)
    u1, u5 = _old(p, [1]), _old(p, [5])
    assert f(f(u5)) == u1
    assert f(f(f(u5))) == u5


def test_tausv_g2_high_u2(g2_high):
    p, f = g2_high.pres, f_of(g2_high)
    u2, u4 = _old(p, [2]), _old(p, [4])
    assert f(u2) == u4
    assert f(u4) == _old(p, [2, 4])
    assert f(_old(p, [2, 4])) == _old(p, [4, 2, 4])
    assert _old(p, [4, 2, 4]) == u2
    assert f(f(f(u2))) == u2


def test_tausv_g2_high_u4(g2_high):
    p, f = g2_high.pres, f_of(g2_high)
    u2, u4 = _old(p, [2]), _old(p, [4])
    assert f(f(u4)) == u2
    assert f(f(f(u4))) == u4


# ---------------------------------------------------------------------------
# full reports and the remaining operations


@pytest.mark.parametrize("bp_name,s", [
    ("bp_m2", 0), ("bp_m3", 0), ("bp_m4", 0),
    ("bp_m6", 0), ("bp_m6", 1), ("bp_m6_mirror", 0), ("bp_m6_mirror", 1),
])
def test_tau_on_residue_reports(bp_name, s, request):
    bp = request.getfixturevalue(bp_name)
    rg = residue_group(bp, s)
    report = pb.tau_on_residue(rg)
    assert report.ok, report.to_text()


@pytest.mark.parametrize("bp_name,s", [
    ("bp_m2", 0), ("bp_m3", 0), ("bp_m4", 0), ("bp_m6", 0), ("bp_m6", 1),
])
def test_ustausv_identity(bp_name, s, request):
    bp = request.getfixturevalue(bp_name)
    rg = residue_group(bp, s)
    for alpha in rg.gallery.roots[1:]:
        assert pb.ustausV_identity_check(rg, alpha)


def test_residue_groups_on_product_fixture(bp_product_b2):
    # residues of both spherical types sit on the wall of generator 1
    for t in (1, 2):
        rg = pb.build_residue_group(bp_product_b2, 0, t)
        assert pb.tau_on_residue(rg).ok
        for alpha in rg.gallery.roots[1:]:
            assert pb.ustausV_identity_check(rg, alpha)


RESIDUE_BLUEPRINTS = [f"rank2:{v}" for v in ("m2", "m3", "m4", "m6lr", "m6rl")] + [
    f"rank3_{v}_product.bp" for v in ("a2", "b2", "g2")]


@pytest.mark.parametrize("name", RESIDUE_BLUEPRINTS)
def test_residue_gallery_crosses_the_residue_walls(name):
    # the gallery of r_J starting with s crosses exactly Phi(R), alpha_s first
    bp = (bpmod.ingest_path(fixture_path(name)) if name.endswith(".bp")
          else bpmod.builtin(name))
    cox = bp.cox
    pairs = [(s, t) for s in range(cox.rank) for t in range(cox.rank)
             if s != t and cox.matrix.m(s, t) != float("inf")]
    assert pairs
    for s, t in pairs:
        rg = pb.build_residue_group(bp, s, t)
        assert rg.gallery.word[0] == s
        assert set(rg.gallery.roots) == set(residue_roots(cox, rg.residue))


ROOT_DEFINITION_BLUEPRINTS = [f"rank2:{v}" for v in ("m2", "m3", "m4", "m6lr", "m6rl")] + [
    f"{v}.bp" for v in ("b2_full", "g2_full", "rank3_a2_product", "rank3_b2_product",
                        "rank3_g2_product", "rank3_cycle444", "rightangled3_allempty")]


@pytest.mark.parametrize("name", ROOT_DEFINITION_BLUEPRINTS)
def test_residue_group_matches_the_root_definitions(name):
    # ResidueGroup reads alpha_s, alpha_t, the tau maps and U_w off gallery
    # positions; on both galleries of r_J of every spherical pair, each agrees
    # with its definition through roots
    bp = (bpmod.ingest_path(fixture_path(name)) if name.endswith(".bp")
          else bpmod.builtin(name))
    cox = bp.cox
    pairs = [(s, t) for s in range(cox.rank) for t in range(cox.rank)
             if s != t and cox.matrix.m(s, t) != float("inf")]
    assert pairs
    for s, t in pairs:
        G = rj_gallery(cox, s, t)
        rg = pb.ResidueGroup(bp, presentation_for_gallery(bp, G))
        assert (rg.s, rg.t) == (s, t)
        for w in cox.parabolic_elements((s, t)):
            positions = [rg.pres.position(root) for root in rt.phi_w(cox, w)]
            assert rg.mask(w) == sum(1 << (p - 1) for p in positions), (s, t, w)
        for gen in (s, t):
            alpha = rt.simple_root(cox, gen)
            assert rg.position[gen] == rg.pres.position(alpha)
            assert rg.tau_maps[gen] == {i: G.position(rt.act(cox, (gen,), root))
                                        for i, root in enumerate(G.roots, start=1)
                                        if root != alpha}


def test_gallery_independence_trivial(bp_m3):
    # single gallery in Min_s: vacuously equal
    alpha = rt.act(bp_m3.cox, (0,), rt.simple_root(bp_m3.cox, 1))
    rep = lc.gallery_independence_check(bp_m3, (0, 1, 0), (0, 1, 0), 0, alpha)
    assert rep.ok


def test_gallery_independence_untestable_instance_is_skipped(bp_m3, monkeypatch):
    # ambients without the image roots leave the pair untested: a skip, not a pass
    from rgdkit.groupforge import PCPres
    from rgdkit.reports import Report

    cox = bp_m3.cox
    monkeypatch.setattr(lc, "build_Uw",
                        lambda bp, w: (PCPres(0, {}, gallery=get_gallery(cox, ())), Report("empty")))
    w = (0, 1, 0)
    alpha = rt.phi_w(bp_m3.cox, w)[2]  # M^G(1, 3) = (2,) on the gallery 1.2.1
    rep = lc.gallery_independence_check(bp_m3, w, w, 0, alpha)
    assert rep.ok and rep.skipped == 1
    assert rep.notes[0].startswith("untestable instance: no common ambient for 1.2.1")


def test_gallery_independence_product(bp_product_b2):
    """Two distinct galleries through the quadrangle residue agree."""
    cox = bp_product_b2.cox
    w = cox.normal_form((0, 2, 1, 0, 1))
    gals = min_gal_s(cox, w, 0)
    assert len(gals) >= 2
    for alpha in gals[0].roots[1:]:
        rep = lc.gallery_independence_check(bp_product_b2, w, w, 0, alpha)
        assert rep.ok, rep.to_text()
        assert rep.checks > 1
    # across two different elements sharing the residue
    w2 = cox.normal_form((0, 1))
    shared = [a for a in gals[0].roots[1:]
              if any(a == b for b in min_gal_s(cox, w2, 0)[0].roots)]
    for alpha in shared:
        rep = lc.gallery_independence_check(bp_product_b2, w, w2, 0, alpha)
        assert rep.ok, rep.to_text()


def test_tau_on_truncation_universal(bp_universal3):
    cox = bp_universal3.cox
    rep = lc.tau_on_truncation(bp_universal3, (1,), 0)
    assert rep.ok
    rep = lc.tau_on_truncation(bp_universal3, (1, 0, 2), 0)
    assert rep.ok
    with pytest.raises(Exception):
        lc.tau_on_truncation(bp_universal3, (0, 1), 0)


def test_tau_on_truncation_rank2(bp_m3, bp_m6):
    for bp in (bp_m3, bp_m6):
        rep = lc.tau_on_truncation(bp, (1, 0), 0)
        assert rep.ok, rep.to_text()


def test_tau_on_truncation_product(bp_product_b2):
    cox = bp_product_b2.cox
    for w, s in (((1, 0, 1), 0), ((2, 1), 0), ((1, 0, 2), 0)):
        rep = lc.tau_on_truncation(bp_product_b2, cox.normal_form(w), s)
        assert rep.ok, rep.to_text()


def test_tau_squared_on_roots(bp_m6):
    cox = bp_m6.cox
    for s in (0, 1):
        for root in rt.phi_w(cox, cox.longest_element((0, 1))):
            if root == rt.simple_root(cox, s):
                continue
            image = rt.act(cox, (s,), root)
            assert rt.act(cox, (s,), image) == root


def test_tau_conjugation_identity_universal(bp_universal3):
    cox = bp_universal3.cox
    # beta beyond the wall of generator 1: beta = 2.alpha_1 (non-prenilpotent pair)
    beta = rt.act(cox, (1,), rt.simple_root(cox, 0))
    assert lc.tau_conjugation_check(bp_universal3, 0, beta, radius=5) == "verified"


def test_tau_conjugation_identity_rightangled(bp_rightangled3):
    cox = bp_rightangled3.cox
    beta = rt.act(cox, (2,), rt.simple_root(cox, 0))
    assert lc.tau_conjugation_check(bp_rightangled3, 0, beta, radius=5) == "verified"
