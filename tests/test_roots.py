"""Half-space roots: membership, intervals, prenilpotency, walls."""

import itertools
from math import inf

import pytest

from rgdkit import roots as rt
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.errors import RgdError
from rgdkit.galleries import get_gallery, min_gal
from tests.oracles import MASKS, interval_oracle, member, prenilpotent, residue_roots


def cox_dihedral(m):
    return CoxeterSystem(CoxeterMatrix.dihedral(m, direction=(1, 0) if m == 6 else None))


def cox_universal(n):
    return CoxeterSystem(CoxeterMatrix.universal(n))


def test_member_examples():
    cox = cox_dihedral(3)
    a0 = rt.simple_root(cox, 0)
    # positive roots contain the identity
    for root in rt.phi_w(cox, (0, 1, 0)):
        assert member(cox, (), root)
    assert not member(cox, (0,), a0)
    # m=3: st lies outside s.alpha_t
    s_at = rt.act(cox, (0,), rt.simple_root(cox, 1))
    assert not member(cox, (0, 1), s_at)


def test_describe_names_only_real_generators():
    cox = cox_dihedral(3)
    s_at = rt.act(cox, (0,), rt.simple_root(cox, 1))
    assert s_at.describe() == "(1|2)[1,1]"
    assert rt.simple_root(cox, 0).describe() == "(e|1)[1,0]"
    # no provenance: coordinates only, no generator 0
    assert rt.Root((1, 1)).describe() == "[1,1]"


def opposite(cox, alpha):
    """The root -alpha, with the expression (w s, s) of alpha = (w, s)."""
    word, s = rt.expression(cox, alpha)
    return rt.Root(tuple(-c for c in alpha.vec), (cox.normal_form(word + (s,)), s))


def test_opposite():
    cox = cox_dihedral(3)
    a0 = rt.simple_root(cox, 0)
    neg = opposite(cox, a0)
    assert neg.vec == tuple(-c for c in a0.vec)
    assert opposite(cox, neg) == a0
    for w in cox.ball(4):
        assert member(cox, w, a0) != member(cox, w, neg)


def test_reflection_word():
    cox = cox_dihedral(3)
    assert rt.reflection_word(cox, rt.simple_root(cox, 0)) == (0,)
    s_at = rt.act(cox, (0,), rt.simple_root(cox, 1))
    assert rt.reflection_word(cox, s_at) == cox.normal_form((0, 1, 0))
    # r_alpha swaps alpha and -alpha, and is an involution on roots
    for root in rt.phi_w(cox, (0, 1, 0)):
        refl = rt.reflection_word(cox, root)
        assert rt.act(cox, refl, root).vec == opposite(cox, root).vec
        assert rt.act(cox, refl, rt.act(cox, refl, root)) == root


def test_phi_w():
    cox = cox_dihedral(3)
    assert rt.phi_w(cox, ()) == []
    crossed = rt.phi_w(cox, (0, 1, 0))
    assert len(crossed) == 3
    assert crossed[0] == rt.simple_root(cox, 0)
    assert crossed[1] == rt.act(cox, (0,), rt.simple_root(cox, 1))
    assert crossed[2] == rt.simple_root(cox, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_phi_w_counts_and_reduced_word_independence(m):
    cox = cox_dihedral(m)
    for w in cox.ball(min(6, m)):
        sets = {frozenset(r.vec for r in G.roots) for G in min_gal(cox, w)}
        assert len(sets) == 1
        assert len(rt.phi_w(cox, w)) == len(w)


def test_pair_order():
    cox4 = cox_dihedral(4)
    assert rt.pair_order(cox4, rt.simple_root(cox4, 0), rt.simple_root(cox4, 1)) == 4
    u2 = cox_universal(2)
    a, b = rt.simple_root(u2, 0), rt.act(u2, (0,), rt.simple_root(u2, 1))
    assert rt.pair_order(u2, a, b) == inf
    cox3 = cox_dihedral(3)
    a, b = rt.simple_root(cox3, 0), rt.act(cox3, (0,), rt.simple_root(cox3, 1))
    assert rt.pair_order(cox3, a, b) == 3
    with pytest.raises(RgdError):
        rt.pair_order(cox3, a, a)


def test_prenilpotent():
    cox3 = cox_dihedral(3)
    assert prenilpotent(cox3, rt.simple_root(cox3, 0), rt.simple_root(cox3, 1))
    u2 = cox_universal(2)
    a0 = rt.simple_root(u2, 0)
    s_at = rt.act(u2, (0,), rt.simple_root(u2, 1))
    assert prenilpotent(u2, a0, s_at)
    # beta = t.alpha_s: -alpha_s is contained in beta, so the quadrant
    # (-alpha)^(-beta) is empty (opposite-facing rays on the tree)
    beta = rt.act(u2, (1,), a0)
    assert u2.vec_sign(beta.vec) > 0
    assert not prenilpotent(u2, a0, beta)


def test_prenilpotent_radius_rule_validated(bp_rightangled3, bp_product_b2):
    # the bounded search radius is compared against radius + 4 on all pairs
    # of positive roots appearing in small balls of the test systems
    # (universal rank 2 and right-angled rank 3 keep deep balls small; the
    # dense rank-3 check runs on the finite product type)
    cases = [(cox_universal(2), 4), (bp_rightangled3.cox, 2), (bp_product_b2.cox, 4)]
    for cox, depth_bound in cases:
        seen = {}
        for w in cox.ball(depth_bound):
            for root in rt.phi_w(cox, w):
                seen[root.vec] = root
        roots = list(seen.values())
        for a, b in itertools.combinations(roots, 2):
            if a.vec == tuple(-c for c in b.vec):
                continue
            base = rt.depth(cox, a) + rt.depth(cox, b) + 2
            assert prenilpotent(cox, a, b) == \
                prenilpotent(cox, a, b, radius=base + 4)


def test_noncrossing_sign_matches_bounded_search(bp_rightangled3, bp_product_b2):
    # the exact criterion behind interval(): for positive roots,
    # prenilpotency is equivalent to crossing walls (pairing product < 4) or
    # same-facing nested walls (<alpha, beta^vee> > 0); compared against the
    # chamber-search definition
    cases = [(cox_universal(2), 3), (bp_rightangled3.cox, 2), (bp_product_b2.cox, 4)]
    for cox, depth_bound in cases:
        seen = {}
        for w in cox.ball(depth_bound):
            for root in rt.phi_w(cox, w):
                seen[root.vec] = root
        roots = list(seen.values())
        for a, b in itertools.combinations(roots, 2):
            if a.vec == tuple(-c for c in b.vec):
                continue
            p = rt.coroot_pairing(cox, a, b) * rt.coroot_pairing(cox, b, a)
            criterion = p < 4 or rt.coroot_pairing(cox, a, b) > 0
            assert prenilpotent(cox, a, b) == criterion


def test_interval_examples(bp_rightangled3):
    cox3 = cox_dihedral(3)
    G = get_gallery(cox3, (0, 1, 0))
    b1, b2, b3 = G.roots
    assert rt.interval(cox3, b1, b3, G) == [b1, b2, b3]
    assert rt.open_interval(cox3, b1, b3, G) == [b2]
    assert rt.interval(cox3, b1, b1, G) == [b1]

    cox6 = cox_dihedral(6)
    G6 = get_gallery(cox6, (0, 1, 0, 1, 0, 1))
    inner = rt.open_interval(cox6, G6.root(2), G6.root(6), G6)
    assert inner == [G6.root(3), G6.root(4), G6.root(5)]
    assert G6.root(4) in inner  # the hexagon constraint set sits inside

    # gallery 3.1.3 crosses a nested pair of infinite order
    cox = bp_rightangled3.cox
    H = get_gallery(cox, (2, 0, 2))
    assert rt.open_interval(cox, H.root(1), H.root(3), H) == [H.root(2)]


def test_interval_empty_for_commuting_pair():
    cox2 = cox_dihedral(2)
    G = get_gallery(cox2, (0, 1))
    assert rt.open_interval(cox2, G.root(1), G.root(2), G) == []
    oracle = interval_oracle(cox2, G.root(1), G.root(2), 2)
    assert oracle == {G.root(1), G.root(2)}


@pytest.mark.parametrize("m,r", [(2, 4), (3, 4), (4, 5), (6, 7)])
def test_interval_matches_oracle_dihedral(m, r):
    cox = cox_dihedral(m)
    w0 = cox.longest_element((0, 1))
    G = get_gallery(cox, cox.normal_form(w0))
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            cone = rt.interval(cox, G.root(i), G.root(j), G)
            oracle = interval_oracle(cox, G.root(i), G.root(j), r)
            assert set(cone) == oracle


def test_interval_matches_oracle_universal3():
    cox = cox_universal(3)
    for w in cox.ball(4):
        G = get_gallery(cox, w)
        for i in range(1, len(w) + 1):
            for j in range(i, len(w) + 1):
                cone = rt.interval(cox, G.root(i), G.root(j), G)
                oracle = interval_oracle(cox, G.root(i), G.root(j), 6)
                assert set(cone) == oracle


def test_membership_masks_are_owned_by_the_system():
    cox, twin = cox_dihedral(3), cox_dihedral(3)
    G = get_gallery(cox, (0, 1, 0))
    interval_oracle(cox, G.root(1), G.root(3), 3)
    assert list(MASKS[cox]) == [3]
    assert twin not in MASKS
    assert not hasattr(cox, "_mask_cache") and not hasattr(rt, "_MASK_CACHE")


def test_halfspace_convexity():
    cox = cox_dihedral(6)
    a = rt.act(cox, (0,), rt.simple_root(cox, 1))
    inside = [w for w in cox.ball(5) if member(cox, w, a)]
    for u in inside:
        for v in inside:
            # walk one minimal gallery from u to v and stay inside alpha
            diff = cox.normal_form(tuple(reversed(u)) + v)
            c = u
            for letter in diff:
                c = cox.normal_form(cox.right_mult(c, letter))
            assert c == v


def test_stabilizes_residue_on_wall():
    cox = cox_universal(3)
    # universal type has no spherical rank-2 residues at all
    for s, t in itertools.combinations(range(3), 2):
        assert cox.matrix.m(s, t) == inf
        with pytest.raises(RgdError):
            rt.residue_at(cox, (), (s, t))

    cox3 = cox_dihedral(3)
    refl = rt.reflection_word(cox3, rt.simple_root(cox3, 0))
    assert rt.stabilizes_residue(cox3, refl, rt.Residue2((), (0, 1)))


def test_stabilizes_residue_excludes_far_walls(bp_product_b2):
    cox = bp_product_b2.cox
    refl = rt.reflection_word(cox, rt.simple_root(cox, 0))
    assert rt.stabilizes_residue(cox, refl, rt.residue_at(cox, (), (0, 1)))
    assert rt.stabilizes_residue(cox, refl, rt.residue_at(cox, (), (0, 2)))
    # generator 1's wall does not stabilize R_{2,3}
    assert not rt.stabilizes_residue(cox, refl, rt.residue_at(cox, (), (1, 2)))


def test_root_images_never_mix_signs(bp_universal3):
    # w . e_s is a root vector: all coordinates weakly one sign
    for cox in (cox_dihedral(6), bp_universal3.cox):
        for w in cox.ball(4):
            for s in range(cox.rank):
                assert cox.vec_sign(cox.apply(w, cox.basis[s])) in (-1, 1)


def test_residue_roots():
    cox = cox_dihedral(6)
    R = rt.residue_at(cox, (), (0, 1))
    walls = residue_roots(cox, R)
    assert len(walls) == 6
    assert rt.simple_root(cox, 0) in walls and rt.simple_root(cox, 1) in walls
