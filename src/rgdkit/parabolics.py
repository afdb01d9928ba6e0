"""Rank-1 parabolic machinery at finite scale.

For a simple generator s, the involution tau_s sends u_alpha to u_{s.alpha}
on every generator away from alpha_s.  This module realizes tau_s on
residue groups U_R (rank-2 residues on the wall of alpha_s) and on
truncations U_w -> U_{sw}, and verifies the defining identities:
tau_s^2 = 1, (u_s tau_s)^3 = 1, the conjugation identity for v_alpha, and
independence of the chosen gallery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blueprints import Blueprint
from .coxeter import Word, word_label
from .errors import RgdError
from .galleries import Gallery, get_gallery, min_gal_s, shift
from .groupforge import (PCPres, build_Uw, project_to_first, reflected_positions,
                         relation_checks, subgroup_closure)
from .reports import Report, Violation
from .roots import Residue2, Root, act, residue_roots, simple_root
from . import roots as rootmod


@dataclass
class ResidueGroup:
    """U_R over Phi(R), with alpha_s first in the basis and N_R = bits without it."""

    bp: Blueprint
    residue: Residue2
    s: int
    gallery: Gallery
    pres: PCPres
    phi_r: tuple[Root, ...]        # ordered by the gallery
    tau_map: dict[int, int]        # basis index -> basis index of s.root

    @property
    def m(self) -> int:
        return len(self.phi_r)

    def n_r_elements(self) -> range:
        return range(0, self.pres.order, 2)

    def tau(self, x: int) -> int:
        """tau_s on N_R: map each normal-form letter to its s-image."""
        if x & 1:
            raise RgdError("tau_s is defined on N_R only (no u_s component)")
        return self.pres.map_elem(self.tau_map, x)

    def conj_us(self, x: int) -> int:
        return self.pres.conj(self.pres.generator(1), x)

    def us_tau(self, x: int) -> int:
        """The composite n -> u_s tau_s(n) u_s on N_R."""
        return self.conj_us(self.tau(x))


def build_residue_group(bp: Blueprint, R: Residue2, s: int) -> ResidueGroup:
    """Presentation of U_R induced from a gallery G in Min_s(w) with
    Phi(R) inside Phi(G); alpha_s must be a wall of R."""
    cox = bp.cox
    alpha_s = simple_root(cox, s)
    phi_r = residue_roots(cox, R)
    if alpha_s not in phi_r:
        raise RgdError(f"residue {R.label()} is not on the wall of generator {s + 1}")
    # w* = gate * r_J crosses every wall of R; alpha_s in Phi(w*) forces the descent
    w_star = cox.normal_form(R.base + cox.longest_element(R.J))
    if not cox.is_left_descent(s, w_star):
        raise RgdError("gallery construction failed: s not a descent of gate*r_J")
    G = get_gallery(cox, (s,) + cox.normal_form(cox.left_mult(s, w_star)))
    positions = sorted(G.position(r) for r in phi_r)
    if positions[0] != 1:
        raise RgdError("alpha_s is not the first crossed root of the residue gallery")
    ordered = tuple(G.root(p) for p in positions)
    pos_to_basis = {p: k + 1 for k, p in enumerate(positions)}
    rel = {}
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            word = []
            for p in bp.relations(G)[(positions[a], positions[b])]:
                if p not in pos_to_basis:
                    raise RgdError(
                        f"relation value leaves Phi(R): {G.root(p).describe()} "
                        f"for pair ({positions[a]},{positions[b]})")
                word.append(pos_to_basis[p])
            rel[(a + 1, b + 1)] = tuple(word)
    pres = PCPres(ordered, rel, gallery=G)
    return ResidueGroup(bp, R, s, G, pres, ordered, reflected_positions(cox, s, ordered, pres))


def tau_on_residue(rg: ResidueGroup) -> Report:
    """Verify tau_s in Aut(N_R): homomorphism, involution, (u_s tau_s)^3 = 1."""
    report = Report(f"tau({rg.bp.name}, R={rg.residue.label()}, s={rg.s + 1})")
    pres = rg.pres

    report.checks += 1
    if not pres.consistency_check():
        report.add(Violation(axiom="CB3", gallery=rg.gallery.label(),
                             expected="consistent", found=pres.inconsistency_witness or "?"))
        return report
    rep = project_to_first(pres, 1)
    report.merge(rep)

    # images stay in N_R (never touch the u_s bit)
    for i, img in rg.tau_map.items():
        report.checks += 1
        if img == 1:
            report.add(Violation(axiom="tau-image", i=i, expected="image != u_s",
                                 found="u_s"))

    # homomorphism: every defining relation of N_R maps to a relation
    relation_checks(pres.rel, rg.tau_map, pres, report,
                    axiom="Weyl", gallery=rg.gallery.label())

    # involution and the braid with u_s, on all of N_R
    for x in rg.n_r_elements():
        report.checks += 2
        if rg.tau(rg.tau(x)) != x:
            report.add(Violation(axiom="tau^2", expected=str(pres.word_of(x)),
                                 found=str(pres.word_of(rg.tau(rg.tau(x))))))
        y = rg.us_tau(rg.us_tau(rg.us_tau(x)))
        if y != x:
            report.add(Violation(axiom="(us*tau)^3", expected=str(pres.word_of(x)),
                                 found=str(pres.word_of(y))))
    return report


def ustausV_identity_check(rg: ResidueGroup, alpha: Root) -> bool:
    """The two expansions of tau_s u_s tau_s (alpha) = u_s tau_s u_s (alpha)
    collect to the same normal form in N_R."""
    pres, tau = rg.pres, rg.tau_map
    if alpha not in rg.phi_r or alpha == rg.phi_r[0]:
        raise RgdError("alpha must be a wall of R other than alpha_s")
    a = pres.position(alpha)

    def m_set(k: int) -> tuple[int, ...]:
        # M^G(alpha_s, basis root k) as basis indices; alpha_s is basis root 1
        return pres.rel.get((1, k), ())

    lhs_word = [tau[p] for p in m_set(tau[a])] + [a]
    rhs_word: list[int] = []
    for p in m_set(a):
        rhs_word += m_set(tau[p])
        rhs_word.append(tau[p])
    rhs_word += m_set(tau[a])
    rhs_word.append(tau[a])
    return pres.collect(lhs_word) == pres.collect(rhs_word)


def gallery_independence_check(bp: Blueprint, w: Word, w_prime: Word, s: int,
                               alpha: Root) -> Report:
    """prod u_{s.gamma} over M^G_{alpha_s, alpha} agrees for every pair of
    galleries G in Min_s(w), H in Min_s(w'); compared in U_{sw} and U_{sw'}."""
    cox = bp.cox
    w, w_prime = cox.normal_form(w), cox.normal_form(w_prime)
    report = Report(f"gallery-independence({bp.name}, s={s + 1})")
    for v in (w, w_prime):
        if not (v and cox.is_left_descent(s, v)):
            raise RgdError("both words need s as a left descent")
    gs = [G for G in min_gal_s(cox, w, s)]
    hs = [H for H in min_gal_s(cox, w_prime, s)]

    def image_words(G: Gallery) -> list[Root]:
        # G starts with s, so s maps its position p to position p - 1 of sG
        sG = shift(G, s)
        return [sG.root(p - 1) for p in bp.relations(G).get((1, G.position(alpha)), ())]

    ambients = []
    for v in (w, w_prime):
        sv = cox.normal_form(cox.left_mult(s, v))
        pres, rep = build_Uw(bp, sv)
        report.merge(rep)
        ambients.append(pres)

    for G in gs:
        for H in hs:
            if not (G.crosses(alpha) and H.crosses(alpha)):
                continue
            report.checks += 1
            lhs_roots = image_words(G)
            rhs_roots = image_words(H)
            comparable = False
            for pres in ambients:
                try:
                    lhs = pres.collect([pres.position(r) for r in lhs_roots])
                    rhs = pres.collect([pres.position(r) for r in rhs_roots])
                except RgdError:
                    continue
                comparable = True
                if lhs != rhs:
                    report.add(Violation(
                        axiom="gallery-independence", w=G.label(), s=str(s + 1),
                        gallery=H.label(),
                        expected=str(pres.word_of(rhs)), found=str(pres.word_of(lhs))))
            if not comparable:
                report.skip(f"untestable instance: no common ambient for {G.label()} vs "
                            f"{H.label()} at alpha={alpha.describe()}")
    return report


def tau_on_truncation(bp: Blueprint, w: Word, s: int) -> Report:
    """The generator map u_alpha -> u_{s.alpha} from U_w into U_{sw} for an
    ascent (l(sw) = l(w) + 1): injective homomorphism by relations plus
    cardinality of the image closure."""
    cox = bp.cox
    w = cox.normal_form(w)
    report = Report(f"tau-trunc({bp.name}, w={word_label(w)}, s={s + 1})")
    if w and cox.is_left_descent(s, w):
        raise RgdError("tau_on_truncation needs l(sw) = l(w) + 1")
    pres_w, rep_w = build_Uw(bp, w)
    report.merge(rep_w)
    sw = cox.normal_form((s,) + w)
    pres_sw, rep_sw = build_Uw(bp, sw)
    report.merge(rep_sw)
    if not report.ok:
        return report
    image_pos = reflected_positions(cox, s, pres_w.basis, pres_sw)
    s_pos = pres_sw.position(simple_root(cox, s))
    for i, p in image_pos.items():
        report.checks += 1
        if p == s_pos:
            report.add(Violation(axiom="tau-image", i=i, expected="!= alpha_s",
                                 found="alpha_s"))
    relation_checks(pres_w.rel, image_pos, pres_sw, report, axiom="Weyl", w=word_label(w))
    closure = subgroup_closure(pres_sw, [pres_sw.generator(p) for p in image_pos.values()])
    report.checks += 1
    if len(closure) != pres_w.order:
        report.add(Violation(axiom="injectivity", expected=str(pres_w.order),
                             found=str(len(closure))))
    return report


def tau_conjugation_check(bp: Blueprint, s: int, beta: Root, radius: int = 6) -> str:
    """Certify tau_s^2 = 1 on the conjugate generator u_s u_beta u_s for a
    root beta beyond the s-wall (the pair {alpha_s, beta} not prenilpotent).

    The conjugate itself lives only in the colimit: no single truncation
    contains both walls of a covering pair.  Its collectable content is the
    relation, inside U_{s.w} for a gallery G in Min_s(w) crossing s.beta,

        (prod_{g in M} (prod_{d in M^G_{alpha_s, g}} u_{s.d}) u_{s.g})
        * (prod_{g in M} u_{s.g}) = 1,       M = M^G_{alpha_s, s.beta},

    which is exactly the image of ((u_s u_{s.beta} u_s) u_{s.beta})^2 = 1.
    Returns 'verified', 'failed', or 'unrepresentable at radius r'."""
    cox = bp.cox
    alpha_s = simple_root(cox, s)
    if rootmod.prenilpotent(cox, alpha_s, beta):
        raise RgdError("beta must lie beyond the s-wall (non-prenilpotent pair)")
    s_beta = act(cox, (s,), beta)

    G = None
    for v in cox.ball(radius):
        if v and cox.is_left_descent(s, v):
            for cand in min_gal_s(cox, v, s):
                if cand.crosses(s_beta):
                    G = cand
                    break
        if G:
            break
    if G is None:
        return f"unrepresentable at radius {radius}"
    sw = cox.normal_form(G.word[1:])
    pres, rep = build_Uw(bp, sw)
    if not rep.ok:
        return "failed"

    image = reflected_positions(cox, s, G.roots, pres)
    table = bp.relations(G)
    m_set = table.get((1, G.position(s_beta)), ())
    word: list[int] = []
    for g in m_set:
        word += [image[d] for d in table[(1, g)]]
        word.append(image[g])
    word += [image[g] for g in m_set]
    return "verified" if pres.collect(word) == 0 else "failed"
