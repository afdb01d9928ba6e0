"""Rank-1 parabolic machinery at finite scale.

For a simple generator s, the involution tau_s sends u_alpha to u_{s.alpha}
on every generator away from alpha_s.  This module realizes tau_s on the
residue groups U_R of the rank-2 residues on the wall of alpha_s and
verifies its defining identities there: tau_s^2 = 1, (u_s tau_s)^3 = 1 and
the conjugation identity for v_alpha.  The proof's other lemmas about
tau_s (the truncation maps U_w -> U_{sw}, independence of the chosen
gallery, tau_s^2 = 1 beyond the s-wall) follow from Weyl-invariance and
CB3, which `validate` checks; the tests keep them as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blueprints import Blueprint
from .errors import RgdError
from .galleries import Gallery, get_gallery
from .groupforge import PCPres, project_to_first, reflected_positions, relation_checks
from .reports import Report, Violation
from .roots import Residue2, Root, residue_roots, simple_root


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
