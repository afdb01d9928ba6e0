"""Rank-1 parabolic machinery at finite scale.

For a simple generator s, the involution tau_s sends u_alpha to u_{s.alpha}
on every generator away from alpha_s.  This module realizes tau_s on the
residue groups U_R of the rank-2 residues at 1 whose type holds s, each
presented by the gallery of r_J that crosses alpha_s first, and verifies
its defining identities there: tau_s^2 = 1, (u_s tau_s)^3 = 1 and the
conjugation identity for v_alpha.  The proof's other lemmas about
tau_s (the truncation maps U_w -> U_{sw}, independence of the chosen
gallery, tau_s^2 = 1 beyond the s-wall) follow from Weyl-invariance and
CB3, which `validate` checks; the tests keep them as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blueprints import Blueprint
from .errors import RgdError
from .galleries import Gallery, min_gal_s
from .groupforge import (PCPres, presentation_for_gallery, project_to_first,
                         reflected_positions, relation_checks)
from .reports import Report, Violation
from .roots import Residue2, Root, residue_at


@dataclass
class ResidueGroup:
    """U_R for the residue R of type {s, t} at 1, presented by the gallery of
    r_J that starts with s: its crossed roots are Phi(R), alpha_s is u_1, and
    N_R is the masks without bit 1."""

    bp: Blueprint
    residue: Residue2
    s: int
    gallery: Gallery
    pres: PCPres
    tau_map: dict[int, int]        # generator index -> generator index of s.root

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


def build_residue_group(bp: Blueprint, s: int, t: int) -> ResidueGroup:
    """U_R for the residue R of type {s, t} at 1, from the gallery of r_J
    that starts with s."""
    cox = bp.cox
    R = residue_at(cox, (), (s, t))
    G = min_gal_s(cox, cox.longest_element(R.J), s)[0]
    return ResidueGroup(bp, R, s, G, presentation_for_gallery(bp, G), reflected_positions(G, s))


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
    if not rg.gallery.crosses(alpha) or alpha == rg.gallery.root(1):
        raise RgdError("alpha must be a wall of R other than alpha_s")
    a = pres.position(alpha)

    def m_set(k: int) -> tuple[int, ...]:
        # M^G(alpha_s, root k) as generator indices; alpha_s is u_1
        return pres.rel.get((1, k), ())

    lhs_word = [tau[p] for p in m_set(tau[a])] + [a]
    rhs_word: list[int] = []
    for p in m_set(a):
        rhs_word += m_set(tau[p])
        rhs_word.append(tau[p])
    rhs_word += m_set(tau[a])
    rhs_word.append(tau[a])
    return pres.collect(lhs_word) == pres.collect(rhs_word)
