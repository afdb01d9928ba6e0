"""The residue group of a spherical pair J = {s, t} and its involutions.

`ResidueGroup` is U on Phi(r_J), presented by a gallery G of r_J, with the
conventions the rank-2 checks share: s and t are G's first two letters, so
alpha_s is u_1 and alpha_t is u_m; `tau(gen, x)` applies tau_gen, which
sends u_alpha to u_{gen.alpha}, to an element without a u_gen component;
and U_w, for w in W_J, is the low or the high l(w) bits.  The residue
check, the chamber battery and the identity suite read it.
`tau_on_residue` is the whole residue verdict: CB3 of U, then on N_R, for
the residue R of type {s, t} at 1, tau_s a homomorphism, tau_s^2 = 1,
(u_s tau_s)^3 = 1 and the conjugation identity for v_alpha.
The proof's other lemmas about tau_s (the truncation maps U_w -> U_{sw},
independence of the chosen gallery, tau_s^2 = 1 beyond the s-wall) follow
from Weyl-invariance and CB3, which `validate` checks; the tests keep them
as oracles.
"""

from __future__ import annotations

from .blueprints import Blueprint
from .coxeter import Word
from .errors import RgdError
from .galleries import rj_gallery
from .groupforge import PCPres, presentation_for_gallery, reflected_positions, relation_checks
from .reports import Report, Violation
from .roots import Root, residue_at


class ResidueGroup:
    """U on Phi(r_J) from `pres`, whose gallery G is a gallery of r_J;
    `residue` is the residue of type {s, t} at 1, whose walls G crosses, and
    N_R is the masks without bit 1, the bit of alpha_s."""

    def __init__(self, bp: Blueprint, pres: PCPres):
        G = pres.gallery
        self.bp, self.pres, self.gallery = bp, pres, G
        self.s, self.t = G.word[0], G.word[1]
        self.residue = residue_at(bp.cox, (), (self.s, self.t))
        self.position = {self.s: 1, self.t: len(G)}
        self.tau_maps = {gen: reflected_positions(G, gen) for gen in (self.s, self.t)}

    def mask(self, w: Word) -> int:
        """U_w for w in W_J, as the bits of Phi(w).  The two galleries of r_J
        cross Phi(r_J) in opposite orders, so Phi(w) is G's first l(w) roots
        when G's word starts with w, and its last l(w) otherwise."""
        low = (1 << len(w)) - 1
        return low if self.gallery.word[:len(w)] == w else low << (len(self.gallery) - len(w))

    def tau(self, gen: int, x: int) -> int:
        """tau_gen on the elements without a u_gen component (N_R for
        gen = s): map each normal-form letter to its gen-image."""
        if x >> (self.position[gen] - 1) & 1:
            raise RgdError(f"tau_{gen + 1} is defined only without a u_{gen + 1} component")
        return self.pres.map_elem(self.tau_maps[gen], x)

    def us_tau(self, x: int) -> int:
        """The composite n -> u_s tau_s(n) u_s on N_R."""
        return self.pres.conj(self.pres.generator(1), self.tau(self.s, x))


def build_residue_group(bp: Blueprint, s: int, t: int) -> ResidueGroup:
    """U_R for the residue R of type {s, t} at 1, from the gallery of r_J
    that starts with s."""
    return ResidueGroup(bp, presentation_for_gallery(bp, rj_gallery(bp.cox, s, t)))


def tau_on_residue(rg: ResidueGroup) -> Report:
    """The residue verdict, in order: CB3 of U (nothing else runs on an
    inconsistent U); tau_s a homomorphism of N_R; tau_s^2 = 1 and
    (u_s tau_s)^3 = 1 on N_R; the u_s tau_s u_s identity on every wall of R
    but alpha_s, whose failure adds one uncounted violation."""
    report = Report(f"tau({rg.bp.name}, R={rg.residue.label()}, s={rg.s + 1})")
    pres = rg.pres

    report.checks += 1
    if not pres.consistency_check():
        report.add(Violation(axiom="CB3", gallery=rg.gallery.label(),
                             expected="consistent", found=pres.inconsistency_witness))
        return report
    # Counted, never failing: u_s = u_1 is in no relation value, since
    # `PCPres` keeps a value inside (i, j), so U = <u_s> x| N_R; and s maps
    # no positive root but alpha_s to alpha_s, so tau_s keeps N_R
    tau_s = rg.tau_maps[rg.s]
    report.checks += len(pres.rel) + len(tau_s)

    # homomorphism: every defining relation of N_R maps to a relation
    relation_checks(pres.rel, tau_s, pres, report,
                    axiom="Weyl", gallery=rg.gallery.label())

    # involution and the braid with u_s, on all of N_R
    for x in range(0, pres.order, 2):
        report.checks += 2
        xx = rg.tau(rg.s, rg.tau(rg.s, x))
        if xx != x:
            report.add(Violation(axiom="tau^2", expected=str(pres.word_of(x)),
                                 found=str(pres.word_of(xx))))
        y = rg.us_tau(rg.us_tau(rg.us_tau(x)))
        if y != x:
            report.add(Violation(axiom="(us*tau)^3", expected=str(pres.word_of(x)),
                                 found=str(pres.word_of(y))))

    # one uncounted violation for all walls: a passing residue's check count
    # is the sum of the checks above
    if not all(ustausV_identity_check(rg, a) for a in rg.gallery.roots[1:]):
        report.add(Violation(axiom="ustausV", gallery=rg.gallery.label(),
                             expected="equal", found="differs"))
    return report


def ustausV_identity_check(rg: ResidueGroup, alpha: Root) -> bool:
    """The two expansions of tau_s u_s tau_s (alpha) = u_s tau_s u_s (alpha)
    collect to the same normal form in N_R."""
    pres, tau = rg.pres, rg.tau_maps[rg.s]
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
