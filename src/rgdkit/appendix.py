"""Identity suite for the dihedral braid computations.

Each entry re-derives one displayed equality used in the braid-triviality
argument for the group U on Phi(r_J): either two generator words that must
collect to the same normal form ("eq"), or a tau-image step ("tau": apply
the root involution anchored at one end of the gallery, then collect).
Indices are crossing positions 1..m on the distinguished gallery of the
residue (the directed one when m = 6), and U with its two tau maps is the
`parabolics.ResidueGroup` of that gallery: anchor 1 is tau of its first
letter, anchor m tau of its second.  A U that fails the consistency test
is reported with its witness, and the suite does not run.

In rank >= 3, `appendix_conjugation_check` transports conjugates of root
groups outside the residue through the braid (tau_s tau_t)^m.  Its candidate
roots are those crossed by elements of length at most DEPTH = 3, a fixed
bound; the radius bounds only the ambient groups the transport may use.
"""

from __future__ import annotations

from .blueprints import Blueprint
from .coxeter import Word
from .galleries import get_gallery, oriented_gallery
from .groupforge import PCPres, build_Uw, presentation_for_gallery
from .parabolics import ResidueGroup
from .reports import Report, Violation
from .roots import act, simple_root

Wd = tuple[int, ...]

# -- m = 2: u_t u_s = u_s u_t ------------------------------------------------
M2_EQ: list[tuple[Wd, Wd]] = [
    ((2, 1), (1, 2)),
]
M2_TAU: list[tuple[int, Wd, Wd]] = []

# -- m = 3 --------------------------------------------------------------------
M3_EQ: list[tuple[Wd, Wd]] = [
    ((3, 2, 1), (1, 3)),        # u_t u_{st} u_s = u_s u_t
]
M3_TAU: list[tuple[int, Wd, Wd]] = []

# -- m = 4 --------------------------------------------------------------------
M4_EQ: list[tuple[Wd, Wd]] = [
    ((4, 3, 2, 1), (1, 4)),     # u_t u_{ts} u_{st} u_s = u_s u_t
]
M4_TAU: list[tuple[int, Wd, Wd]] = [
    (1, (4, 3), (2, 3)),        # tau_s . u_t u_{ts} = u_{st} u_{ts}
    (4, (2, 3), (2, 1)),        # tau_t . u_{st} u_{ts} = u_{st} u_s
]

# -- m = 6: the full case list -------------------------------------------------
M6_EQ: list[tuple[Wd, Wd]] = [
    # numbered identities (1) and (2)
    ((1, 5, 6), (1, 6, 5, 4, 3, 2, 2, 3, 4)),
    ((1, 6, 5, 4, 3, 2, 2, 3, 4), (6, 1, 2, 3, 4)),
    ((6, 1, 2, 3, 4), (6, 4, 3, 1)),
    ((1, 3, 5), (3, 2, 1, 5)),
    ((3, 2, 1, 5), (3, 2, 5, 4, 2, 1)),
    ((3, 2, 5, 4, 2, 1), (5, 3, 1)),
    # inversion rewritings used throughout
    ((1, 6), (6, 5, 4, 3, 2, 1)),
    ((6, 1), (1, 2, 3, 4, 5, 6)),
    ((1, 6, 5), (6, 4, 3, 1)),
    ((6, 2), (2, 4, 6)),
    ((4, 6), (6, 4)),
    ((2, 4, 6), (6, 2)),
    ((3, 1), (1, 3, 2)),
    ((1, 5), (5, 4, 2, 1)),
    ((3, 4, 5), (5, 3)),
    ((1, 2, 3), (3, 1)),
    ((1, 4), (4, 1)),
    ((5, 4, 2, 1), (1, 5)),
    ((1, 3), (3, 2, 1)),
    ((6, 5), (5, 6)),
    ((5, 3, 1), (1, 3, 5)),
    ((1, 3, 5), (1, 5, 4, 3)),
    ((1, 3, 4, 5), (2, 1, 2, 3, 4, 5)),
    ((2, 1, 2, 3, 4, 5), (2, 5, 4, 3, 2, 1)),
    ((2, 5, 4, 3, 2, 1), (5, 4, 3, 1)),
    ((6, 1, 2), (2, 4, 6, 1)),
    ((2, 4, 6, 1), (2, 4, 5, 4, 3, 2, 1, 6)),
    ((2, 4, 5, 4, 3, 2, 1, 6), (5, 3, 1, 6)),
    ((4, 5, 6), (6, 5, 4)),
    ((4, 3, 1), (1, 4, 3, 2)),
    ((1, 4, 5, 6), (4, 1, 5, 6)),
    ((4, 1, 5, 6), (4, 6, 4, 3, 1)),
    ((4, 6, 4, 3, 1), (6, 3, 1)),
    ((2, 3, 5), (5, 4, 3, 2)),
    ((6, 2, 3), (2, 4, 6, 3)),
    ((2, 4, 6, 3), (4, 3, 2, 6)),
    ((2, 4, 5), (5, 4, 2)),
    ((5, 2, 1), (1, 5, 4)),
    ((1, 3, 4), (4, 3, 2, 1)),
    ((6, 4, 5), (5, 4, 6)),
    ((6, 3, 5), (5, 4, 3, 6)),
    ((5, 4, 1), (1, 5, 2)),
    ((1, 3, 6), (3, 2, 2, 3, 4, 5, 6, 1)),
    ((3, 2, 2, 3, 4, 5, 6, 1), (4, 5, 6, 1)),
    ((4, 5, 6, 1), (6, 5, 4, 1)),
    ((6, 2, 5), (2, 4, 6, 5)),
    ((2, 4, 6, 5), (5, 4, 2, 6)),
    ((6, 5, 1), (6, 5, 4, 3, 2, 1, 3, 4)),
    ((6, 5, 4, 3, 2, 1, 3, 4), (1, 6, 4, 3)),
    ((1, 2, 4, 5), (5, 1)),
    ((6, 3, 4), (4, 3, 6)),
    ((6, 5, 4, 2), (2, 5, 6)),
    ((5, 4, 3, 1), (1, 3, 5, 4)),
    ((1, 3, 5, 4), (1, 5, 3)),
    ((1, 3, 5), (3, 2, 2, 4, 5, 1)),
    ((3, 2, 2, 4, 5, 1), (5, 3, 1)),
    ((1, 3, 4, 5), (5, 4, 3, 1)),
    ((4, 3, 2, 1), (1, 4, 3)),
    ((1, 4, 5), (4, 5, 4, 2, 1)),
    ((4, 5, 4, 2, 1), (5, 2, 1)),
    ((2, 3, 4, 5), (5, 3, 2)),
    ((6, 1, 4), (4, 5, 4, 3, 2, 1, 6)),
    ((4, 5, 4, 3, 2, 1, 6), (5, 3, 2, 1, 6)),
    ((2, 4, 5, 6), (6, 4, 2, 4, 5)),
    ((6, 4, 2, 4, 5), (6, 5, 2)),
    ((6, 3, 4, 5), (5, 3, 6)),
    ((6, 2, 4, 5), (5, 2, 6)),
    ((6, 1, 4, 5), (1, 2, 3, 4, 5, 6, 4, 5)),
    ((1, 2, 3, 4, 5, 6, 4, 5), (1, 2, 3, 6)),
    ((1, 2, 3, 6), (3, 1, 6)),
    ((6, 4, 3, 1), (5, 6, 5, 4, 3, 2, 1, 2)),
    ((5, 6, 5, 4, 3, 2, 1, 2), (5, 1, 6, 2)),
    ((5, 1, 6, 2), (1, 6, 5)),
    ((6, 5, 3, 1), (6, 5, 4, 3, 2, 1, 4, 2)),
    ((6, 5, 4, 3, 2, 1, 4, 2), (1, 6, 4, 2)),
    ((1, 2, 4, 6), (6, 5, 4, 3, 2, 1, 2)),
    ((6, 5, 4, 3, 2, 1, 2), (6, 5, 4, 3, 1)),
    ((6, 5, 4, 1), (6, 5, 4, 3, 2, 1, 3)),
    ((6, 5, 4, 3, 2, 1, 3), (1, 6, 3)),
    ((1, 2, 5), (5, 4, 2, 1, 2)),
    ((5, 4, 2, 1, 2), (5, 4, 1)),
    ((6, 1, 3, 4), (5, 6, 5, 4, 3, 2, 1)),
    ((5, 6, 5, 4, 3, 2, 1), (5, 1, 6)),
    ((5, 4, 3, 2, 1), (1, 2, 3, 4, 5)),
    ((1, 2, 3, 4, 5), (1, 5, 3, 2)),
    ((5, 3, 2), (2, 3, 4, 5)),
    ((1, 6, 5, 4, 3), (6, 2, 1)),
    ((6, 2, 3, 4, 5), (5, 4, 3, 2, 6)),
    ((6, 5, 3, 2, 1), (6, 5, 4, 3, 2, 1, 4)),
    ((6, 5, 4, 3, 2, 1, 4), (1, 6, 4)),
    ((1, 2, 4), (4, 2, 1)),
    ((6, 5, 4, 2, 1), (6, 5, 4, 3, 2, 1, 3, 2)),
    ((6, 5, 4, 3, 2, 1, 3, 2), (1, 6, 3, 2)),
    ((1, 2, 5, 6), (2, 5, 4, 2, 1, 6)),
    ((2, 5, 4, 2, 1, 6), (4, 5, 6, 5, 4, 3, 2, 1)),
    ((4, 5, 6, 5, 4, 3, 2, 1), (6, 3, 2, 1)),
    ((6, 5, 4, 3, 1), (6, 5, 4, 3, 2, 1, 2)),
    ((6, 5, 4, 3, 2, 1, 2), (1, 6, 2)),
    ((1, 2, 6), (1, 6, 4, 2)),
    ((1, 6, 4, 2), (6, 5, 4, 3, 2, 4, 2, 1)),
    ((6, 5, 4, 3, 2, 4, 2, 1), (6, 5, 3, 1)),
    ((6, 1, 2, 3, 4), (1, 6, 5)),
    ((1, 6, 5), (5, 4, 2, 1, 6)),
    ((1, 2), (2, 1)),
]
M6_TAU: list[tuple[int, Wd, Wd]] = [
    # the orbit (tau_1 tau_6)^2 . u_2 u_1 = u_6 u_5
    (6, (2, 1), (4, 5)),
    (1, (4, 5), (4, 3)),
    (6, (4, 3), (2, 3)),
    (1, (2, 3), (6, 5)),
    # tau_1 tau_6 tau_1 . u_4 u_6 = u_6 u_4
    (1, (4, 6), (4, 2)),
    (6, (4, 2), (2, 4)),
    (1, (2, 4), (6, 4)),
    (1, (4, 2), (4, 6)),
    (1, (6, 4, 2), (2, 4, 6)),
    # tau_6 tau_1 tau_6 . u_3 u_2 u_1 = u_1 u_2 u_3
    (6, (3, 2, 1), (3, 4, 5)),
    (1, (3, 4, 5), (5, 4, 3)),
    (6, (5, 4, 3), (1, 2, 3)),
    # tau_6 tau_1 . u_6 u_3 = u_4 u_1
    (1, (6, 3), (2, 5)),
    (6, (2, 5), (4, 1)),
    (6, (5, 1), (1, 5)),
    (1, (4, 3, 2), (4, 5, 6)),
    # tau_6 tau_1 . u_6 u_5 u_3 = u_4 u_3 u_1
    (1, (6, 5, 3), (2, 3, 5)),
    (6, (2, 3, 5), (4, 3, 1)),
    # tau_1 tau_6 . u_4 u_2 u_1 = u_6 u_4 u_3
    (6, (4, 2, 1), (2, 4, 5)),
    (1, (2, 4, 5), (6, 4, 3)),
    (1, (2, 5, 6), (6, 3, 2)),
    (6, (5, 3, 2, 1), (1, 3, 4, 5)),
    # tau_6 tau_1 . u_6 u_5 u_4 u_3 = u_4 u_3 u_2 u_1
    (1, (6, 5, 4, 3), (2, 3, 4, 5)),
    (6, (2, 3, 4, 5), (4, 3, 2, 1)),
    (1, (6, 4, 3, 2), (2, 4, 5, 6)),
    (1, (2, 3, 4, 5), (6, 5, 4, 3)),
]

_SUITES = {2: (M2_EQ, M2_TAU), 3: (M3_EQ, M3_TAU), 4: (M4_EQ, M4_TAU), 6: (M6_EQ, M6_TAU)}


def verify_identity_chains(bp: Blueprint, s: int, t: int) -> Report:
    """Run the displayed-identity suite for the pair {s, t}."""
    G = oriented_gallery(bp.cox, s, t)
    m = len(G)
    report = Report(f"identities({bp.name}, m={m})")
    rg = ResidueGroup(bp, presentation_for_gallery(bp, G))
    pres = rg.pres
    if not pres.consistency_check():
        report.add(Violation(axiom="CB3", gallery=G.label(),
                             expected="consistent", found=pres.inconsistency_witness))
        return report
    eqs, taus = _SUITES[m]
    for lhs, rhs in eqs:
        report.checks += 1
        if pres.collect(lhs) != pres.collect(rhs):
            report.add(Violation(axiom="identity", gallery=G.label(),
                                 expected=str(rhs), found=str(lhs)))
    for anchor, win, wout in taus:
        mp = rg.tau_maps[rg.s if anchor == 1 else rg.t]
        report.checks += 1
        image = pres.collect([mp[x] for x in win])
        if image != pres.collect(wout):
            report.add(Violation(axiom="identity", gallery=G.label(),
                                 expected=str(wout), found=f"tau{anchor}{win}"))
    return report


# ---------------------------------------------------------------------------
# conjugation transport in rank >= 3

# length bound of the elements whose crossed roots are the candidate alphas
DEPTH = 3


def appendix_conjugation_check(bp: Blueprint, s: int, t: int, r: int) -> Report:
    """Check that (tau_s tau_t)^m fixes the generators u . u_alpha . u^-1 of
    the complement of the {s,t}-part, for every u in U_{s,t} and every root
    alpha outside the dihedral residue that some element of length at most
    DEPTH crosses, as far as it is representable within radius r.  The pair
    {s, t} is spherical and the rank at least 3, as `cli.cmd_appendix`
    ensures.

    Each tau step maps a normal form supported away from the moving wall to
    its reflected support, re-anchored in a minimal ambient group; instances
    whose intermediates leave every representable group are reported as
    unverifiable rather than assumed.
    """
    cox = bp.cox
    m = int(cox.matrix.m(s, t))
    report = Report(f"appendix-conj({bp.name}, {s + 1},{t + 1}, r={r})")

    engines: dict[Word, PCPres] = {}

    def engine(w: Word) -> PCPres | None:
        if w not in engines:
            pres, rep = build_Uw(bp, w)
            engines[w] = pres if rep.ok else None
        return engines[w]

    # the ball's galleries, shortest first: the first crossing a set of roots
    # is the minimal ambient group of that set
    ambients = [get_gallery(cox, w) for w in cox.ball(r)]

    def as_elem(root_word: list) -> tuple[PCPres, int] | None:
        G = next((G for G in ambients if all(map(G.crosses, root_word))), None)
        pres = engine(G.word) if G else None
        if pres is None:
            return None
        return pres, pres.collect(map(pres.position, root_word))

    def support_roots(pres: PCPres, x: int) -> list:
        return [pres.gallery.root(i) for i in pres.word_of(x)]

    def tau_step(gen: int, pres: PCPres, x: int):
        alpha_gen = simple_root(cox, gen)
        sup = support_roots(pres, x)
        if any(rt == alpha_gen for rt in sup):
            return None
        mapped = [act(cox, (gen,), rt) for rt in sup]
        return as_elem(mapped)

    # candidate outside roots of bounded depth
    outside: dict = {}
    for w in cox.ball(DEPTH):
        for rt in get_gallery(cox, w).roots:
            if any(rt.vec[i] for i in range(cox.rank) if i not in (s, t)):
                outside.setdefault(rt.vec, rt)

    w0 = cox.longest_element((s, t))
    pres0 = engine(w0)
    if pres0 is None:
        report.add(Violation(axiom="CB3", w="r_J", expected="consistent", found="not"))
        return report
    unverifiable = 0
    for alpha in outside.values():
        for u in range(pres0.order):
            u_roots = support_roots(pres0, u)
            start = as_elem(u_roots + [alpha] + list(reversed(u_roots)))
            if start is None:
                unverifiable += 1
                continue
            state = start
            ok = True
            for step in range(2 * m):
                gen = t if step % 2 == 0 else s
                nxt = tau_step(gen, *state)
                if nxt is None:
                    unverifiable += 1
                    ok = False
                    break
                state = nxt
            if not ok:
                continue
            report.checks += 1
            final_sup = support_roots(*state)
            start_sup = support_roots(*start)
            if frozenset(r.vec for r in final_sup) != frozenset(r.vec for r in start_sup) \
                    or as_elem(final_sup) != as_elem(start_sup):
                report.add(Violation(
                    axiom="braid-conj", w=alpha.describe(),
                    gallery=str(pres0.word_of(u)),
                    expected="fixed by the braid", found="moved"))
    if unverifiable:
        report.skip(f"{unverifiable} instances unverifiable at radius {r}")
    return report
