"""Rank-2 chamber systems of cosets u U_w and the braid-triviality check.

Chambers are cosets u U_w with u in the group U on Phi(r_J) and w in the
dihedral parabolic <J>.  U is built by `build_Uw` on the lex-least gallery
of r_J, whose cross-gallery CB3 check is the `build_CJ` report, and wrapped
in a `parabolics.ResidueGroup`, which gives the generators of alpha_s and
alpha_t, the involutions tau_s and tau_t and the bit mask of every U_w.
A chamber is an index.  One table owns chamber identity: `chamber_of[w]`
maps every element of U to the index of its U_w-coset, and each chamber is
named by the least member of its coset, whose members it keeps.
s-adjacency is u U_w ~ v U_{w'} iff w' in {w, ws} and u^-1 v in the larger
of the two subgroups, so the s-panel of u U_w is the coset u U_top, top the
longer of w and ws; the panels are read off the table and give the
adjacency (`adjacent` keeps the definition as a test oracle).  The system
owns the chamber permutations of the generators u_1 ... u_k of U
(`u_perm`, by left multiplication) and of tau_s, tau_t (`tau_perm`, by the
coset formula), each built once; every check reads them.  This module
builds the full system, certifies the building axioms, verifies the
actions and checks that (tau_s tau_t)^m acts trivially.

U acts on the chambers by left multiplication, g . u U_w = gu U_w, keeping
types and panels and transitive on the chambers of each type, so
delta(g x, g y) = delta(x, y) and the building checks from the 2m base
chambers 1 U_w imply those from every chamber: this is U_+ acting on its
building (Abramenko & Brown, *Buildings*, GTM 248, ch. 7-8).  The premise
is certified on every run, not assumed: each generator of U permutes the
chambers and carries every cell of the adjacency onto the cell of the
image, and the orbits of the base chambers cover all chambers.  If it
fails, or a base row shows any violation, the checks run from every
chamber (the full loop), so violations and counts are exactly its own.

The battery runs on small integer tables built once per system: the 2m
elements of <J> are numbered (`w_elements`, id 0 the identity) with their
right and left multiplication tables `rmul`/`lmul`, a W-distance row is a
list of those ids, and tau_gen is read from `tau_table`, its coset formula
evaluated once for every element of U.  No word arithmetic or collection
runs per chamber pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .blueprints import Blueprint
from .coxeter import Word, word_label
from .errors import RgdError, Violated
from .groupforge import build_Uw
from .parabolics import ResidueGroup
from .reports import Report, Violation


@dataclass(frozen=True)
class ChamberJ:
    """Coset u U_w, stored with w in normal form and u the lex-least member."""

    w: Word
    rep: int  # canonical representative bits

    def label(self) -> str:
        return f"{self.rep:#x}U[{word_label(self.w)}]"


class ChamberSystemJ:
    def __init__(self, bp: Blueprint, s: int, t: int, report: Report):
        cox = bp.cox
        if cox.matrix.m(s, t) == inf:
            raise RgdError("chamber system needs a spherical pair")
        self.bp = bp
        self.cox = cox
        self.s, self.t = s, t
        self.m = int(cox.matrix.m(s, t))
        self.build_report = report
        self.w_elements = cox.parabolic_elements((s, t))
        self.pres, rep = build_Uw(bp, self.w_elements[-1])  # r_J, the longest
        report.merge(rep)
        if not rep.ok:
            raise Violated(report, "U on Phi(r_J) fails CB3; cannot build chambers")
        self.rg = ResidueGroup(bp, self.pres)
        # W_J ids: w_elements[i] is element i, id 0 is the identity;
        # rmul[gen][i] is the id of w_i * gen, lmul[gen][i] that of gen * w_i
        self.w_id = {w: i for i, w in enumerate(self.w_elements)}
        self.rmul = {gen: [self.w_id[cox.nf_append(w, gen)] for w in self.w_elements]
                     for gen in (s, t)}
        self.lmul = {gen: [self.w_id[cox.normal_form((gen,) + w)] for w in self.w_elements]
                     for gen in (s, t)}
        # chamber_of[w][g]: index of the chamber u U_w holding g.  A chamber is
        # named by the least member of its coset, the first g that meets it;
        # members[i] lists the coset of chamber i in `coset_members` order
        self.chambers: list[ChamberJ] = []
        self.members: list[list[int]] = []
        self.chamber_of: dict[Word, list[int]] = {}
        for w in self.w_elements:
            table = self.chamber_of[w] = [-1] * self.pres.order
            for g in range(self.pres.order):
                if table[g] < 0:
                    coset = self.coset_members(w, g)
                    for x in coset:
                        table[x] = len(self.chambers)
                    self.chambers.append(ChamberJ(w, g))
                    self.members.append(coset)
        # panels[gen]: the gen-panels, each in ascending chamber order.  The
        # panel of u U_w is the coset u U_top, top the longer of w and w*gen,
        # which holds the chambers of types w and w*gen inside it
        self.panels: dict[int, list[list[int]]] = {}
        self.adjacency: dict[int, list[set[int]]] = {}
        for gen in (s, t):
            by_top: dict[int, list[int]] = {}
            for i, c in enumerate(self.chambers):
                top = max(c.w, self.w_elements[self.rmul[gen][self.w_id[c.w]]], key=len)
                by_top.setdefault(self.chamber_of[top][c.rep], []).append(i)
            self.panels[gen] = list(by_top.values())
            cells = self.adjacency[gen] = [set() for _ in self.chambers]
            for panel in self.panels[gen]:
                for i in panel:
                    cells[i] = {j for j in panel if j != i}
        # u_perm[i - 1][x]: the chamber u_i x, read off `chamber_of` through
        # the left multiplication of u_i on U
        self.u_perm: list[list[int]] = []
        for i in range(1, self.pres.k + 1):
            left = [self.pres.mul(self.pres.generator(i), g) for g in range(self.pres.order)]
            self.u_perm.append([self.chamber_of[c.w][left[c.rep]] for c in self.chambers])
        # tau_table[gen][g] = (eps, tn, tn * u_gen) for g = n * u_gen^eps with n
        # free of u_gen and tn = tau_gen(n); tau_perm[gen][x]: the chamber
        # tau_gen x.  See `act_tau`
        self.tau_table: dict[int, list[tuple[int, int, int]]] = {}
        self.tau_perm: dict[int, list[int]] = {}
        for gen in (s, t):
            p = self.rg.position[gen]
            u = self.pres.generator(p)
            rows = self.tau_table[gen] = []
            for g in range(self.pres.order):
                eps = g >> (p - 1) & 1
                tn = self.rg.tau(gen, self.pres.mul(g, u) if eps else g)
                rows.append((eps, tn, self.pres.mul(tn, u)))
            self.tau_perm[gen] = [self.act_tau(gen, x) for x in range(len(self.chambers))]

    def coset_members(self, w: Word, g: int) -> list[int]:
        mask = self.rg.mask(w)
        out = []
        # iterate all submasks of `mask`, including 0
        x = mask
        while True:
            out.append(self.pres.mul(g, x))
            if x == 0:
                break
            x = (x - 1) & mask
        return out

    def adjacent(self, x: int, y: int, gen: int) -> bool:
        """x ~_gen y for chambers a U_w and b U_w':  w' in {w, w*gen} and
        a^-1 b in U_w union U_{w*gen}."""
        a, b = self.chambers[x], self.chambers[y]
        ws = self.cox.nf_append(a.w, gen)
        if b.w != a.w and b.w != ws:
            return False
        diff = self.pres.mul(self.pres.inv(a.rep), b.rep)
        return not diff & ~self.rg.mask(a.w) or not diff & ~self.rg.mask(ws)

    def act_tau(self, gen: int, x: int, rep: int | None = None) -> int:
        """The coset formula for tau_gen on chamber x, evaluated on a chosen
        representative: g U_w with g = n u_gen^eps goes to tn U_{gen w} on a
        descent or when eps = 0, and to tn u_gen U_w otherwise."""
        c = self.chambers[x]
        eps, tn, tn_u = self.tau_table[gen][c.rep if rep is None else rep]
        sw = self.w_elements[self.lmul[gen][self.w_id[c.w]]]
        if eps == 0 or len(sw) < len(c.w):
            return self.chamber_of[sw][tn]
        return self.chamber_of[c.w][tn_u]


def build_CJ(bp: Blueprint, s: int, t: int) -> ChamberSystemJ:
    report = Report(f"build_CJ({bp.name}, {s + 1},{t + 1})")
    return ChamberSystemJ(bp, s, t, report)


# ---------------------------------------------------------------------------
# building verification


def _orbit_sizes(cs: ChamberSystemJ) -> dict[int, int] | None:
    """The U-orbit size of each base chamber 1*U_w, keyed by its index, or
    None unless the premise of the orbit argument holds: each generator
    permutation in `cs.u_perm` is a bijection and carries every s- and
    t-cell of `cs.adjacency` onto the cell of the image, and the orbits of
    the base chambers cover all chambers."""
    n = len(cs.chambers)
    for perm in cs.u_perm:
        if len(set(perm)) != n or any({perm[j] for j in cell} != adj[perm[x]]
                                      for adj in cs.adjacency.values()
                                      for x, cell in enumerate(adj)):
            return None
    seen: set[int] = set()
    sizes = {}
    for w in cs.w_elements:
        orbit = [cs.chamber_of[w][0]]
        seen.add(orbit[0])
        for x in orbit:
            for perm in cs.u_perm:
                if perm[x] not in seen:
                    seen.add(perm[x])
                    orbit.append(perm[x])
        sizes[orbit[0]] = len(orbit)
    return sizes if len(seen) == n else None


def _delta(cs: ChamberSystemJ, sizes: dict[int, int]) -> tuple[list[list[int]], Report]:
    """Minimal-gallery distances from the chambers keyed in `sizes` to every
    chamber, as ids into `cs.w_elements`,
    with a well-definedness check (all minimal galleries give one element).
    Each row counts its checks `sizes[x]` times: the orbit it stands for."""
    report = Report("delta")
    words = cs.w_elements
    n = len(cs.chambers)
    # links[y]: the neighbours z of y, each with the right-multiplication
    # table of the generator that joins them
    links = [[(z, cs.rmul[gen]) for gen in (cs.s, cs.t) for z in cs.adjacency[gen][y]]
             for y in range(n)]
    delta: list[list[int]] = []
    for x, size in sizes.items():
        # BFS from x; `order` lists the chambers by distance
        dist = [-1] * n
        dist[x] = 0
        order = [x]
        for y in order:
            d = dist[y] + 1
            for z, _ in links[y]:
                if dist[z] < 0:
                    dist[z] = d
                    order.append(z)
        # a chamber the BFS cannot reach keeps id 0 and fails Bu1
        row = [0] * n
        for y in order[1:]:
            dy = dist[y]
            prev = dy - 1
            candidates = {rmul[row[z]] for z, rmul in links[y] if dist[z] == prev}
            if len(candidates) != 1:
                report.add(Violation(axiom="delta", w=cs.chambers[x].label(),
                                     gallery=cs.chambers[y].label(),
                                     expected="unique element", found=str(len(candidates))))
                candidates = {min(candidates, key=words.__getitem__)}
            w = row[y] = candidates.pop()
            if len(words[w]) != dy:
                report.add(Violation(axiom="delta", w=cs.chambers[x].label(),
                                     gallery=cs.chambers[y].label(),
                                     expected=f"length {dy}", found=f"length {len(words[w])}"))
        report.checks += (len(order) - 1) * size
        delta.append(row)
    return delta, report


def verify_building(cs: ChamberSystemJ) -> Report:
    """Distance function well-defined, building axioms, thickness 3: from the
    2m base chambers once `_orbit_sizes` certifies U-equivariance, else, or
    on any violation, from every chamber."""
    sizes = _orbit_sizes(cs)
    if sizes is not None:
        report = _building(cs, sizes)
        if report.ok:
            return report
    return _building(cs, dict.fromkeys(range(len(cs.chambers)), 1))


def _building(cs: ChamberSystemJ, sizes: dict[int, int]) -> Report:
    """The checks of `verify_building` on the delta rows of the chambers
    keyed in `sizes`, counted for the chambers each row stands for."""
    report = Report(f"building({cs.bp.name}, m={cs.m})")
    delta, rep = _delta(cs, sizes)
    report.merge(rep)
    n = len(cs.chambers)
    words = cs.w_elements
    labels = [c.label() for c in cs.chambers]

    for gen in (cs.s, cs.t):
        for panel in cs.panels[gen]:
            report.checks += 1
            if len(panel) != 3:
                report.add(Violation(axiom="thickness", s=str(gen + 1),
                                     expected="3", found=str(len(panel))))

    # per gen: its adjacency, its rmul table and whether w_i * gen is longer
    gens = [(gen, cs.adjacency[gen], cs.rmul[gen],
             [len(words[r]) > len(w) for r, w in zip(cs.rmul[gen], words)])
            for gen in (cs.s, cs.t)]
    # per pair (x, y): one Bu1 check, and for each gen one Bu2 check per z in
    # the gen-panel of y and one Bu3 check
    report.checks += n * (n + sum(len(cell) + 1 for _, adj, _, _ in gens for cell in adj))
    for x, row in zip(sizes, delta):
        for y in range(n):
            w = row[y]
            if (w == 0) != (x == y):
                report.add(Violation(axiom="Bu1", w=labels[x], gallery=labels[y],
                                     expected="delta=1 iff equal",
                                     found=word_label(words[w])))
            for gen, adj, rmul, ascent in gens:
                ws = rmul[w]
                # Bu2 over all z in the gen-panel of y; Bu3: some such z has
                # delta(x, z) = ws
                reached = False
                for z in adj[y]:
                    got = row[z]
                    if got == ws:
                        reached = True
                    elif got != w:
                        report.add(Violation(axiom="Bu2", w=labels[x], gallery=labels[z],
                                             expected=f"{word_label(words[w])} or "
                                                      f"{word_label(words[ws])}",
                                             found=word_label(words[got])))
                    elif ascent[w]:
                        report.add(Violation(axiom="Bu2", w=labels[x], gallery=labels[z],
                                             expected=word_label(words[ws]),
                                             found=word_label(words[got])))
                if not reached:
                    report.add(Violation(axiom="Bu3", w=labels[x], gallery=labels[y],
                                         s=str(gen + 1), expected=word_label(words[ws]),
                                         found="missing"))
    return report


def verify_action(cs: ChamberSystemJ, gen: int) -> Report:
    """Well-definedness on every coset representative, adjacency preservation,
    tau^2 = id, (u_gen tau_gen)^3 = id, and the six-element faithfulness table,
    on the owned permutations of tau_gen and u_gen."""
    report = Report(f"action({cs.bp.name}, s={gen + 1})")
    perm_t = cs.tau_perm[gen]
    perm_u = cs.u_perm[cs.rg.position[gen] - 1]
    chambers = cs.chambers
    n = len(chambers)

    for x, members in enumerate(cs.members):
        for rep_bits in members:
            report.checks += 1
            got = cs.act_tau(gen, x, rep=rep_bits)
            if got != perm_t[x]:
                report.add(Violation(axiom="well-defined", w=chambers[x].label(),
                                     expected=chambers[perm_t[x]].label(),
                                     found=chambers[got].label()))

    ident = list(range(n))

    def compose(p, q):  # apply q then p
        return [p[q[i]] for i in range(n)]

    report.checks += 1
    if compose(perm_t, perm_t) != ident:
        report.add(Violation(axiom="tau^2", expected="id", found="nontrivial"))
    ut = compose(perm_u, perm_t)
    report.checks += 1
    if compose(ut, compose(ut, ut)) != ident:
        report.add(Violation(axiom="(us*tau)^3", expected="id", found="nontrivial"))

    # adjacency preservation for both tau and u
    adj = cs.adjacency
    for other in (cs.s, cs.t):
        for i in range(n):
            for j in adj[other][i]:
                for perm, tag in ((perm_t, "tau"), (perm_u, "u")):
                    report.checks += 1
                    if perm[j] not in adj[other][perm[i]]:
                        report.add(Violation(axiom="automorphism", s=str(other + 1),
                                             w=chambers[i].label(),
                                             gallery=chambers[j].label(),
                                             expected="adjacency preserved", found=tag))

    # the six elements of <u_s, tau_s> act pairwise distinctly
    six = {
        "1": ident, "u": perm_u, "tau": perm_t,
        "u*tau": compose(perm_u, perm_t), "tau*u": compose(perm_t, perm_u),
        "u*tau*u": compose(perm_u, compose(perm_t, perm_u)),
    }
    names = list(six)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            report.checks += 1
            if six[names[a]] == six[names[b]]:
                report.add(Violation(axiom="faithful", expected="distinct",
                                     found=f"{names[a]} = {names[b]}"))

    # witness chambers from the faithfulness argument, each with the chamber
    # it reaches
    c0, c_s = cs.chamber_of[()][0], cs.chamber_of[(gen,)][0]
    u_c0, tau_c0 = perm_u[c0], perm_t[c0]
    ut_c0, tu_cs, utu_cs = six["u*tau"][c0], six["tau*u"][c_s], six["u*tau*u"][c_s]
    for got, holds, tag in ((tau_c0, tau_c0 == c_s, "tau.U_1 = U_s"),
                            (u_c0, u_c0 != c0, "u.U_1 != U_1"),
                            (ut_c0, ut_c0 == c_s, "u*tau.U_1 = U_s"),
                            (tu_cs, tu_cs == c0, "tau*u.U_s = U_1"),
                            (utu_cs, utu_cs == u_c0, "u*tau*u.U_s = u.U_1")):
        report.checks += 1
        if not holds:
            report.add(Violation(axiom="witness", expected=tag, found=chambers[got].label()))
    return report


def braid_check(cs: ChamberSystemJ) -> Report:
    """(tau_s tau_t)^m fixes every chamber; movers are listed."""
    report = Report(f"braid({cs.bp.name}, m={cs.m})")
    n = len(cs.chambers)
    ps, pt = cs.tau_perm[cs.s], cs.tau_perm[cs.t]
    cur = list(range(n))
    for _ in range(cs.m):
        cur = [ps[pt[i]] for i in cur]
    for i in range(n):
        report.checks += 1
        if cur[i] != i:
            report.add(Violation(axiom="braid", w=cs.chambers[i].label(),
                                 expected=cs.chambers[i].label(),
                                 found=cs.chambers[cur[i]].label()))
    return report
