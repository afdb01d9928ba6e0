"""Rank-2 chamber systems of cosets u U_w and the braid-triviality check.

Chambers are cosets u U_w with u in the group U on Phi(r_J) and w in the
dihedral parabolic <J>.  One table owns chamber identity: `chamber_of[w]`
maps every element of U to the index of its U_w-coset, and each chamber is
named by the least member of its coset.  s-adjacency is u U_w ~ v U_{w'}
iff w' in {w, ws} and u^-1 v in the larger of the two subgroups, so the
s-panel of u U_w is the coset u U_top, top the longer of w and ws; the
panels are read off the table and give the adjacency (`adjacent` keeps the
definition as a test oracle).  The generators u_s, u_t and the involutions
tau_s, tau_t act by the coset formulas; this module builds the full
system, certifies the building axioms, verifies the actions and checks
that (tau_s tau_t)^m acts trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .blueprints import Blueprint
from .coxeter import Word, word_label
from .errors import RgdError
from .groupforge import GroupElem, build_Uw, reflected_positions
from .reports import Report, Violation
from .roots import simple_root
from . import roots as rootmod


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
        w0 = cox.longest_element((s, t))
        self.pres, rep = build_Uw(bp, w0)
        report.merge(rep)
        if not rep.ok:
            raise RgdError("U on Phi(r_J) is inconsistent; cannot build chambers")
        self.w_elements = cox.parabolic_elements((s, t))
        self.gen_pos = {s: self.pres.position(simple_root(cox, s)),
                        t: self.pres.position(simple_root(cox, t))}
        # subgroup masks: U_w is the bit-range subgroup on the positions of Phi(w)
        self.masks: dict[Word, int] = {}
        for w in self.w_elements:
            positions = sorted(self.pres.position(r) for r in rootmod.phi_w(cox, w))
            if positions and positions != list(range(positions[0], positions[0] + len(positions))):
                raise RgdError(f"Phi({word_label(w)}) is not an index range in the base order")
            mask = 0
            for p in positions:
                mask |= 1 << (p - 1)
            self.masks[w] = mask
        # chamber_of[w][g]: index of the chamber u U_w holding g.  A chamber is
        # named by the least member of its coset, the first g that meets it
        self.chambers: list[ChamberJ] = []
        self.chamber_of: dict[Word, list[int]] = {}
        for w in self.w_elements:
            table = self.chamber_of[w] = [-1] * self.pres.order
            for g in range(self.pres.order):
                if table[g] < 0:
                    for x in self.coset_members(w, g):
                        table[x] = len(self.chambers)
                    self.chambers.append(ChamberJ(w, g))
        self.adjacency: dict[int, list[set[int]]] = {}
        for gen in (s, t):
            cells = self.adjacency[gen] = [set() for _ in self.chambers]
            for panel in self.panels(gen):
                for i in panel:
                    cells[i] = {j for j in panel if j != i}
        # tau root maps: basis position -> position of the s-image
        self.tau_maps = {gen: reflected_positions(cox, gen, self.pres.basis, self.pres)
                         for gen in (s, t)}

    # -- coset plumbing ----------------------------------------------------

    def coset_members(self, w: Word, g: int) -> list[int]:
        ge = GroupElem(g)
        mask = self.masks[w]
        out = []
        # iterate all submasks of `mask`, including 0
        x = mask
        while True:
            out.append(self.pres.mul(ge, GroupElem(x)).bits)
            if x == 0:
                break
            x = (x - 1) & mask
        return out

    def index(self, c: ChamberJ) -> int:
        return self.chamber_of[c.w][c.rep]

    def canonical(self, w: Word, g: int) -> ChamberJ:
        return self.chambers[self.chamber_of[w][g]]

    def chamber(self, w: Word, g: int = 0) -> ChamberJ:
        return self.canonical(self.cox.normal_form(w), g)

    # -- adjacency -----------------------------------------------------------

    def adjacent(self, a: ChamberJ, b: ChamberJ, gen: int) -> bool:
        """a ~_gen b:  w' in {w, w*gen} and a^-1 b in U_w union U_{w*gen}."""
        cox = self.cox
        ws = cox.nf_append(a.w, gen)
        if b.w != a.w and b.w != ws:
            return False
        diff = self.pres.mul(self.pres.inv(GroupElem(a.rep)), GroupElem(b.rep)).bits
        return not diff & ~self.masks[a.w] or not diff & ~self.masks[ws]

    def panels(self, gen: int) -> list[list[int]]:
        """The gen-panels, each in ascending chamber order: the panel of u U_w
        is the coset u U_top, top the longer of w and w*gen, which holds the
        chambers of types w and w*gen inside it."""
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(self.chambers):
            top = max(c.w, self.cox.nf_append(c.w, gen), key=len)
            cells.setdefault(self.chamber_of[top][c.rep], []).append(i)
        return list(cells.values())

    # -- group actions --------------------------------------------------------

    def act_group(self, g: GroupElem, c: ChamberJ) -> ChamberJ:
        return self.canonical(c.w, self.pres.mul(g, GroupElem(c.rep)).bits)

    def decompose(self, bits: int, gen: int) -> tuple[int, int]:
        """g = n * u_gen^eps with n in the kernel of the u_gen retraction."""
        p = self.gen_pos[gen]
        eps = bits >> (p - 1) & 1
        n = self.pres.mul(GroupElem(bits), self.pres.generator(p)).bits if eps else bits
        return n, eps

    def act_tau(self, gen: int, c: ChamberJ, rep: int | None = None) -> ChamberJ:
        """The coset formula for tau_gen, evaluated on a chosen representative."""
        cox = self.cox
        bits = c.rep if rep is None else rep
        n, eps = self.decompose(bits, gen)
        sw = cox.normal_form((gen,) + c.w)
        descent = len(sw) < len(c.w)
        tn = self.pres.map_elem(self.tau_maps[gen], GroupElem(n)).bits
        if descent or eps == 0:
            return self.canonical(sw, tn)
        out = self.pres.mul(GroupElem(tn), self.pres.generator(self.gen_pos[gen])).bits
        return self.canonical(c.w, out)

    def perm_tau(self, gen: int) -> list[int]:
        return [self.index(self.act_tau(gen, c)) for c in self.chambers]

    def perm_group(self, g: GroupElem) -> list[int]:
        return [self.index(self.act_group(g, c)) for c in self.chambers]


def build_CJ(bp: Blueprint, s: int, t: int) -> ChamberSystemJ:
    report = Report(f"build_CJ({bp.name}, {s + 1},{t + 1})")
    return ChamberSystemJ(bp, s, t, report)


# ---------------------------------------------------------------------------
# building verification


def _delta(cs: ChamberSystemJ) -> tuple[list[list[Word]], Report]:
    """Minimal-gallery distance words for all chamber pairs, with a
    well-definedness check (all minimal galleries give one element)."""
    report = Report("delta")
    cox = cs.cox
    n = len(cs.chambers)
    adj = cs.adjacency
    delta: list[list[Word | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        delta[x][x] = ()
        dist = {x: 0}
        frontier = [x]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for y in frontier:
                for gen in (cs.s, cs.t):
                    for z in adj[gen][y]:
                        if z not in dist:
                            dist[z] = d
                            nxt.append(z)
            frontier = nxt
        order = sorted(dist, key=dist.get)
        for y in order:
            if y == x:
                continue
            candidates = set()
            for gen in (cs.s, cs.t):
                for z in adj[gen][y]:
                    if dist[z] == dist[y] - 1:
                        candidates.add(cox.nf_append(delta[x][z], gen))
            report.checks += 1
            if len(candidates) != 1:
                report.add(Violation(axiom="delta", w=cs.chambers[x].label(),
                                     gallery=cs.chambers[y].label(),
                                     expected="unique element", found=str(len(candidates))))
                candidates = {sorted(candidates)[0]}
            word = candidates.pop()
            if len(word) != dist[y]:
                report.add(Violation(axiom="delta", w=cs.chambers[x].label(),
                                     gallery=cs.chambers[y].label(),
                                     expected=f"length {dist[y]}", found=f"length {len(word)}"))
            delta[x][y] = word
    return delta, report  # type: ignore[return-value]


def verify_building(cs: ChamberSystemJ) -> Report:
    """Distance function well-defined, building axioms, thickness 3."""
    report = Report(f"building({cs.bp.name}, m={cs.m})")
    cox = cs.cox
    delta, rep = _delta(cs)
    report.merge(rep)
    n = len(cs.chambers)
    adj = cs.adjacency

    for gen in (cs.s, cs.t):
        for panel in cs.panels(gen):
            report.checks += 1
            if len(panel) != 3:
                report.add(Violation(axiom="thickness", s=str(gen + 1),
                                     expected="3", found=str(len(panel))))

    for x in range(n):
        for y in range(n):
            w = delta[x][y]
            report.checks += 1
            if (w == ()) != (x == y):
                report.add(Violation(axiom="Bu1", w=cs.chambers[x].label(),
                                     gallery=cs.chambers[y].label(),
                                     expected="delta=1 iff equal", found=word_label(w)))
            for gen in (cs.s, cs.t):
                ws = cox.nf_append(w, gen)
                # Bu2 over all z in the gen-panel of y
                for z in adj[gen][y]:
                    report.checks += 1
                    got = delta[x][z]
                    if got not in (w, ws):
                        report.add(Violation(axiom="Bu2", w=cs.chambers[x].label(),
                                             gallery=cs.chambers[z].label(),
                                             expected=f"{word_label(w)} or {word_label(ws)}",
                                             found=word_label(got)))
                    elif len(ws) == len(w) + 1 and got != ws:
                        report.add(Violation(axiom="Bu2", w=cs.chambers[x].label(),
                                             gallery=cs.chambers[z].label(),
                                             expected=word_label(ws), found=word_label(got)))
                # Bu3: some z with delta(y,z) = gen and delta(x,z) = ws
                report.checks += 1
                if not any(delta[x][z] == ws for z in adj[gen][y]):
                    report.add(Violation(axiom="Bu3", w=cs.chambers[x].label(),
                                         gallery=cs.chambers[y].label(), s=str(gen + 1),
                                         expected=word_label(ws), found="missing"))
    return report


def verify_action(cs: ChamberSystemJ, gen: int) -> Report:
    """Well-definedness on every coset representative, adjacency preservation,
    tau^2 = id, (u_gen tau_gen)^3 = id, and the six-element faithfulness table."""
    report = Report(f"action({cs.bp.name}, s={gen + 1})")
    cox = cs.cox

    for c in cs.chambers:
        expected = cs.act_tau(gen, c)
        for rep_bits in cs.coset_members(c.w, c.rep):
            report.checks += 1
            if cs.act_tau(gen, c, rep=rep_bits) != expected:
                report.add(Violation(axiom="well-defined", w=c.label(),
                                     expected=expected.label(),
                                     found=cs.act_tau(gen, c, rep=rep_bits).label()))

    perm_t = cs.perm_tau(gen)
    perm_u = cs.perm_group(cs.pres.generator(cs.gen_pos[gen]))
    n = len(cs.chambers)
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
                                             w=cs.chambers[i].label(),
                                             gallery=cs.chambers[j].label(),
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

    # witness chambers from the faithfulness argument
    c0 = cs.chamber(())
    c_s = cs.chamber((gen,))
    u_c0 = cs.act_group(cs.pres.generator(cs.gen_pos[gen]), c0)
    checks = [
        (cs.act_tau(gen, c0), c_s, "tau.U_1 = U_s"),
        (u_c0 != c0, True, "u.U_1 != U_1"),
        (cs.chambers[six["u*tau"][cs.index(c0)]], c_s, "u*tau.U_1 = U_s"),
        (cs.chambers[six["tau*u"][cs.index(c_s)]], c0, "tau*u.U_s = U_1"),
        (cs.chambers[six["u*tau*u"][cs.index(c_s)]], u_c0, "u*tau*u.U_s = u.U_1"),
    ]
    for got, want, tag in checks:
        report.checks += 1
        if got != want:
            report.add(Violation(axiom="witness", expected=tag, found=str(got)))
    return report


def braid_check(cs: ChamberSystemJ) -> Report:
    """(tau_s tau_t)^m fixes every chamber; movers are listed."""
    report = Report(f"braid({cs.bp.name}, m={cs.m})")
    n = len(cs.chambers)
    ps, pt = cs.perm_tau(cs.s), cs.perm_tau(cs.t)
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
