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

U acts on the chambers by left multiplication, g . u U_w = gu U_w, and
tau_s, tau_t by the coset formula.  In rank 2 the tau_gen are the n_gen of
the RGD-system, so <U, tau_s, tau_t> acts on the building keeping types and
is transitive on its chambers (Abramenko & Brown, *Buildings*, GTM 248,
ch. 7-8).  An automorphism g that keeps each gen-adjacency maps minimal
galleries to minimal galleries of the same type, so delta(g x, g y) =
delta(x, y): the row of g x is the row of x read through g, and every
delta-uniqueness, Bu1, Bu2 and Bu3 outcome at (x, y) is the one at
(g x, g y).  So if such automorphisms carry chamber 0 to every chamber, the
building checks from chamber 0 imply those from every chamber.  The premise
is certified on every run, not assumed: `_orbit_sizes` grows the orbit of
chamber 0 under the permutations among `tau_perm` and `u_perm` that are
bijections with no broken typed edge (`_broken_edges`; the tau perms need
no well-definedness for this, `verify_action` checks it), and certifies no
more of them once the orbit holds every chamber.  It answers one orbit or
the full loop: one delta row on every rank-2 builtin, one per chamber when
the orbit stays short.  If the row of chamber 0 shows any violation, the
checks run from every chamber, so violations and counts are exactly the
full loop's.

The battery runs on small integer tables built once per system: the 2m
elements of <J> are numbered (`w_elements`, id 0 the identity) with their
right and left multiplication tables `rmul`/`lmul`, a W-distance row is a
list of those ids, and tau_gen is read from `tau_table`, its coset formula
evaluated once for every element of U.  No word arithmetic or collection
runs per chamber pair.  The group-side tables are prefix tables
(`PCPres.prefix_table`): a mask y is y without its top letter j, times u_j,
so g y is (g y') u_j, one letter folded onto an earlier entry.  Each coset
is the prefix table of its least member over the letters of U_w's block,
each row of `u_perm` that of u_i over u_1 ... u_k, and tau_gen on N that of
the identity over the gen-images of the letters other than u_gen.
`act_tau` evaluates the coset formula on many representatives of one type
w and reads the part that depends on w once: `tau_perm` calls it once per
type, `verify_action` once per chamber on all its members.
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
        # members[i] lists the coset of chamber i in `coset_members` order.
        # Chambers are numbered type by type, and reps[w] lists the
        # representatives of type w in that order
        self.chambers: list[ChamberJ] = []
        self.members: list[list[int]] = []
        self.chamber_of: dict[Word, list[int]] = {}
        reps: dict[Word, list[int]] = {}
        for w in self.w_elements:
            table = self.chamber_of[w] = [-1] * self.pres.order
            reps[w] = []
            for g in range(self.pres.order):
                if table[g] < 0:
                    coset = self.coset_members(w, g)
                    for x in coset:
                        table[x] = len(self.chambers)
                    self.chambers.append(ChamberJ(w, g))
                    self.members.append(coset)
                    reps[w].append(g)
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
        # the left multiplication of u_i on U, the prefix table of u_i
        self.u_perm: list[list[int]] = []
        letters = range(1, self.pres.k + 1)
        for i in letters:
            left = self.pres.prefix_table(self.pres.generator(i), letters)
            self.u_perm.append([self.chamber_of[c.w][left[c.rep]] for c in self.chambers])
        # tau_table[gen][g] = (eps, tn, tn * u_gen) for g = n * u_gen^eps with n
        # free of u_gen and tn = tau_gen(n), filled at n and n * u_gen for
        # each n; tau_perm[gen][x]: the chamber tau_gen x.  See `act_tau`
        self.tau_table: dict[int, list[tuple[int, int, int]]] = {}
        self.tau_perm: dict[int, list[int]] = {}
        for gen in (s, t):
            p = self.rg.position[gen]
            u = self.pres.generator(p)
            # images[y]: tau_gen of the n in N whose bits other than p are y
            images = self.pres.prefix_table(
                0, [self.rg.tau_maps[gen][i] for i in letters if i != p])
            rows = self.tau_table[gen] = [()] * self.pres.order
            for y, tn in enumerate(images):
                n = (y >> (p - 1) << p) | (y & u - 1)
                tn_u = self.pres.mul(tn, u)
                rows[n] = (0, tn, tn_u)
                rows[self.pres.mul(n, u)] = (1, tn, tn_u)
            self.tau_perm[gen] = [y for w in self.w_elements
                                  for y in self.act_tau(gen, w, reps[w])]

    def coset_members(self, w: Word, g: int) -> list[int]:
        """The coset g U_w, as g x over the submasks x of U_w's bits in
        descending order.  U_w is the low or the high l(w) bits
        (`ResidueGroup.mask`), so these are the prefix table of g over the
        letters of that block, read backwards."""
        shift = 0 if self.rg.mask(w) & 1 else self.pres.k - len(w)
        return self.pres.prefix_table(g, range(shift + 1, shift + len(w) + 1))[::-1]

    def adjacent(self, x: int, y: int, gen: int) -> bool:
        """x ~_gen y for chambers a U_w and b U_w':  w' in {w, w*gen} and
        a^-1 b in U_w union U_{w*gen}."""
        a, b = self.chambers[x], self.chambers[y]
        ws = self.cox.nf_append(a.w, gen)
        if b.w != a.w and b.w != ws:
            return False
        diff = self.pres.mul(self.pres.inv(a.rep), b.rep)
        return not diff & ~self.rg.mask(a.w) or not diff & ~self.rg.mask(ws)

    def act_tau(self, gen: int, w: Word, reps: list[int]) -> list[int]:
        """The coset formula for tau_gen on the chambers g U_w, one for each
        g in `reps`: g U_w with g = n u_gen^eps goes to tn U_{gen w} on a
        descent or when eps = 0, and to tn u_gen U_w otherwise.  The part
        that depends on w alone is read once."""
        sw = self.w_elements[self.lmul[gen][self.w_id[w]]]
        on_sw, on_w = self.chamber_of[sw], self.chamber_of[w]
        descent = len(sw) < len(w)
        rows = self.tau_table[gen]
        out = []
        for g in reps:
            eps, tn, tn_u = rows[g]
            out.append(on_sw[tn] if eps == 0 or descent else on_w[tn_u])
        return out


def build_CJ(bp: Blueprint, s: int, t: int) -> ChamberSystemJ:
    report = Report(f"build_CJ({bp.name}, {s + 1},{t + 1})")
    return ChamberSystemJ(bp, s, t, report)


# ---------------------------------------------------------------------------
# building verification


def _broken_edges(cs: ChamberSystemJ, perm: list[int]) -> list[tuple[int, int, int]]:
    """The directed typed edges (gen, x, y) of `cs.adjacency`, in its order,
    that `perm` does not send to a gen-edge.  On a finite graph a bijection
    with none maps the edges of each type injectively into, so onto, those
    edges: it is an automorphism keeping each type."""
    return [(gen, x, y) for gen, adj in cs.adjacency.items()
            for x, cell in enumerate(adj) for y in cell if perm[y] not in adj[perm[x]]]


def _orbit_sizes(cs: ChamberSystemJ) -> dict[int, int]:
    """One orbit or the full loop: `{0: n}` when the certified automorphisms
    carry chamber 0 to every chamber, and every chamber keyed with size 1
    otherwise.  The candidates are the involutions `cs.tau_perm` and then
    the generator permutations `cs.u_perm`; each is certified as a bijection
    with no `_broken_edges`, and the orbit of chamber 0 is closed under the
    ones certified so far (a permutation's inverse is one of its powers, so
    this is the orbit under the group they generate).  Once the orbit holds
    every chamber no later candidate is read: on `rank2:m6lr` the two tau
    perms and u_1 suffice."""
    n = len(cs.chambers)
    orbit, seen, certified = [0], {0}, []
    for perm in (cs.tau_perm[cs.s], cs.tau_perm[cs.t], *cs.u_perm):
        if len(set(perm)) < n or _broken_edges(cs, perm):
            continue
        certified.append(perm)
        for x in orbit:
            for p in certified:
                if p[x] not in seen:
                    seen.add(p[x])
                    orbit.append(p[x])
        if len(orbit) == n:
            return {0: n}
    return dict.fromkeys(range(n), 1)


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
    """Distance function well-defined, building axioms, thickness 3.  A
    certified automorphism carries the delta row of x, and every outcome
    from x, to those of its image (see the module docstring), so when
    `_orbit_sizes` answers one orbit the checks run from chamber 0, counted
    for every chamber; on any violation there, they run again from every
    chamber."""
    n = len(cs.chambers)
    sizes = _orbit_sizes(cs)
    report = _building(cs, sizes)
    if report.ok or len(sizes) == n:
        return report
    return _building(cs, dict.fromkeys(range(n), 1))


def _building(cs: ChamberSystemJ, sizes: dict[int, int]) -> Report:
    """The checks of `verify_building` on the delta rows of the chambers
    keyed in `sizes`, counted for the chambers each row stands for."""
    report = Report(f"building({cs.bp.name}, m={cs.m})")
    delta, rep = _delta(cs, sizes)
    report.merge(rep)
    n = len(cs.chambers)
    words = cs.w_elements
    chambers = cs.chambers  # labels are rendered for a violation only

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
                report.add(Violation(axiom="Bu1", w=chambers[x].label(),
                                     gallery=chambers[y].label(),
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
                        report.add(Violation(axiom="Bu2", w=chambers[x].label(),
                                             gallery=chambers[z].label(),
                                             expected=f"{word_label(words[w])} or "
                                                      f"{word_label(words[ws])}",
                                             found=word_label(words[got])))
                    elif ascent[w]:
                        report.add(Violation(axiom="Bu2", w=chambers[x].label(),
                                             gallery=chambers[z].label(),
                                             expected=word_label(words[ws]),
                                             found=word_label(words[got])))
                if not reached:
                    report.add(Violation(axiom="Bu3", w=chambers[x].label(),
                                         gallery=chambers[y].label(),
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
        report.checks += len(members)
        for got in cs.act_tau(gen, chambers[x].w, members):
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

    # adjacency preservation for both tau and u, one check per directed edge
    report.checks += 2 * sum(len(cell) for adj in cs.adjacency.values() for cell in adj)
    for perm, tag in ((perm_t, "tau"), (perm_u, "u")):
        for other, i, j in _broken_edges(cs, perm):
            report.add(Violation(axiom="automorphism", s=str(other + 1), w=chambers[i].label(),
                                 gallery=chambers[j].label(), expected="adjacency preserved",
                                 found=tag))

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
