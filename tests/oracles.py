"""Brute-force half-space oracles for root computations.

Chamber membership, prenilpotency and closed root intervals, each read off
its definition by scanning the chambers of a ball.  The engine computes
intervals by the cone and wall-nesting criteria of `roots.interval` and
never needs the other two; these definitions are the tests' independent
cross-checks.  `residue_roots` lists the walls of a rank-2 residue from its
gate, against which the residue groups' galleries are checked.

`coroot_pairing_by_expression` pairs with a coroot read off the root's
expression, one `apply_inv` per pairing; the engine reads every pairing of
a root off one cached coroot row (`roots.coroot_row`).

`cb1_full`, `weyl_full` and `cb3_full` are the CB1, Weyl and CB3 loops
without verdict memos: they compare the tables again at every site, where
the validators compare each pair of table numbers that agreed once, and
`cb3_full` runs every overlap test of every element, where `validate_cb3`
certifies each (l(w), table number) key once along the prefix tree.

`ball_by_right_extension`, `reduced_words_by_descent` and `relations_by_query`
build words, galleries and tables from scratch: every right extension
normalized and deduplicated, every left descent tested on vectors and
normalized again, every pair of a gallery queried.  The engine builds each
from a shorter one that is known; these are the cross-checks.

`local_answers_full` sends every pair of every column through
`LocalRank2.value`, where `LocalRank2.answers` screens a column by pairing
products and sends only the pairs with 0 < p < 4 on to `pair_value`.

`tau_on_residue_full` tests tau_s^2 = 1 and (u_s tau_s)^3 = 1 on every
element of N_R, where `tau_on_residue` tests them on the generators once
the relation checks have made tau_s a homomorphism.
`automorphism_edges_full` walks the typed edges of a chamber system one by
one and tests tau_gen and u_gen on each in turn, where `verify_action`
reads each permutation's broken edges off `chambers._broken_edges`.
`root_vectors_by_apply` computes each crossed root of a word with its own
`apply`, where the engine carries the columns of the prefix along or
reads them off the prefix galleries.  `is_reduced` compares a word with its
normal form, where `get_gallery` refuses a word by the sign of the root its
last letter crosses.

`subgroup_closure` and `normal_closure` list the elements of a subgroup of
U_w by breadth-first search, where `groupforge.lower_central_series` holds
each term as an induced pc sequence of at most l(w) elements.

`GeometricRealization` is the Tits representation with B(e_s, e_t) =
-cos(pi/m_st) on vectors of `qf24.QF24` scalars, where the engine computes
in the integer root realization of a generalized Cartan matrix; it is the
engine's differential oracle (`tests/test_realization.py`).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from operator import mul
from typing import Iterable
from weakref import WeakKeyDictionary

from rgdkit.blueprints import Blueprint, LocalRank2, _checked, _pairs
from rgdkit.coxeter import CoxeterSystem, Vector, Word, word_label
from rgdkit.errors import CapExceeded, InternalConsistencyError, RgdError
from rgdkit.galleries import Gallery, min_gal, min_gal_s, shift
from rgdkit.groupforge import PCPres, build_Uw, relation_checks
from rgdkit.parabolics import ResidueGroup, ustausV_identity_check
from rgdkit.qf24 import ONE, QF24, ZERO
from rgdkit.reports import Report, Violation
from rgdkit.roots import Residue2, Root, depth, expression, pair_order

# system -> radius -> root vector -> membership bitmask over ball(radius)
MASKS: WeakKeyDictionary[CoxeterSystem, dict[int, dict[Vector, int]]] = WeakKeyDictionary()


def is_reduced(cox: CoxeterSystem, w: Word) -> bool:
    """True iff the normal form of w is as long as w."""
    return len(cox.normal_form(w)) == len(w)


def is_left_descent(cox: CoxeterSystem, s: int, word: Word) -> bool:
    """True iff l(s*w) = l(w) - 1; `word` must be reduced."""
    return cox.vec_sign(cox.apply_inv(word, cox.basis[s])) < 0


def is_right_descent(cox: CoxeterSystem, word: Word, t: int) -> bool:
    """True iff l(w*t) = l(w) - 1; `word` must be reduced."""
    return cox.vec_sign(cox.apply(word, cox.basis[t])) < 0


def ball_by_right_extension(cox: CoxeterSystem, r: int) -> list[Word]:
    """Normal forms of length <= r: each layer is the set of normal forms
    of w.t for t not a right descent of w, sorted."""
    layers = [[()]]
    for _ in range(r):
        layers.append(sorted({cox.normal_form(w + (t,)) for w in layers[-1]
                              for t in range(cox.rank) if not is_right_descent(cox, w, t)}))
    return [w for layer in layers for w in layer]


def reduced_words_by_descent(cox: CoxeterSystem, w: Word) -> list[Word]:
    """Reduced words of w in lex order: for each left descent s, s followed
    by the reduced words of the normal form of s.w."""
    if not w:
        return [()]
    return [(s,) + tail for s in range(cox.rank) if is_left_descent(cox, s, w)
            for tail in reduced_words_by_descent(cox, cox.normal_form(cox.left_mult(s, w)))]


def root_vectors_by_apply(cox: CoxeterSystem, w: Word) -> list[Vector]:
    """Crossed-root vectors w[:i] . e_{w[i]} of a reduced word, each by one
    `apply`: O(l^2) reflections."""
    return [cox.apply(w[:i], cox.basis[s]) for i, s in enumerate(w)]


def relations_by_query(bp: Blueprint, G: Gallery) -> dict[tuple[int, int], tuple[int, ...]]:
    """M^G with every pair i < j queried in row order."""
    n = len(G)
    return {(i, j): bp.query(G, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def local_answers_full(local: LocalRank2, G: Gallery) -> tuple | None:
    """`LocalRank2.answers` with no screen and no column cache: every value
    M(i, j) by `value`, column by column; None if one raises or leaves
    (i, j)."""
    columns = [()]
    for j in range(1, len(G) + 1):
        try:
            col = tuple(local.value(G, i, j) for i in range(1, j))
        except RgdError:
            return None
        if not all(_checked(i, j, value) for i, value in enumerate(col, 1)):
            return None
        columns.append(col)
    return tuple(columns[j][i - 1] for i, j in _pairs(len(G)))


def coroot_pairing_by_expression(cox: CoxeterSystem, alpha: Root, beta: Root) -> int:
    """<alpha, beta^vee> = <w^-1 . alpha, alpha_t^vee> for beta = w . alpha_t."""
    w, t = expression(cox, beta)
    return sum(map(mul, cox.cartan[t], cox.apply_inv(w, alpha.vec)))


def member(cox: CoxeterSystem, w: Word, alpha: Root) -> bool:
    """Chamber membership: w in alpha iff w^-1 . vec is positive."""
    return cox.vec_sign(cox.apply_inv(w, alpha.vec)) > 0


def prenilpotent(cox: CoxeterSystem, alpha: Root, beta: Root,
                 radius: int | None = None) -> bool:
    """Both positive: true iff some chamber lies outside both half-spaces.

    Finite pair order settles it immediately; otherwise a bounded chamber
    search over ball(dp(alpha) + dp(beta) + 2) looks for a witness.
    """
    if cox.vec_sign(alpha.vec) <= 0 or cox.vec_sign(beta.vec) <= 0:
        raise RgdError("prenilpotent is defined for positive roots")
    if alpha == beta:
        return True
    if pair_order(cox, alpha, beta) != inf:
        return True
    if radius is None:
        radius = depth(cox, alpha) + depth(cox, beta) + 2
    for w in cox.ball(radius):
        if not member(cox, w, alpha) and not member(cox, w, beta):
            return True
    return False


def interval_oracle(cox: CoxeterSystem, alpha: Root, beta: Root, r: int) -> set[Root]:
    """Brute-force [alpha, beta] from the half-space definition over ball(r).

    Candidates are the crossed roots of all chambers in ball(r); gamma
    qualifies iff every ball chamber in alpha^beta lies in gamma and every
    ball chamber in (-alpha)^(-beta) lies outside gamma.
    """
    chambers = cox.ball(r)
    masks = membership_masks(cox, r)
    am, bm = masks[alpha.vec], masks[beta.vec]
    full = (1 << len(chambers)) - 1
    both = am & bm
    neither = full & ~am & ~bm
    out: set[Root] = set()
    for vec, gm in masks.items():
        if both & ~gm:
            continue
        if neither & gm:
            continue
        out.add(Root(vec))
    return out


def membership_masks(cox: CoxeterSystem, r: int) -> dict[Vector, int]:
    """vec -> bitmask over ball(r) chambers of the half-space w in alpha,
    memoized per system in `MASKS`."""
    per_radius = MASKS.setdefault(cox, {})
    cached = per_radius.get(r)
    if cached is not None:
        return cached
    chambers = cox.ball(r)
    index = {w: i for i, w in enumerate(chambers)}
    vecs: set[Vector] = set()
    for w in chambers:
        for v in cox.prefix_root_vectors(w):
            vecs.add(v)
    masks: dict[Vector, int] = {}
    for vec in vecs:
        # BFS propagation: value at chamber w is w^-1 . vec
        carried: dict[Word, Vector] = {(): vec}
        mask = 0
        for w in chambers:  # ball() is ordered by length, so prefixes come first
            if w:
                prev = carried[w[:-1]]
                cur = cox.reflect(w[-1], prev)
                carried[w] = cur
            else:
                cur = vec
            if cox.vec_sign(cur) > 0:
                mask |= 1 << index[w]
        masks[vec] = mask
    per_radius[r] = masks
    return masks


def residue_roots(cox: CoxeterSystem, R: Residue2) -> list[Root]:
    """Phi(R): the m positive roots whose walls run through the residue."""
    s, t = R.J
    m = int(cox.matrix.m(s, t))
    g = R.base
    word = tuple(s if i % 2 == 0 else t for i in range(m))
    out = []
    for i in range(m):
        vec = cox.apply(g + word[:i], cox.basis[word[i]])
        out.append(Root(vec, (cox.normal_form(g + word[:i]), word[i])))
    if len({r.vec for r in out}) != m:
        raise InternalConsistencyError("residue walls are not distinct")
    return out


def cb1_full(bp: Blueprint, r: int, gallery_cap: int = 10_000) -> Report:
    """`validate_cb1` comparing every prefix table with its extension's."""
    report = Report(f"CB1({bp.name}, r={r})")
    cox = bp.cox
    for w in cox.ball(r):
        try:
            gals = min_gal(cox, w, gallery_cap)
        except CapExceeded:
            report.skip(f"skipped w={word_label(w)}: more than {gallery_cap} galleries")
            continue
        for G in gals:
            full = bp.relations(G)
            for m in range(1, len(G)):
                H = G.prefix(m)
                report.checks += m * (m + 1) // 2
                for (i, j), got_h in bp.relations(H).items():
                    got_g = full[(i, j)]
                    if got_h != got_g:
                        report.add(Violation(
                            axiom="CB1", w=word_label(w), gallery=H.label(),
                            i=i, j=j,
                            expected=",".join(map(str, got_g)) or "-",
                            found=",".join(map(str, got_h)) or "-"))
    return report


def weyl_full(bp: Blueprint, r: int, gallery_cap: int = 10_000) -> Report:
    """`validate_weyl` comparing every table with its shifted table."""
    report = Report(f"Weyl({bp.name}, r={r})")
    cox = bp.cox
    for w in cox.ball(r):
        for s in range(cox.rank):
            try:
                gals = min_gal_s(cox, w, s, gallery_cap)
            except CapExceeded:
                report.skip(f"skipped w={word_label(w)}: more than {gallery_cap} galleries")
                break
            for G in gals:
                sG = shift(G, s)
                d = len(sG) - len(G)
                n = len(G) - (d < 0)
                report.checks += n * (n + 1) // 2
                table, table_s = bp.relations(G), bp.relations(sG)
                for (i, j), value in table.items():
                    if i + d < 1:
                        continue
                    image = tuple(p + d for p in value)
                    shifted = table_s[(i + d, j + d)]
                    if image != shifted:
                        report.add(Violation(
                            axiom="Weyl", w=word_label(w), s=str(s + 1),
                            gallery=G.label(), i=i, j=j,
                            expected=",".join(map(str, image)) or "-",
                            found=",".join(map(str, shifted)) or "-"))
    return report


def cb3_full(bp: Blueprint, r: int, cap_galleries: int = 10_000,
             cap_group_bits: int = 24) -> Report:
    """`validate_cb3` with a fresh memo, so every overlap test, per element."""
    report = Report(f"CB3({bp.name}, r={r})")
    for w in bp.cox.ball(r):
        if len(w) > cap_group_bits:
            report.skip(f"skipped w={word_label(w)}: exceeds group bit cap")
            continue
        report.merge(build_Uw(bp, w, cap_galleries)[1])
    return report


def tau_on_residue_full(rg: ResidueGroup) -> Report:
    """`tau_on_residue` with tau_s^2 = 1 and (u_s tau_s)^3 = 1 tested on
    every element of N_R, whatever the relation checks found."""
    report = Report(f"tau({rg.bp.name}, R={rg.residue.label()}, s={rg.s + 1})")
    pres = rg.pres
    report.checks += 1
    if not pres.consistency_check():
        report.add(Violation(axiom="CB3", gallery=rg.gallery.label(),
                             expected="consistent", found=pres.inconsistency_witness))
        return report
    tau_s = rg.tau_maps[rg.s]
    report.checks += len(pres.rel) + len(tau_s)
    relation_checks(pres.rel, tau_s, pres, report,
                    axiom="Weyl", gallery=rg.gallery.label())
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
    if not all(ustausV_identity_check(rg, a) for a in rg.gallery.roots[1:]):
        report.add(Violation(axiom="ustausV", gallery=rg.gallery.label(),
                             expected="equal", found="differs"))
    return report


def automorphism_edges_full(cs, gen: int) -> list[tuple[int, int, int, str]]:
    """The directed typed edges (other, i, j) that tau_gen or u_gen does not
    send to an other-edge, each with "tau" or "u", walked edge by edge with
    both permutations tested on each edge."""
    perm_t, perm_u = cs.tau_perm[gen], cs.u_perm[cs.rg.position[gen] - 1]
    adj = cs.adjacency
    out = []
    for other in (cs.s, cs.t):
        for i in range(len(cs.chambers)):
            for j in adj[other][i]:
                for perm, tag in ((perm_t, "tau"), (perm_u, "u")):
                    if perm[j] not in adj[other][perm[i]]:
                        out.append((other, i, j, tag))
    return out


def subgroup_closure(pres: PCPres, gens: Iterable[int],
                     cap: int = 1 << 24) -> set[int]:
    """Subgroup generated by `gens`, as an explicit element set (BFS)."""
    gens = list(gens)
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pres.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > cap:
                        raise CapExceeded(f"subgroup closure cap {cap} exceeded")
        frontier = new
    return seen


def normal_closure(pres: PCPres, seed: Iterable[int],
                   cap: int = 1 << 24) -> set[int]:
    """Smallest normal subgroup containing `seed` (conjugation by the
    presentation generators suffices since they generate)."""
    gens = {x for x in seed if x}
    group_gens = [pres.generator(i) for i in range(1, pres.k + 1)]
    while True:
        closure = subgroup_closure(pres, gens, cap)
        new = {pres.conj(g, x) for x in closure for g in group_gens} - closure
        if not new:
            return closure
        gens |= new


# cos(pi/m) for every allowed label
_COS = {2: ZERO, 3: QF24.of(Fraction(1, 2)), 4: QF24.of(0, Fraction(1, 2)),
        6: QF24.of(0, 0, Fraction(1, 2)), inf: ONE}


class GeometricRealization:
    """Tits representation of a Coxeter matrix on vectors of QF24 scalars."""

    def __init__(self, matrix):
        n = self.rank = matrix.rank
        self.bilinear = tuple(
            tuple(ONE if i == j else -_COS[matrix.m(i, j)] for j in range(n))
            for i in range(n))
        self.basis = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))

    def bform(self, u, v) -> QF24:
        total = ZERO
        for ui, row in zip(u, self.bilinear):
            for bij, vj in zip(row, v):
                total = total + ui * bij * vj
        return total

    def reflect(self, s: int, v):
        """sigma_s(v) = v - 2 B(e_s, v) e_s."""
        coeff = self.bform(self.basis[s], v)
        out = list(v)
        out[s] = v[s] - (coeff + coeff)
        return tuple(out)

    def apply(self, word, v):
        for s in reversed(word):
            v = self.reflect(s, v)
        return v

    @staticmethod
    def vec_sign(v) -> int:
        """+1 for a positive vector, -1 for a negative one."""
        signs = {c.sign() for c in v} - {0}
        if len(signs) != 1:
            raise ValueError(f"mixed-sign or zero vector is not a root image: {v}")
        return signs.pop()

    def pair_order(self, u, v) -> float:
        """Order of r_u r_v for unit roots u != +-v, matched from |B(u, v)|^2."""
        b = self.bform(u, v)
        b2 = b * b
        if (b2 - ONE).sign() >= 0:
            return inf
        return {ZERO: 2, QF24.of(Fraction(1, 4)): 3, QF24.of(Fraction(1, 2)): 4,
                QF24.of(Fraction(3, 4)): 6}[b2]
