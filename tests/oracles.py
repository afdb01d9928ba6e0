"""Brute-force half-space oracles for root computations.

Chamber membership, prenilpotency and closed root intervals, each read off
its definition by scanning the chambers of a ball.  The engine computes
intervals by the cone and wall-nesting criteria of `roots.interval` and
never needs the other two; these definitions are the tests' independent
cross-checks.  `residue_roots` lists the walls of a rank-2 residue from its
gate, against which the residue groups' galleries are checked.

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
"""

from __future__ import annotations

from math import inf
from weakref import WeakKeyDictionary

from rgdkit.blueprints import Blueprint
from rgdkit.coxeter import CoxeterSystem, Vector, Word, word_label
from rgdkit.errors import CapExceeded, InternalConsistencyError, RgdError
from rgdkit.galleries import Gallery, min_gal, min_gal_s, shift
from rgdkit.groupforge import build_Uw
from rgdkit.reports import Report, Violation
from rgdkit.roots import Residue2, Root, depth, pair_order

# system -> radius -> root vector -> membership bitmask over ball(radius)
MASKS: WeakKeyDictionary[CoxeterSystem, dict[int, dict[Vector, int]]] = WeakKeyDictionary()


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


def relations_by_query(bp: Blueprint, G: Gallery) -> dict[tuple[int, int], tuple[int, ...]]:
    """M^G with every pair i < j queried in row order."""
    n = len(G)
    return {(i, j): bp.query(G, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


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
