"""The proof's lemma checks, kept as test oracles.

Each check computes, on a finite piece of a blueprint, one statement that the
paper's proof derives from Weyl-invariance and CB3, the hypotheses that
`rgdkit validate` checks on the ball.  So none of them can fail on a table
that passes both; `tests/test_lemma_implications.py` asserts exactly that.

- `vws_iso_check`: V_{w,s} = <u_alpha : alpha in Phi(w), alpha != alpha_s>
  maps onto U_{sw} by u_alpha -> u_{s.alpha}.
- `tau_on_truncation`: the same generator map is an injective homomorphism
  U_w -> U_{sw} when s is an ascent of w.
- `gallery_independence_check`: the s-image of M^G_{alpha_s, alpha} does
  not depend on the gallery G in Min_s(w).
- `tau_conjugation_check`: tau_s^2 = 1 on u_s u_beta u_s for a root beta
  beyond the s-wall.
"""

from __future__ import annotations

from typing import Sequence

from rgdkit.blueprints import Blueprint
from rgdkit.coxeter import CoxeterSystem, Word, word_label
from rgdkit.errors import RgdError
from rgdkit.galleries import Gallery, get_gallery, min_gal_s, shift
from rgdkit.groupforge import (PCPres, build_Uw, presentation_for_gallery, relation_checks,
                               subgroup_closure)
from rgdkit.reports import Report, Violation
from rgdkit.roots import Root, act, simple_root

from tests.oracles import is_left_descent, prenilpotent


def reflected_into(cox: CoxeterSystem, s: int, roots: Sequence[Root],
                   target: PCPres) -> dict[int, int]:
    """{i: position in `target` of s.roots[i-1]} for every root but alpha_s:
    the generator map u_alpha -> u_{s.alpha} from one gallery's group into
    the group of another."""
    alpha_s = simple_root(cox, s)
    return {i: target.position(Root(cox.reflect(s, root.vec)))
            for i, root in enumerate(roots, start=1) if root != alpha_s}


def vws_iso_check(bp: Blueprint, w: Word, s: int) -> Report:
    """Verify that u_alpha -> u_{s.alpha} maps V_{w,s} isomorphically onto
    U_{sw}.  Requires l(sw) = l(w) - 1.

    V_{w,s} sits in U_w over a gallery G of type (s, ...) as the generators
    u_2 ... u_k.  A relation value for i, j >= 2 lies strictly between i and
    j, so once U_w is consistent, u_2 ... u_k collect among themselves to the
    2^(k-1) masks without the u_1 bit, and their presentation is the
    restriction of U_w's: only the map onto U_{sw} is left to check."""
    cox = bp.cox
    w = cox.normal_form(w)
    report = Report(f"Vws({bp.name}, w={word_label(w)}, s={s + 1})")
    if not (w and is_left_descent(cox, s, w)):
        raise RgdError("vws_iso_check needs s to be a left descent of w")
    sw = cox.normal_form(cox.left_mult(s, w))
    G = get_gallery(cox, (s,) + sw)
    pres_u = presentation_for_gallery(bp, G)
    if not pres_u.consistency_check():
        report.add(Violation(axiom="CB3", w=word_label(w), gallery=G.label(),
                             expected="consistent", found="inconsistent"))
        return report

    pres_sw, rep_sw = build_Uw(bp, sw)
    report.merge(rep_sw)
    image_pos = reflected_into(cox, s, G.roots, pres_sw)
    report.checks += 1
    if sorted(image_pos.values()) != list(range(1, pres_sw.k + 1)):
        report.add(Violation(axiom="Vws", w=word_label(w),
                             expected="bijection on generators", found=str(image_pos)))
    relation_checks(pres_u.rel, image_pos, pres_sw, report,
                    axiom="Vws", w=word_label(w), gallery=G.label())
    return report


def gallery_independence_check(bp: Blueprint, w: Word, w_prime: Word, s: int,
                               alpha: Root) -> Report:
    """prod u_{s.gamma} over M^G_{alpha_s, alpha} agrees for every pair of
    galleries G in Min_s(w), H in Min_s(w'); compared in U_{sw} and U_{sw'}."""
    cox = bp.cox
    w, w_prime = cox.normal_form(w), cox.normal_form(w_prime)
    report = Report(f"gallery-independence({bp.name}, s={s + 1})")
    for v in (w, w_prime):
        if not (v and is_left_descent(cox, s, v)):
            raise RgdError("both words need s as a left descent")
    gs = min_gal_s(cox, w, s)
    hs = min_gal_s(cox, w_prime, s)

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
    if w and is_left_descent(cox, s, w):
        raise RgdError("tau_on_truncation needs l(sw) = l(w) + 1")
    pres_w, rep_w = build_Uw(bp, w)
    report.merge(rep_w)
    sw = cox.normal_form((s,) + w)
    pres_sw, rep_sw = build_Uw(bp, sw)
    report.merge(rep_sw)
    if not report.ok:
        return report
    image_pos = reflected_into(cox, s, pres_w.gallery.roots, pres_sw)
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
    if prenilpotent(cox, alpha_s, beta):
        raise RgdError("beta must lie beyond the s-wall (non-prenilpotent pair)")
    s_beta = act(cox, (s,), beta)

    G = None
    for v in cox.ball(radius):
        if v and is_left_descent(cox, s, v):
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

    image = reflected_into(cox, s, G.roots, pres)
    table = bp.relations(G)
    m_set = table.get((1, G.position(s_beta)), ())
    word: list[int] = []
    for g in m_set:
        word += [image[d] for d in table[(1, g)]]
        word.append(image[g])
    word += [image[g] for g in m_set]
    return "verified" if pres.collect(word) == 0 else "failed"
