"""The proof's lemma checks fail only where Weyl-invariance or CB3 fails.

`rgdkit validate` checks CB1, CB2, Weyl-invariance and CB3 on a ball and
runs none of the lemma checks of `tests/lemma_checks.py`: the paper's proof
derives each of those lemmas from Weyl-invariance and CB3.  This module runs
every lemma check on every instance inside the ball of each table of a
corpus that passes both Weyl and CB3, and asserts that it passes there.

The corpus is the fixtures, valid and mutated, the single-entry mutants of
`tests/test_mutations.py`, and all-empty tables (every commutator trivial)
on the dihedral types m = 3, 4, 6, with both hexagon orientations, and on
the rank-3 product types.  No mutant passes both Weyl and CB3, so on them
the implication holds vacuously; the all-empty tables break CB2 alone, so
they are invalid tables on which the lemma checks do run.
"""

from collections import Counter

from rgdkit import blueprints as bpmod
from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
from rgdkit.galleries import get_gallery, min_gal_s
from rgdkit.groupforge import build_Uw, validate_cb3
from rgdkit.roots import act, phi_w, simple_root
from tests.conftest import fixture_path
from tests.lemma_checks import (gallery_independence_check, tau_conjugation_check,
                                tau_on_truncation, vws_iso_check)
from tests.oracles import is_left_descent, prenilpotent
from tests.test_mutations import CASES, _mutants

# (fixture, radius): the finite types up to their longest element
FIXTURES = [
    ("b2_full.bp", 4), ("g2_full.bp", 6), ("rank3_a2_product.bp", 4),
    ("rank3_b2_product.bp", 5), ("rank3_g2_product.bp", 7), ("rank3_cycle444.bp", 4),
    ("rightangled3_allempty.bp", 4), ("universal3_allempty.bp", 4),
    ("b2_cb1_mutated.bp", 4), ("b2_cb2_mutated.bp", 4), ("g2_weyl_mutated.bp", 6),
]

# (name, Coxeter matrix, radius) of the all-empty tables
ALL_EMPTY = [
    ("m3", CoxeterMatrix.dihedral(3), 3),
    ("m4", CoxeterMatrix.dihedral(4), 4),
    ("m6lr", CoxeterMatrix.dihedral(6, direction=(1, 0)), 6),
    ("m6rl", CoxeterMatrix.dihedral(6, direction=(0, 1)), 6),
    ("a2xA1", CoxeterMatrix.from_dict(3, {(0, 1): 3, (0, 2): 2, (1, 2): 2}), 4),
    ("b2xA1", CoxeterMatrix.from_dict(3, {(0, 1): 4, (0, 2): 2, (1, 2): 2}), 5),
    ("g2xA1", CoxeterMatrix.from_dict(3, {(0, 1): 6, (0, 2): 2, (1, 2): 2},
                                      frozenset({(1, 0)})), 7),
]


def _corpus():
    """(name, blueprint, radius) for every table of the corpus."""
    for name, r in FIXTURES:
        yield name, bpmod.ingest_path(fixture_path(name)), r
    for name, matrix, r in ALL_EMPTY:
        yield f"allempty:{name}", bpmod.FileTable(CoxeterSystem(matrix), {}, name=name), r
    for name, r, _ in CASES:
        for label, mutant in _mutants(bpmod.ingest_path(fixture_path(name)), r):
            yield f"{name} {label}", mutant, r


def _lemma_failures(bp, r, ran):
    """Run every lemma check on its instances inside ball(r), counting them
    in `ran`; return the instances that fail."""
    cox = bp.cox
    ball = cox.ball(r)
    failed = []

    def run(check, instance, ok):
        ran[check] += 1
        if not ok:
            failed.append(f"{check} {instance}")

    for s in range(cox.rank):
        descents = [w for w in ball if w and is_left_descent(cox, s, w)]
        for w in ball:
            if w in descents:
                run("vws_iso_check", (w, s), vws_iso_check(bp, w, s).ok)
            elif len(w) < r:
                run("tau_on_truncation", (w, s), tau_on_truncation(bp, w, s).ok)
        # pairs w, w' of Min_s galleries crossing a common root alpha != alpha_s
        for a, w in enumerate(descents):
            crossed = min_gal_s(cox, w, s)[0].roots[1:]
            for w2 in descents[a:]:
                shared = set(min_gal_s(cox, w2, s)[0].roots)
                for alpha in crossed:
                    if alpha in shared:
                        rep = gallery_independence_check(bp, w, w2, s, alpha)
                        run("gallery_independence_check", (w, w2, s, alpha.describe()), rep.ok)
    # roots beta beyond the s-wall, from the walls crossed within ball(2)
    betas = {root.vec: root for w in cox.ball(2) for root in phi_w(cox, w)}
    for s in range(cox.rank):
        alpha_s = simple_root(cox, s)
        for beta in betas.values():
            if beta != alpha_s and not prenilpotent(cox, alpha_s, beta):
                verdict = tau_conjugation_check(bp, s, beta, radius=r)
                if not verdict.startswith("unrepresentable"):
                    run("tau_conjugation_check", (s, beta.describe()), verdict == "verified")
    return failed


def test_lemma_checks_pass_wherever_weyl_and_cb3_pass():
    ran = Counter()
    failures = []
    outcomes = Counter()
    invalid_but_run = []
    for name, bp, r in _corpus():
        weyl, cb3 = bpmod.validate_weyl(bp, r).ok, validate_cb3(bp, r).ok
        outcomes[weyl, cb3] += 1
        if not (weyl and cb3):
            continue
        failures += [f"{name}: {f}" for f in _lemma_failures(bp, r, ran)]
        if not (bpmod.validate_cb1(bp, r).ok and bpmod.validate_cb2(bp).ok):
            invalid_but_run.append(name)
    assert failures == []
    assert sum(outcomes.values()) == 8 + 3 + len(ALL_EMPTY) + 160
    # only the valid fixtures and the all-empty tables pass both
    assert outcomes[True, True] == 8 + len(ALL_EMPTY)
    # the implication is tested on tables that validate rejects, too
    assert sorted(invalid_but_run) == sorted(f"allempty:{name}" for name, _, _ in ALL_EMPTY)
    assert set(ran) == {"vws_iso_check", "tau_on_truncation", "gallery_independence_check",
                        "tau_conjugation_check"}


def test_lemma_checks_fail_on_a_table_that_breaks_weyl():
    # the checks above are not vacuous: on the CB1 mutant of the B2 table,
    # which Weyl-invariance rejects too, three of them find failing instances
    bp = bpmod.ingest_path(fixture_path("b2_cb1_mutated.bp"))
    assert not bpmod.validate_weyl(bp, 4).ok
    failed = {f.split()[0] for f in _lemma_failures(bp, 4, Counter())}
    assert failed == {"vws_iso_check", "tau_on_truncation", "gallery_independence_check"}


def test_tau_conjugation_check_fails_on_a_table_that_breaks_weyl():
    # the failing branch of the fourth check, on universal3 at radius 4 with
    # beta = s_1 . (root 4 of 1.2.1.2): the check collects in U_{2.1.2}, which
    # is consistent, and the relation it collects there is not trivial
    cox = CoxeterSystem(CoxeterMatrix.universal(3))
    beta = act(cox, (0,), get_gallery(cox, (0, 1, 0, 1)).root(4))
    assert beta.describe() == "(2.1|2)[2,3,0]"
    both = bpmod.FileTable(cox, {((0, 1, 0, 1), 1, 4): (3,), ((0, 1, 0, 1), 1, 3): (2,)})
    assert build_Uw(both, (1, 0, 1))[1].ok
    assert tau_conjugation_check(both, 0, beta, radius=4) == "failed"
    # the implication still holds: CB1 and Weyl-invariance reject this table
    assert not bpmod.validate_cb1(both, 4).ok and not bpmod.validate_weyl(both, 4).ok
    # without M(1, 3) = {2} the relation collects to 1
    one = bpmod.FileTable(cox, {((0, 1, 0, 1), 1, 4): (3,)})
    assert tau_conjugation_check(one, 0, beta, radius=4) == "verified"
