"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact (frozen from the stated tables or from
independent oracles); runtime bounds are asserted with time.perf_counter.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from rgdkit import appendix as ap
from rgdkit import blueprints as bpmod
from rgdkit import chambers as ch
from rgdkit import groupforge as gf
from rgdkit import parabolics as pb
from rgdkit import roots as rt
from rgdkit.galleries import min_gal
from tests.conftest import fixture_path
from tests.coset_enum import group_order, relators
from tests.oracles import interval_oracle


@contextmanager
def criterion(num, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


# -- 1: rank-2 Moufang tables -------------------------------------------------

@pytest.mark.parametrize("name,order", [("rank2:m3", 8), ("rank2:m4", 16),
                                        ("rank2:m6lr", 64)])
def test_criterion_1_rank2_tables(name, order):
    with criterion(1, f"rank-2 tables {name}", 1.0):
        bp = bpmod.builtin(name)
        assert bpmod.validate_cb1(bp, 6).ok
        assert bpmod.validate_cb2(bp).ok
        w0 = bp.cox.longest_element((0, 1))
        assert len(min_gal(bp.cox, w0)) == 2  # both reduced words cross-checked
        pres, report = gf.build_Uw(bp, w0)
        assert pres.consistent and report.ok
        assert pres.order == order


# -- 2: appendix identity suite ------------------------------------------------

def test_criterion_2_identity_suite():
    with criterion(2, "displayed identity suite", 1.0):
        total = 0
        for name in ("rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr"):
            report = ap.verify_identity_chains(bpmod.builtin(name), 0, 1)
            assert report.ok, report.to_text()
            total += report.checks
        assert total >= 40


# -- 3: residue automorphisms ---------------------------------------------------

def test_criterion_3_residue_tau():
    with criterion(3, "residue tau verification", 1.0):
        cases = [("rank2:m2", 0), ("rank2:m3", 0), ("rank2:m4", 0),
                 ("rank2:m6lr", 0), ("rank2:m6lr", 1)]
        for name, s in cases:
            bp = bpmod.builtin(name)
            rg = pb.build_residue_group(bp, s, 1 - s)
            report = pb.tau_on_residue(rg)
            assert report.ok, report.to_text()
            for alpha in rg.gallery.roots[1:]:
                assert pb.ustausV_identity_check(rg, alpha)


# -- 4: chamber systems ----------------------------------------------------------

@pytest.mark.parametrize("name,count,budget", [
    ("rank2:m2", 9, 3.0), ("rank2:m3", 21, 3.0),
    ("rank2:m4", 45, 3.0), ("rank2:m6lr", 189, 3.0),
])
def test_criterion_4_chamber_systems(name, count, budget):
    with criterion(4, f"chambers {name}", budget):
        cs = ch.build_CJ(bpmod.builtin(name), 0, 1)
        assert len(cs.chambers) == count
        assert ch.verify_building(cs).ok
        assert ch.verify_action(cs, 0).ok
        assert ch.verify_action(cs, 1).ok
        assert ch.braid_check(cs).ok


# -- 5: Weyl-invariance at scale -------------------------------------------------

def test_criterion_5_weyl_at_scale():
    with criterion(5, "Weyl-invariance radius 6", 30.0):
        for name in ("rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl"):
            assert bpmod.validate_weyl(bpmod.builtin(name), 6).ok
        universal = bpmod.ingest_path(fixture_path("universal3_allempty.bp"))
        assert bpmod.validate_weyl(universal, 6).ok
        mutated = bpmod.ingest_path(fixture_path("g2_weyl_mutated.bp"))
        report = bpmod.validate_weyl(mutated, 6)
        assert not report.ok
        assert any(v.gallery == "2.1.2.1.2.1" and (v.i, v.j) == (2, 6)
                   for v in report.violations)


# -- 6: oracle equivalences -------------------------------------------------------

def test_criterion_6_interval_oracle_equivalence():
    with criterion(6, "interval cone = half-space oracle", 120.0):
        setups = [("rank2:m2", 2), ("rank2:m3", 3), ("rank2:m4", 4),
                  ("rank2:m6lr", 6), ("allempty:universal3", 7)]
        for name, oracle_r in setups:
            bp = bpmod.builtin(name)
            cox = bp.cox
            for w in cox.ball(6):
                for G in min_gal(cox, w):
                    for i in range(1, len(G) + 1):
                        for j in range(i, len(G) + 1):
                            cone = rt.interval(cox, G.root(i), G.root(j), G)
                            oracle = interval_oracle(cox, G.root(i), G.root(j), oracle_r)
                            assert set(cone) == oracle, (name, w, i, j)


def test_criterion_6_consistency_oracle_agreement():
    with criterion(6, "consistency = enumeration oracle", 60.0):
        def raw(k, rel):
            full = {(i, j): rel.get((i, j), ())
                    for i in range(1, k + 1) for j in range(i + 1, k + 1)}
            return gf.PCPres(k, full)

        checked = 0
        for r13 in [(), (2,)]:
            for r24 in [(), (3,)]:
                for r14 in [(), (2,), (3,), (2, 3)]:
                    p = raw(4, {(1, 3): r13, (2, 4): r24, (1, 4): r14})
                    assert p.consistency_check() == (group_order(4, relators(p)) == 16)
                    checked += 1
        for r13 in [(), (2,)]:
            p = raw(3, {(1, 3): r13})
            assert p.consistency_check() == (group_order(3, relators(p)) == 8)
            checked += 1
        assert checked == 18


# -- 7: property suites ------------------------------------------------------------

def test_criterion_7_property_suites():
    with criterion(7, "volume property suites", 60.0):
        rng = random.Random(20240809)

        # collection determinism and idempotence, 10^4 words per presentation
        presentations = []
        for name in ("rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl"):
            bp = bpmod.builtin(name)
            pres, rep = gf.build_Uw(bp, bp.cox.longest_element((0, 1)))
            assert rep.ok
            presentations.append(pres)
        for pres in presentations:
            for _ in range(10_000):
                word = [rng.randint(1, pres.k) for _ in range(rng.randint(0, 12))]
                nf = pres.collect(word)
                assert pres.collect(word) == nf
                assert pres.collect(pres.word_of(nf)) == nf

        # normal forms stable under 10^4 random elementary rewrites
        systems = [bpmod.builtin(n).cox for n in ("rank2:m3", "rank2:m4", "rank2:m6lr")]
        for cox in systems:
            m = int(cox.matrix.m(0, 1))
            braid_a = tuple(0 if k % 2 == 0 else 1 for k in range(m))
            braid_b = tuple(1 if k % 2 == 0 else 0 for k in range(m))
            for _ in range(3400):
                word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
                rewritten = list(word)
                for _ in range(rng.randint(1, 3)):
                    kind = rng.randint(0, 1)
                    pos = rng.randint(0, len(rewritten))
                    if kind == 0:
                        gen = rng.randint(0, 1)
                        rewritten[pos:pos] = [gen, gen]
                    else:
                        found = False
                        for start in range(len(rewritten) - m + 1):
                            window = tuple(rewritten[start:start + m])
                            if window == braid_a:
                                rewritten[start:start + m] = braid_b
                                found = True
                                break
                            if window == braid_b:
                                rewritten[start:start + m] = braid_a
                                found = True
                                break
                        if not found:
                            rewritten[pos:pos] = [0, 0]
                assert cox.normal_form(tuple(rewritten)) == cox.normal_form(word)

        # the exchange property on balls of radius 5 of every built-in type
        for name in ("rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr",
                     "allempty:universal3"):
            cox = bpmod.builtin(name).cox
            lengths = {w: len(w) for w in cox.ball(7)}
            for w in cox.ball(5):
                for s in range(cox.rank):
                    sw = cox.normal_form((s,) + w)
                    for t in range(cox.rank):
                        wt = cox.normal_form(w + (t,))
                        swt = cox.normal_form((s,) + w + (t,))
                        for eps in (1, -1):
                            if len(sw) == len(w) + eps == len(wt):
                                assert len(swt) == len(w) + 2 * eps or swt == w

        # all-empty universal blueprint: every truncation is elementary abelian
        universal = bpmod.ingest_path(fixture_path("universal3_allempty.bp"))
        for w in universal.cox.ball(6):
            pres, rep = gf.build_Uw(universal, w)
            assert rep.ok
            expected = 1 if w else 0
            assert len(gf.lower_central_series(pres)) - 1 == expected  # nilpotency class
