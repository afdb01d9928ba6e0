"""The displayed-identity suite and the braid conjugation transport."""

from math import inf

import pytest

from rgdkit import appendix as ap
from rgdkit import blueprints as bpmod
from rgdkit.coxeter import ALLOWED_LABELS
from rgdkit.galleries import oriented_gallery


@pytest.mark.parametrize("name", ["rank2:m2", "rank2:m3", "rank2:m4",
                                  "rank2:m6lr", "rank2:m6rl"])
def test_identity_chains(name):
    bp = bpmod.builtin(name)
    report = ap.verify_identity_chains(bp, 0, 1)
    assert report.ok, report.to_text()


def test_identity_suite_size(bp_m6):
    report = ap.verify_identity_chains(bp_m6, 0, 1)
    assert report.checks >= 40  # the hexagon case list alone passes this


def test_numbered_identities_directly(bp_m6):
    from rgdkit.groupforge import presentation_for_gallery
    G = oriented_gallery(bp_m6.cox, 0, 1)
    p = presentation_for_gallery(bp_m6, G)
    # (1) u1 u5 u6 = u6 u4 u3 u1 and (2) u1 u3 u5 = u5 u3 u1
    assert p.collect((1, 5, 6)) == p.collect((6, 4, 3, 1))
    assert p.collect((1, 3, 5)) == p.collect((5, 3, 1))


def test_inconsistent_u_reports_its_witness():
    # one wrong value makes U on Phi(r_J) inconsistent: the suite reports the
    # collection witness, as `residue` does, and runs (and counts) nothing
    bp = bpmod.ingest("rank 2\nm 1 2 4\ndefault rank2\nrel 1.2.1.2 1 3 : 2\n", name="b2-bad")
    report = ap.verify_identity_chains(bp, 0, 1)
    assert report.checks == 0
    assert [(v.axiom, v.gallery, v.found) for v in report.violations] == [
        ("CB3", "1.2.1.2", "(u4 u1) u1 != u4")]


def test_oriented_gallery_follows_direction():
    lr = bpmod.builtin("rank2:m6lr")
    rl = bpmod.builtin("rank2:m6rl")
    assert oriented_gallery(lr.cox, 0, 1).word[0] == 0
    assert oriented_gallery(rl.cox, 0, 1).word[0] == 1


def test_conjugation_check_product_m2(bp_product_b2):
    # quadrangle x A1: braid on the {1,3} pair (m = 2) transports alpha_2 walls
    report = ap.appendix_conjugation_check(bp_product_b2, 0, 2, r=5)
    assert report.ok, report.to_text()
    assert report.checks == 12


def test_conjugation_check_product_m4(bp_product_b2):
    report = ap.appendix_conjugation_check(bp_product_b2, 0, 1, r=5)
    assert report.ok, report.to_text()
    assert report.checks == 16


def test_conjugation_check_product_m3(bp_product_a2):
    report = ap.appendix_conjugation_check(bp_product_a2, 0, 1, r=5)
    assert report.ok, report.to_text()
    assert report.checks == 8


def test_conjugation_check_product_m6(bp_product_g2):
    report = ap.appendix_conjugation_check(bp_product_g2, 0, 1, r=7)
    assert report.ok, report.to_text()
    assert report.checks == 64


def test_conjugation_check_rightangled(bp_rightangled3):
    report = ap.appendix_conjugation_check(bp_rightangled3, 0, 1, r=4)
    assert report.ok, report.to_text()
    assert report.checks == 19
    # deeper roots fall off the representable horizon and are reported
    assert report.notes == ["29 instances unverifiable at radius 4"]
    wide = ap.appendix_conjugation_check(bp_rightangled3, 0, 1, r=3)
    assert any("unverifiable" in note for note in wide.notes)
    assert (wide.checks, wide.skipped) == (9, 1)


def test_suite_tables_fit_their_labels():
    # a suite for every finite label, and each tau step's word avoids the
    # generator at its anchor: tau of that end is defined only without it
    assert sorted(ap._SUITES) == [m for m in ALLOWED_LABELS if m != inf]
    for m, (_, taus) in ap._SUITES.items():
        for anchor, win, _ in taus:
            assert anchor in (1, m) and anchor not in win, (m, anchor, win)
