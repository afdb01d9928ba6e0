"""Every violation branch of the chamber battery and of `appendix` fails
once, through the command line: exit 1 (a violation, never 3, an internal
error), with the axiom counts and check counts of its `--report` pinned.

Two inputs fail without damage: the all-empty quadrangle, whose tau maps
are not involutions and whose braid moves chambers, and a rank-3 table
whose U on Phi(r_J) is inconsistent.  The others cannot fail on a coset
system or on the shipped tables, so a built system or a table is damaged
first, as `tests/test_chambers.py::_swap_in_panels` does.
"""

import contextlib
import io
from collections import Counter

from rgdkit import appendix as ap
from rgdkit import chambers as ch
from rgdkit.cli import main
from rgdkit.roots import act

CHAMBERS = ["chambers", "-s", "1", "-t", "2"]
APPENDIX = ["appendix", "-s", "1", "-t", "2"]


def run(argv, tmp_path, text=None):
    """Exit code, violation counts by axiom, and (report name, checks) of
    each SUMMARY; a `text` blueprint is written to a file named `bp`."""
    report = tmp_path / "report.txt"
    if text is not None:
        (tmp_path / "bp").write_text(text)
        argv = ["--blueprint", str(tmp_path / "bp"), *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--report", str(report), *argv])
    lines = report.read_text().splitlines()
    axioms = Counter(line.split()[1].removeprefix("axiom=") for line in lines
                     if line.startswith("VIOLATION"))
    summaries = [(line.split("name=")[1].split("(")[0], int(line.split("checks=")[1].split()[0]))
                 for line in lines if line.startswith("SUMMARY")]
    return code, axioms, summaries, lines


def damaged_build(monkeypatch, damage):
    """`chambers.build_CJ` with `damage(cs)` applied to each system it builds."""
    build = ch.build_CJ

    def build_damaged(bp, s, t):
        cs = build(bp, s, t)
        damage(cs)
        return cs
    monkeypatch.setattr(ch, "build_CJ", build_damaged)


def test_thickness_fails_on_a_panel_of_two(monkeypatch, tmp_path):
    # one 1-panel of the m = 3 system loses a chamber; its adjacency stays
    def thin(cs):
        cs.panels[cs.s][0] = cs.panels[cs.s][0][:2]
    damaged_build(monkeypatch, thin)
    code, axioms, summaries, lines = run(["--builtin", "rank2:m3", *CHAMBERS], tmp_path)
    assert code == 1
    assert axioms == {"thickness": 1}
    assert summaries == [("build_CJ", 4), ("building", 3521), ("action", 238),
                         ("action", 238), ("braid", 21)]
    assert "VIOLATION axiom=thickness w=- s=1 gallery=- i=0 j=0 expected=3 found=2" in lines


def test_bu1_fails_on_an_unreachable_chamber(monkeypatch, tmp_path):
    # the last chamber of the m = 3 system loses every edge: no gallery
    # reaches it, so delta reads the identity between it and each of the
    # other 20 chambers, both ways
    def isolate(cs):
        last = len(cs.chambers) - 1
        for gen in (cs.s, cs.t):
            for cell in cs.adjacency[gen]:
                cell.discard(last)
            cs.adjacency[gen][last] = set()
    damaged_build(monkeypatch, isolate)
    code, axioms, summaries, _ = run(["--builtin", "rank2:m3", *CHAMBERS], tmp_path)
    assert code == 1
    assert axioms == {"Bu1": 40, "Bu2": 76, "Bu3": 106, "delta": 8, "automorphism": 12}
    assert summaries == [("build_CJ", 4), ("building", 3313), ("action", 222),
                         ("action", 222), ("braid", 21)]


def test_tau_squared_and_braid_fail_on_the_all_empty_quadrangle(tmp_path):
    # U on Phi(r_J) is abelian: consistent, but tau_s and tau_t are no
    # involutions on the chambers and (tau_s tau_t)^4 moves 16 of the 45
    code, axioms, summaries, lines = run(
        CHAMBERS, tmp_path, "rank 2\nm 1 2 4\ndefault empty\n")
    assert code == 1
    assert axioms == {"tau^2": 2, "braid": 16, "(us*tau)^3": 2, "automorphism": 36,
                      "well-defined": 16, "delta": 224, "Bu2": 400, "Bu3": 208}
    assert summaries == [("build_CJ", 7), ("building", 16185), ("action", 510),
                         ("action", 510), ("braid", 45)]
    assert lines.count("VIOLATION axiom=tau^2 w=- s=- gallery=- i=0 j=0 "
                       "expected=id found=nontrivial") == 2


def test_a_tau_step_identity_fails_on_a_wrong_table(monkeypatch, tmp_path):
    # the first m = 4 tau step with a wrong image: tau_s . u_t u_{ts} is
    # u_{st} u_{ts}, not u_{st} u_s
    monkeypatch.setitem(ap._SUITES, 4, (ap.M4_EQ, [(1, (4, 3), (2, 1)), *ap.M4_TAU[1:]]))
    code, axioms, summaries, lines = run(["--builtin", "rank2:m4", *APPENDIX], tmp_path)
    assert code == 1
    assert axioms == {"identity": 1}
    assert summaries == [("identities", 3)]
    assert lines[0] == ("VIOLATION axiom=identity w=- s=- gallery=1.2.1.2 i=0 j=0 "
                        "expected=(2, 1) found=tau1(4, 3)")


def test_conjugation_check_reports_an_inconsistent_r_j(tmp_path):
    # one wrong value makes U on Phi(r_J) inconsistent: the identity suite
    # reports the collection witness, the conjugation check runs nothing
    code, axioms, summaries, lines = run(APPENDIX, tmp_path, (
        "rank 3\nm 1 2 4\nm 1 3 2\nm 2 3 2\ndefault rank2\nrel 1.2.1.2 1 3 : 2\n"))
    assert code == 1
    assert axioms == {"CB3": 2}
    assert summaries == [("identities", 0), ("appendix-conj", 0)]
    assert "VIOLATION axiom=CB3 w=r_J s=- gallery=- i=0 j=0 expected=consistent found=not" \
        in lines


A3 = "rank 3\nm 1 2 3\nm 1 3 3\nm 2 3 2\ndefault rank2\n"


def test_braid_conjugation_fails_when_tau_t_acts_trivially(monkeypatch, tmp_path):
    # on type A3 the braid (tau_1 tau_2)^3 fixes every conjugate it can
    # transport; with tau_2 acting trivially on roots it is tau_1^3 = tau_1,
    # which moves the outside roots
    code, axioms, summaries, _ = run(APPENDIX, tmp_path, A3)
    assert (code, axioms) == (4, {})  # some instances unverifiable at radius 4
    assert summaries == [("identities", 1), ("appendix-conj", 18)]
    monkeypatch.setattr(ap, "act", lambda cox, w, root: root if w == (1,) else act(cox, w, root))
    code, axioms, summaries, lines = run(APPENDIX, tmp_path, A3)
    assert code == 1
    assert axioms == {"braid-conj": 9}
    assert summaries == [("identities", 1), ("appendix-conj", 18)]
    assert ("VIOLATION axiom=braid-conj w=(1|3)[1,0,1] s=- gallery=() i=0 j=0 "
            "expected=fixed by the braid found=moved") in lines
