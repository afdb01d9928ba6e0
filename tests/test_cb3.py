"""CB3 along the prefix tree against the full loop.

`validate_cb3` runs only the overlap tests that involve the last generator
when the base gallery's prefix was certified with the restricted table.
The full loop, `build_Uw` per element with every overlap test, is the
oracle: both must give the same report on valid and mutated tables.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import cli
from rgdkit.coxeter import word_label
from rgdkit.groupforge import PCPres, build_Uw, validate_cb3
from rgdkit.reports import Report
from tests.conftest import fixture_path
from tests.test_mutations import CASES, _mutants

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def cb3_full(bp, r, cap_galleries=10_000, cap_group_bits=24):
    report = Report(f"CB3({bp.name}, r={r})")
    for w in bp.cox.ball(r):
        if len(w) > cap_group_bits:
            report.skip(f"skipped w={word_label(w)}: exceeds group bit cap")
            continue
        report.merge(build_Uw(bp, w, cap_galleries)[1])
    return report


def assert_same(a, b):
    assert a.to_text() == b.to_text()
    assert a.machine_lines() == b.machine_lines()
    assert a.checks == b.checks


@pytest.fixture
def tops(monkeypatch):
    """{base gallery word: top} of every consistency check that runs."""
    seen = {}
    original = PCPres.consistency_check

    def spy(pres, top=1):
        seen[pres.gallery.word] = top
        return original(pres, top)
    monkeypatch.setattr(PCPres, "consistency_check", spy)
    return seen


@pytest.mark.parametrize("name,r", [(case[0], case[1]) for case in CASES],
                         ids=[case[0] for case in CASES])
def test_prefix_tree_matches_full_loop_on_every_mutant(name, r):
    bp = bpmod.ingest_path(fixture_path(name))
    assert_same(validate_cb3(bp, r), cb3_full(bp, r))
    failing = 0
    for _, mutant in _mutants(bp, r):
        fast = validate_cb3(mutant, r)
        assert_same(fast, cb3_full(mutant, r))
        failing += not fast.ok
    if name == "g2_full.bp":
        assert failing >= 15  # at least the mutants only CB3 catches


def test_prefix_tree_falls_back_when_the_prefix_table_differs(tops):
    # universal3 with M(1, 3) = {2} on the gallery 1.2.3.1 only: its prefix
    # 1.2.3 has the empty value there, and so do its extensions 1.2.3.1.s
    base = bpmod.builtin("allempty:universal3")
    bp = bpmod.FileTable(base.cox, {((0, 1, 2, 0), 1, 3): (2,)}, name="broken-cb1")
    assert not bpmod.validate_cb1(bp, 5).ok
    fast = validate_cb3(bp, 5)
    assert fast.ok
    assert tops[(0, 1, 2, 0)] == 1
    assert tops[(0, 1, 2, 0, 1)] == tops[(0, 1, 2, 0, 2)] == 1
    assert tops[(0, 1, 2, 1)] == 4
    assert_same(fast, cb3_full(bp, 5))


def test_prefix_tree_takes_the_shortcut_on_universal3(tops):
    bp = bpmod.builtin("allempty:universal3")
    report = validate_cb3(bp, 6)
    assert report.ok and report.checks == sum(1 for _ in bp.cox.ball(6))
    assert len(tops) == report.checks
    assert all(top == len(word) for word, top in tops.items() if word)
    assert_same(report, cb3_full(bp, 6))


def test_full_loop_runs_every_overlap_test(tops):
    bp = bpmod.builtin("allempty:universal3")
    cb3_full(bp, 4)
    assert set(tops.values()) == {1}


def _cb3_only_mutant(tmp_path):
    """g2_full.bp with one hexagon value that only CB3 sees is wrong."""
    text = pathlib.Path(fixture_path("g2_full.bp")).read_text()
    line = "rel 2.1.2.1.2.1 1 6 : 2 3 4 5\n"
    assert line in text
    path = tmp_path / "g2_cb3_mutant.bp"
    path.write_text(text.replace(line, "rel 2.1.2.1.2.1 1 6 : 3\n"))
    return str(path)


def _fresh(path, report):
    argv = ["--blueprint", path, "--radius", "6", "--report", str(report), "validate"]
    code = subprocess.run([sys.executable, "-m", "rgdkit", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}).returncode
    return code, report.read_bytes()


def test_back_to_back_validate_runs_share_no_state(tmp_path, capsys):
    mutant, valid = _cb3_only_mutant(tmp_path), fixture_path("g2_full.bp")
    expected = {path: _fresh(path, tmp_path / "fresh.txt") for path in (mutant, valid)}
    assert expected[mutant][0] == 1 and expected[valid][0] == 0
    assert b"axiom=CB3" in expected[mutant][1]
    for order in ((mutant, valid), (valid, mutant)):
        for path in order:
            report = tmp_path / "in-process.txt"
            code = cli.main(["--blueprint", path, "--radius", "6", "--report", str(report),
                             "validate"])
            assert (code, report.read_bytes()) == expected[path]
    capsys.readouterr()
