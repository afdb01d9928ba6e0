"""CB3 with its verdict memo and along the prefix tree, against the full loop.

`validate_cb3` certifies each (k, table number) key once, and for a new key
runs only the overlap tests that involve the last generator when the base
gallery's prefix key is in the memo with the restricted table.  The full
loop, `cb3_full` in tests/oracles.py, is the oracle: both must give the
same report on valid and mutated tables.
"""

import os
import pathlib
from collections import Counter
import subprocess
import sys

import pytest

from rgdkit import blueprints as bpmod
from rgdkit import cli
from rgdkit.galleries import get_gallery
from rgdkit.groupforge import PCPres, validate_cb3
from tests.conftest import fixture_path
from tests.oracles import cb3_full
from tests.test_mutations import CASES, _mutants

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


def keys(bp, words):
    """The (k, table number) keys of the base galleries of `words`."""
    return [(len(w), bp.table_no(get_gallery(bp.cox, w))) for w in words]


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
    # universal3 with M(1, 3) = {2} on the gallery 1.2.3.1: its prefix 1.2.3
    # has the empty value there, and so does its extension 1.2.3.1.2, whose
    # table M(2, 4) = {3} makes new; the other tables are all-empty
    base = bpmod.builtin("allempty:universal3")
    bp = bpmod.FileTable(base.cox, {((0, 1, 2, 0), 1, 3): (2,), ((0, 1, 2, 0, 1), 2, 4): (3,)},
                         name="broken-cb1")
    assert not bpmod.validate_cb1(bp, 5).ok
    fast = validate_cb3(bp, 5)
    assert fast.ok
    assert tops[(0, 1, 2, 0)] == tops[(0, 1, 2, 0, 1)] == 1
    # the first all-empty tables of lengths 4 and 5 take the shortcut, and
    # later elements with those tables are memo hits
    assert tops[(0, 1, 0, 1)] == 4 and tops[(0, 1, 0, 1, 0)] == 5
    assert (0, 1, 2, 1) not in tops and (0, 1, 2, 0, 2) not in tops
    # one check per certified (k, table) key
    ball = bp.cox.ball(5)
    assert sorted(keys(bp, tops)) == sorted(set(keys(bp, ball)))
    assert_same(fast, cb3_full(bp, 5))


def test_prefix_tree_takes_the_shortcut_on_universal3(tops):
    bp = bpmod.builtin("allempty:universal3")
    report = validate_cb3(bp, 6)
    ball = bp.cox.ball(6)
    assert report.ok and report.checks == len(ball)
    # one check per (k, table) key: 6 tables, lengths 0 and 1 share the empty one
    assert sorted(keys(bp, tops)) == sorted(set(keys(bp, ball)))
    assert len(tops) == 7
    assert all(top == len(word) for word, top in tops.items() if word)
    assert_same(report, cb3_full(bp, 6))


def test_cb3_work_budget(monkeypatch):
    # a presentation is built and checked once per distinct (k, table) key
    # on the ball, not once per element (190 of each on universal3)
    calls = Counter()
    init, check = PCPres.__init__, PCPres.consistency_check

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_check(self, top=1):
        calls["check"] += 1
        return check(self, top)

    monkeypatch.setattr(PCPres, "__init__", counted_init)
    monkeypatch.setattr(PCPres, "consistency_check", counted_check)
    bp = bpmod.builtin("allempty:universal3")
    assert validate_cb3(bp, 6).ok
    budget = len(set(keys(bp, bp.cox.ball(6))))
    assert calls["init"] <= budget and calls["check"] <= budget


def test_memo_hit_with_several_galleries_still_cross_checks(tops):
    # on the B2 product every element of the ball shares its key with an
    # earlier one, or is new; the hits with several galleries run the
    # relation checks of build_Uw without an overlap test
    bp = bpmod.ingest_path(fixture_path("rank3_b2_product.bp"))
    report = validate_cb3(bp, 5)
    ball = bp.cox.ball(5)
    assert sorted(keys(bp, tops)) == sorted(set(keys(bp, ball)))
    assert len(tops) < len(ball)
    assert_same(report, cb3_full(bp, 5))


def test_an_inconsistent_key_is_checked_at_every_element(tops):
    # universal3 with one inconsistent table on the galleries 1.2.3.1 and
    # 1.2.3.2: their key fails, so it is checked and reported at both
    base = bpmod.builtin("allempty:universal3")
    bad = {(1, 3): (2,), (2, 4): (3,)}
    bp = bpmod.FileTable(base.cox, {(w, i, j): v for w in ((0, 1, 2, 0), (0, 1, 2, 1))
                                    for (i, j), v in bad.items()}, name="inconsistent")
    report = validate_cb3(bp, 4)
    assert [v.w for v in report.violations] == ["1.2.3.1", "1.2.3.2"]
    assert report.violations[0].found == report.violations[1].found
    assert len(set(keys(bp, [(0, 1, 2, 0), (0, 1, 2, 1)]))) == 1
    assert (0, 1, 2, 0) in tops and (0, 1, 2, 1) in tops
    assert_same(report, cb3_full(bp, 4))


def test_an_inconsistent_prefix_certifies_nothing(tops):
    # universal3 with one inconsistent table on 1.2.3.1 and the same values
    # on its extension 1.2.3.1.2, a new table that restricts to it: the
    # prefix's key never enters the memo, so the extension runs every test
    base = bpmod.builtin("allempty:universal3")
    bad = {(1, 3): (2,), (2, 4): (3,)}
    prefix, w = (0, 1, 2, 0), (0, 1, 2, 0, 1)
    bp = bpmod.FileTable(base.cox, {(v, i, j): value for v in (prefix, w)
                                    for (i, j), value in bad.items()}, name="bad-prefix")
    G = get_gallery(bp.cox, w)
    restricted = {(i, j): v for (i, j), v in bp.relations(G).items() if j < len(w)}
    assert bp.relations(G.prefix(len(prefix))) == restricted
    assert keys(bp, [w]) != keys(bp, [prefix])
    report = validate_cb3(bp, 5)
    assert [v.w for v in report.violations] == ["1.2.3.1", "1.2.3.1.2"]
    assert tops[prefix] == 1 and tops[w] == 1
    assert_same(report, cb3_full(bp, 5))


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
