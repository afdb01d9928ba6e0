"""`scripts/run_verification.py`, one of the fixed end-to-end workloads, passes.

The script is loaded by path and its `main()` run in-process on its default
radius: the built-in rank-2 blueprints through CB1, CB2, Weyl-invariance,
CB3 and the residue, chamber and identity suites, the valid fixtures through
CB1, CB2, Weyl-invariance and CB3, and the three mutated fixtures, each of
which must be caught.
"""

import importlib.util
import pathlib
import sys

import pytest

from rgdkit.reports import Report

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def _load(monkeypatch, *argv):
    """The script as a module, with `argv` as its command line."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's insert
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    return module


def test_run_verification_passes(monkeypatch, capsys):
    assert _load(monkeypatch).main() == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out and "FAIL " not in out


def test_each_mutant_must_fail_its_own_validator(monkeypatch, capsys):
    # b2_cb1_mutated fails CB1 and Weyl: with CB1 blind, its Weyl failure
    # must not pass the line
    module = _load(monkeypatch)
    monkeypatch.setattr(module.blueprints, "validate_cb1", lambda bp, r: Report("CB1"))
    assert module.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert [row.split("  (")[0] for row in out if row.startswith("FAIL")] == [
        "FAIL  b2_cb1_mutated.bp: defect detected"]


BAD_RADIUS = ("error: --radius: bad number {}, expected at most 18 ASCII digits after an "
              "optional '-'\n")


@pytest.mark.parametrize("text, err", [
    ("３", BAD_RADIUS.format("'３'")), ("1_0", BAD_RADIUS.format("'1_0'")),
    ("+3", BAD_RADIUS.format("'+3'")), (" 3", BAD_RADIUS.format("' 3'")),
    ("9" * 19, BAD_RADIUS.format("'" + "9" * 18 + "...'")),
    ("-1", "error: radius must be >= 0\n"),
], ids=["fullwidth", "underscore", "plus", "space", "19-digits", "negative"])
def test_radius_is_read_as_rgdkit_reads_it(text, err, monkeypatch, capsys):
    # argparse's `int` ran a fullwidth 3, '1_0' and '+3' as radii, and -1 crashed
    assert _load(monkeypatch, "--radius", text).main() == 2
    assert capsys.readouterr() == ("", err)
