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

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def test_run_verification_passes(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's insert
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    assert module.main() == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out and "FAIL " not in out
