"""Byte pins for the rank-2 battery.

For `residue`, `chambers` and `appendix` on every builtin and fixture,
`battery_bytes.json` holds the exit code and the SHA-256 of stdout and of
the `--report` file (null when none is written).  Fixtures are passed by
their path relative to the repository root, which the reports embed as the
blueprint name.  Regenerate the table with

    PYTHONPATH=src python -m tests.test_battery_bytes

from the repository root; an entry that moves must be explained with the
change that moved it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from rgdkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "battery_bytes.json"

BUILTINS = ["rank2:m2", "rank2:m3", "rank2:m4", "rank2:m6lr", "rank2:m6rl",
            "allempty:universal3"]
FIXTURES = sorted(f"tests/fixtures/{p.name}" for p in (ROOT / "tests" / "fixtures").glob("*.bp"))
RANK3_FIXTURES = [f for f in FIXTURES if pathlib.Path(f).name.startswith(("rank3_", "rightangled3_", "universal3_"))]
PER_BLUEPRINT = [["residue", "-s", "1"], ["residue", "-s", "2"],
                 ["chambers", "-s", "1", "-t", "2", "--dump-adjacency"],
                 ["appendix", "-s", "1", "-t", "2"]]


def jobs() -> list[list[str]]:
    sources = [["--builtin", b] for b in BUILTINS] + [["--blueprint", f] for f in FIXTURES]
    out = [src + cmd for src in sources for cmd in PER_BLUEPRINT]
    out += [["--blueprint", f, "--radius", "3", "appendix", "-s", "1", "-t", "3"]
            for f in RANK3_FIXTURES]
    return out


def run_job(argv: list[str], report: pathlib.Path) -> dict:
    """Run one job from the repository root; report digests of its output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--report", str(report)] + argv)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return {"exit": code, "stdout": digest(stdout.getvalue()),
            "report": digest(report.read_text()) if report.exists() else None}


def test_table_covers_every_job():
    assert set(json.loads(TABLE.read_text())) == {" ".join(j) for j in jobs()}


@pytest.mark.parametrize("argv", jobs(), ids=" ".join)
def test_battery_bytes(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(TABLE.read_text())[" ".join(argv)]
    assert run_job(argv, tmp_path / "report.txt") == want


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(jobs()):
            table[" ".join(argv)] = run_job(argv, pathlib.Path(scratch) / f"{i}.txt")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {TABLE.relative_to(ROOT)}", file=sys.stderr)
