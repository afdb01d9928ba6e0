"""Byte pins for the rank-2 battery, `validate`, `group` and `roots`.

For `residue`, `chambers` and `appendix`, for `validate --radius 5` plain,
with `--cap-galleries 1` and with `--cap-group-bits 3`, for `--radius 6
roots` and for `group` on words whose galleries reach past the default ball
(one job with `--cap-galleries 1`), on every builtin and fixture,
`battery_bytes.json` holds the exit code and the SHA-256 of stdout, of
stderr and of the `--report` file (null when none is written).  Fixtures are passed by
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
VALIDATE = [["--radius", "5", "validate"],
            ["--radius", "5", "--cap-galleries", "1", "validate"],
            ["--radius", "5", "--cap-group-bits", "3", "validate"]]
OFF_BALL = [["--radius", "6", "roots"], ["group", "1.2.1.2.1.2"], ["group", "2.1.2.1"],
            ["--cap-galleries", "1", "group", "1.2.1.2"]]
RANK3_GROUP = [["group", "3.1.2.3.1.2.3"], ["group", "1.2.3.2.1"]]


def jobs() -> list[list[str]]:
    sources = [["--builtin", b] for b in BUILTINS] + [["--blueprint", f] for f in FIXTURES]
    out = [src + cmd for src in sources for cmd in PER_BLUEPRINT + VALIDATE + OFF_BALL]
    out += [["--builtin", "allempty:universal3"] + cmd for cmd in RANK3_GROUP]
    out += [["--blueprint", f] + cmd for f in RANK3_FIXTURES for cmd in RANK3_GROUP]
    out += [["--blueprint", f, "--radius", "3", "appendix", "-s", "1", "-t", "3"]
            for f in RANK3_FIXTURES]
    return out


def run_job(argv: list[str], report: pathlib.Path) -> dict:
    """Run one job from the repository root; report digests of its output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--report", str(report)] + argv)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return {"exit": code, "stdout": digest(stdout.getvalue()), "stderr": digest(stderr.getvalue()),
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
