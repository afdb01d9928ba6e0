"""Blueprint files fuzzed through the command line: whatever a file holds,
`rgdkit --blueprint FILE validate` answers in its own bounded words.

A file is drawn from the `FIELDS` grammar, with short words and small
numbers, or is a fixture with one token of one line replaced by a long, an
empty or a non-ASCII one.  Every run exits 0, 1, 2 or 4 (3 is an internal
error), prints no traceback, says a usage error (2) in one `error: ...`
line, and writes no stderr line longer than 200 bytes.  A failure the
search has found is pinned as an `@example`.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from rgdkit import cli
from rgdkit.blueprints import DEFAULT_MODES, FIELDS
from tests.conftest import FIXTURES

NUMBER = st.integers(0, 7).map(str)
LABEL = st.sampled_from(["2", "3", "4", "6", "inf", "0", "5"])
# a strategy for each field name of FIELDS
FIELD = {
    "N": NUMBER, "I": NUMBER, "J": NUMBER, "T": NUMBER, "S": NUMBER, "K": NUMBER,
    "LABEL": LABEL,
    "MODE": st.sampled_from([*DEFAULT_MODES, "none"]),
    "WORD": st.lists(st.integers(1, 4), max_size=6).map(lambda w: ".".join(map(str, w))),
    ":": st.sampled_from([":", ":", "x"]),
    "...": st.lists(NUMBER, max_size=3).map(" ".join),
}

FIXTURE_LINES = {path.name: path.read_text(encoding="utf-8").splitlines()
                 for path in sorted(FIXTURES.glob("*.bp"))}
LONG = [c * 5000 for c in "x9.:-é３"] + [
    ".".join(letters * (2500 // len(letters))) for letters in ("1", "12", "123")]
ODD = ["", "３", "é", "١", "ｍ", *LONG]


@st.composite
def grammar_lines(draw):
    """One directive with its fields, most often all of them, else a prefix,
    sometimes with one number more."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    fields = [draw(FIELD[name]) for name in FIELDS[kind].split()]
    keep = draw(st.sampled_from([len(fields)] * 3 + list(range(len(fields)))))
    extra = draw(st.sampled_from([[], [], [draw(NUMBER)]]))
    return " ".join([kind, *fields[:keep], *extra])


@st.composite
def grammar_files(draw):
    """A rank, a label for every pair (a direction for a 6), and a few more
    lines of the grammar, in any order."""
    rank = draw(st.integers(1, 3))
    lines = [f"rank {rank}"]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            label = draw(LABEL)
            lines.append(f"m {i} {j} {label}")
            if label == "6":
                lines.append(draw(st.sampled_from([f"dir6 {i} {j}", f"dir6 {j} {i}"])))
    lines += draw(st.lists(grammar_lines(), max_size=6))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def fixture_files(draw):
    """A fixture with one token of one line replaced by one of ODD."""
    lines = list(FIXTURE_LINES[draw(st.sampled_from(sorted(FIXTURE_LINES)))])
    spots = [(n, k) for n, line in enumerate(lines)
             for k in range(len(line.split("#", 1)[0].split()))]
    n, k = draw(st.sampled_from(spots))
    tokens = lines[n].split("#", 1)[0].split()
    tokens[k] = draw(st.sampled_from(ODD))
    lines[n] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.bp"


@given(text=st.one_of(grammar_files(), fixture_files()))
@example(text="rank 2\nm 1 2 3\n" + "x" * 5000 + " 2\n")  # unknown directive
@example(text="rank 2\nm 1 2 3\ndefault " + "9" * 5000 + "\n")  # unknown default mode
@example(text="rank 2 " + "x" * 5000 + "\nm 1 2 3\n")  # unexpected field
@example(text="rank 2\nm 1 2 3\nrel " + ".".join("12" * 1250) + " 1 3 : 2\n")  # not reduced
@example(text="rank 2\nm 1 2 3\nrel " + ".".join("123" * 833) + " 1 3 : 2\n")  # out of range
@settings(max_examples=300, derandomize=True, deadline=2000)
def test_every_file_is_answered_in_bounded_words(case_path, text):
    case_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--blueprint", str(case_path), "--radius", "2", "validate"])
    err = err.getvalue()
    assert code in (0, 1, 2, 4), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert all(len(line.encode()) <= 200 for line in err.splitlines()), err[:300]
