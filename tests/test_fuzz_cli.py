"""Inputs fuzzed through the command line: whatever a blueprint file or a
`group` word holds, rgdkit answers in its own bounded words.

A file is drawn from the `FIELDS` grammar, with short words and small
numbers (a rank, a valid label for every pair and, on one draw in four,
random lines more, so that most such files reach a verdict), or is a
fixture with one token of one line replaced by a long, an empty or a
non-ASCII one, or with the value of one `rel` line replaced by hundreds to
thousands of numbers; it goes through `validate`.  A `group`
word is a few dotted tokens (digits, empty, non-ASCII, long) or a long run
of generators, on `rank2:m6lr` or `allempty:universal3`, with
`--cap-group-bits` up to 30.  A grammar file, or a rank-2 table of label
4 or 6 with `default empty` and at most two relations (not Moufang, so the
batteries fail), also goes through `residue`, `chambers`, `appendix` and
`roots`, each run within a wall bound, and at least a third of those
grammar files must reach a verdict there.  Every run exits 0, 1, 2 or 4 (3 is
an internal error), prints no traceback, says a usage error (2) in one
`error: ...` line, and writes no stderr line longer than 200 bytes.  A
failure the search has found is pinned as an `@example`.
"""

import contextlib
import io
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from rgdkit import cli
from rgdkit.blueprints import DEFAULT_MODES, FIELDS
from tests.conftest import FIXTURES

NUMBER = st.integers(0, 7).map(str)
LABELS = ["2", "3", "4", "6", "inf"]
LABEL = st.sampled_from([*LABELS, "0", "5"])
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
    """A rank, most often 2 or 3, a valid label for every pair (a direction
    for a 6), and on one draw in four a few more lines of the grammar, in
    any order.  Those lines are mostly refused (exit 2); without them the
    file reaches a verdict unless its pairs leave the command nothing to
    check."""
    rank = draw(st.sampled_from([2, 3, 2, 3, 1]))
    lines = [f"rank {rank}"]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            label = draw(st.sampled_from(LABELS))
            lines.append(f"m {i} {j} {label}")
            if label == "6":
                lines.append(draw(st.sampled_from([f"dir6 {i} {j}", f"dir6 {j} {i}"])))
    if draw(st.sampled_from([False, False, False, True])):
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


REL_LINES = [(name, n) for name, lines in sorted(FIXTURE_LINES.items())
             for n, line in enumerate(lines) if line.startswith("rel ")]


@st.composite
def long_rel_files(draw):
    """A fixture with the value of one `rel` line replaced by 100 to 3 000
    numbers: one repeated, a run up or down, or a cycle."""
    name, n = draw(st.sampled_from(REL_LINES))
    lines = list(FIXTURE_LINES[name])
    count, start = draw(st.integers(100, 3000)), draw(st.integers(0, 7))
    values = draw(st.sampled_from([
        [start] * count, range(start, start + count), range(start + count, start, -1),
        [start + m % 4 for m in range(count)]]))
    lines[n] = " ".join([*lines[n].split()[:4], ":", *map(str, values)])
    return "\n".join(lines) + "\n"


@st.composite
def non_moufang_files(draw):
    """A rank-2 table of label m = 4 or 6 with no relations by default
    (`default empty`) and at most two drawn `rel` lines on a gallery of r_J:
    U is abelian or nearly so, or inconsistent, so the residue and chamber
    batteries and the identity suite find violations."""
    m = draw(st.sampled_from([4, 6]))
    lines = ["rank 2", f"m 1 2 {m}", "default empty"]
    if m == 6:
        lines.append(draw(st.sampled_from(["dir6 1 2", "dir6 2 1"])))
    for _ in range(draw(st.integers(0, 2))):
        first = draw(st.integers(1, 2))
        word = ".".join(str((first + k - 1) % 2 + 1) for k in range(m))
        i = draw(st.integers(1, m - 2))
        j = draw(st.integers(i + 2, m))
        ks = draw(st.sets(st.integers(i + 1, j - 1), min_size=1))
        lines.append(f"rel {word} {i} {j} : " + " ".join(map(str, sorted(ks))))
    return "\n".join(lines) + "\n"


def assert_answered(code, err):
    """The properties every run keeps."""
    assert code in (0, 1, 2, 4), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert all(len(line.encode()) <= 200 for line in err.splitlines()), err[:300]


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.bp"


@given(text=st.one_of(grammar_files(), fixture_files(), long_rel_files()))
@example(text="rank 2\nm 1 2 3\n" + "x" * 5000 + " 2\n")  # unknown directive
@example(text="rank 2\nm 1 2 3\ndefault " + "9" * 5000 + "\n")  # unknown default mode
@example(text="rank 2 " + "x" * 5000 + "\nm 1 2 3\n")  # unexpected field
@example(text="rank 2\nm 1 2 3\nrel " + ".".join("12" * 1250) + " 1 3 : 2\n")  # not reduced
@example(text="rank 2\nm 1 2 3\nrel " + ".".join("123" * 833) + " 1 3 : 2\n")  # out of range
@example(text="rank 2\nm 1 2 3\nrel 1.2.1 1 3 :" + " 2" * 3000 + "\n")  # not increasing
@example(text="rank 2\nm 1 2 3\nrel 1.2.1 1 3 :" + " 5" * 3000 + "\n")  # not between
@example(text="rank 3\nm 1 2 inf\nm 1 3 2\nm 2 3 2\nrel "  # a 119-position open interval
        + ".".join("12" * 30 + "3" + "12" * 30) + " 1 121 : 61\n")
@settings(max_examples=400, derandomize=True, deadline=2000)
def test_every_file_is_answered_in_bounded_words(case_path, text):
    case_path.write_text(text, encoding="utf-8")
    assert_answered(*run(["--blueprint", str(case_path), "--radius", "2", "validate"]))


TOKEN = st.sampled_from(["1", "2", "3", "4", "0", "01", "", "e", "x", "３", "é", "١",
                         "9" * 30, "1" * 5000, "x" * 5000])
RUN = st.sampled_from(["1", "1.2", "2.1", "1.2.3", "3.2.1", "1.2.1.2.1.2"])


@st.composite
def group_words(draw):
    """A few dotted tokens, or one run of generators repeated up to 2 000 times."""
    if draw(st.booleans()):
        return ".".join(draw(st.lists(TOKEN, max_size=6)))
    return ".".join([draw(RUN)] * draw(st.integers(1, 2000)))


@given(builtin=st.sampled_from(["rank2:m6lr", "allempty:universal3"]), word=group_words(),
       cap=st.one_of(st.none(), st.integers(1, 30)))
@example(builtin="rank2:m6lr", word="1." + "1" * 5000, cap=None)  # bad word
@example(builtin="allempty:universal3", word=".".join("123" * 8 + "12"), cap=30)  # order 2^26
@settings(max_examples=300, derandomize=True, deadline=2000)
def test_every_group_word_is_answered_in_bounded_words(builtin, word, cap):
    bits = [] if cap is None else ["--cap-group-bits", str(cap)]
    assert_answered(*run(["--builtin", builtin, *bits, "group", word]))


COMMANDS = [["residue", "-s", "1"], ["chambers", "-s", "1", "-t", "2"],
            ["appendix", "-s", "1", "-t", "2"], ["roots"]]
# seconds per run; the slowest drawn run, `chambers` on an all-empty
# hexagon (189 chambers, most of them failing), takes about 0.3 to 0.5 s
WALL_S = 5.0


def test_every_file_is_answered_by_every_command(case_path):
    # every draw keeps the four properties within the wall bound; a grammar
    # file refused with exit 2 tests the parser alone, so at least a third of
    # the grammar draws must reach a verdict (exit 0, 1 or 4)
    verdicts = []

    @given(case=st.one_of(grammar_files().map(lambda text: (text, True)),
                          non_moufang_files().map(lambda text: (text, False))),
           command=st.sampled_from(COMMANDS))
    @example(case=("rank 2\nm 1 2 4\ndefault empty\n", False),  # tau^2, braid
             command=COMMANDS[1])
    @example(case=("rank 2\nm 1 2 6\ndir6 1 2\ndefault empty\n", False), command=COMMANDS[1])
    @example(case=("rank 2\nm 1 2 4\ndefault empty\n", False),  # an identity fails
             command=COMMANDS[2])
    @example(case=("rank 3\nm 1 2 4\nm 1 3 2\nm 2 3 2\ndefault rank2\n"  # CB3 at r_J
                   "rel 1.2.1.2 1 3 : 2\n", False), command=COMMANDS[2])
    @settings(max_examples=150, derandomize=True, deadline=None)
    def answered(case, command):
        text, grammar = case
        case_path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, err = run(["--blueprint", str(case_path), "--radius", "2", *command])
        assert time.perf_counter() - start < WALL_S, (text, command)
        assert_answered(code, err)
        if grammar:
            verdicts.append(code != 2)

    answered()
    assert 3 * sum(verdicts) >= len(verdicts) > 0, (sum(verdicts), len(verdicts))
