"""Exit codes and report emission of the command-line surface."""

import time

import pytest

from rgdkit import cli
from rgdkit.blueprints import FIELDS
from rgdkit.cli import main
from rgdkit.coxeter import CoxeterSystem
from rgdkit.errors import InternalConsistencyError
from tests.conftest import fixture_path
from tests.test_blueprints import TRAILING_FIELDS, TRAILING_IDS


def test_validate_builtin_ok(capsys):
    assert main(["--builtin", "rank2:m3", "--radius", "3", "validate"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "CB2" in out


def test_validate_mutated_fixture_fails(capsys, tmp_path):
    report = tmp_path / "violations.txt"
    code = main(["--blueprint", fixture_path("g2_weyl_mutated.bp"),
                 "--radius", "6", "--report", str(report), "validate"])
    assert code == 1
    text = report.read_text()
    assert "VIOLATION" in text and "axiom=Weyl" in text


def test_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        main(["--blueprint", fixture_path("g2_weyl_mutated.bp"),
              "--radius", "6", "--report", str(path), "validate"])
    assert a.read_text() == b.read_text()


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["validate"]) == 2                       # no blueprint
    assert main(["--blueprint", "/no/such/file.bp", "validate"]) == 2
    binary = tmp_path / "binary.bp"
    binary.write_bytes(b"rank 2\r\nm 1 2 3\n\xff\xfe\n")  # not UTF-8, on line 3
    capsys.readouterr()
    assert main(["--blueprint", str(binary), "validate"]) == 2
    assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8\n"
    short = tmp_path / "short.bp"
    for lines, form in [(["rank"], "rank N"), (["rank 2", "m 1 2"], "m I J LABEL"),
                        (["rank 2", "m 1 2 6", "dir6 1"], "dir6 T S"),
                        (["rank 2", "m 1 2 3", "default"], "default MODE"),
                        (["rank 2", "m 1 2 3", "rel 1.2 1 2"], "rel WORD I J : K ...")]:
        short.write_text("\n".join(lines) + "\n")  # a directive with a field missing
        assert main(["--blueprint", str(short), "validate"]) == 2
        kind = form.split()[0]
        assert capsys.readouterr().err == f"error: line {len(lines)}: {kind}: missing fields ({form})\n"
    assert main(["--builtin", "rank2:m9", "validate"]) == 2
    assert main(["--builtin", "allempty:universal", "validate"]) == 2
    assert main(["--builtin", "allempty:universalx", "validate"]) == 2
    assert main(["--builtin", "allempty:universal65", "validate"]) == 2  # rank above 64
    capsys.readouterr()
    assert main(["--builtin", "allempty:universal" + "1" * 5000, "validate"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # numbers are ASCII digits after an optional '-', at most 18 of them
    # (argparse's `int` read a fullwidth digit, '_', '+' and spaces)
    for option, text, argv in [
            ("--radius", "３", ["validate"]), ("--radius", "1_0", ["validate"]),
            ("--radius", "+3", ["validate"]), ("--radius", " 3", ["validate"]),
            ("--radius", "x", ["validate"]), ("--radius", "", ["validate"]),
            ("--cap-galleries", "1e3", ["validate"]), ("--cap-group-bits", "3-", ["validate"]),
            ("-s", "１", ["residue", "-s", "１"]),
            ("-t", "2.0", ["chambers", "-s", "1", "-t", "2.0"]),
            ("-t", "0x2", ["appendix", "-s", "1", "-t", "0x2"])]:
        if option.startswith("--"):
            argv = [option, text] + argv
        assert main(["--builtin", "rank2:m3"] + argv) == 2, argv
        assert capsys.readouterr().err == (f"error: {option}: bad number {text!r}, expected "
                                           "at most 18 ASCII digits after an optional '-'\n")
    assert main(["--builtin", "rank2:m3", "--radius", "9" * 19, "validate"]) == 2
    assert capsys.readouterr().err == ("error: --radius: bad number '999999999999999999...', "
                                       "expected at most 18 ASCII digits after an optional '-'\n")
    assert main(["--builtin", "rank2:m3", "--radius", "-1", "validate"]) == 2
    assert capsys.readouterr().err == "error: radius must be >= 0\n"
    assert main(["--builtin", "rank2:m3", "residue", "-s", "-1"]) == 2
    assert capsys.readouterr().err == "error: -s and -t must be distinct generators in 1..2\n"


@pytest.mark.parametrize("text, line_no, kind, token", TRAILING_FIELDS, ids=TRAILING_IDS)
def test_trailing_fields_exit_2(text, line_no, kind, token, capsys, tmp_path):
    path = tmp_path / "trailing.bp"
    path.write_text(text)
    assert main(["--blueprint", str(path), "validate"]) == 2
    assert capsys.readouterr().err == (f"error: line {line_no}: {kind}: unexpected field "
                                       f"{token!r} ({kind} {FIELDS[kind]})\n")


LONG = "x" * 5000
CUT = "'" + "x" * 18 + "...'"  # how an error message shows LONG
# a 3 000-value `rel` line of each refused kind: the value reads cut
POSITIONS = " ".join(map(str, range(2, 3002)))
INF_WORD = ".".join("12" * 1501)  # 3 002 letters; every position lies in (1, 3002)


@pytest.mark.parametrize("file, argv, err", [
    (f"rank 2 {LONG}\n", ["validate"], f"line 1: rank: unexpected field {CUT} (rank N)"),
    (f"{LONG} 2\n", ["validate"], f"line 1: unknown directive {CUT}"),
    (f"rank 2\nm 1 2 3\ndefault {LONG}\n", ["validate"], f"line 3: unknown default mode {CUT}"),
    (None, ["--builtin", LONG, "validate"], f"bad builtin name {CUT}"),
    (None, ["--builtin", f"rank2:{LONG}", "validate"], f"unknown rank2 variant {CUT}"),
    (None, ["--builtin", f"allempty:universal{'1' * 4991}", "validate"],
     "unknown allempty variant 'universal111111111...'"),
    (None, ["--builtin", f"{LONG}:m3", "validate"], f"unknown builtin family {CUT}"),
    ("rank 2\nm 1 2 3\nrel " + ".".join("1" * 2500) + " 1 2 :\n", ["validate"],
     "line 3: gallery word 1.1.1.1.1.1.1.1.1.... is not reduced"),
    ("rank 2\nm 1 2 3\nrel " + ".".join("3" * 2500) + " 1 2 :\n", ["validate"],
     "line 3: generator out of range in gallery 3.3.3.3.3.3.3.3.3...."),
    (None, ["--builtin", "rank2:m3", "group", ".".join("3" * 2500)],
     "generator out of range in '3.3.3.3.3.3.3.3.3....'"),
    (None, ["--builtin", "rank2:m3", "group", "1." + "x" * 5000],
     "bad word '1.xxxxxxxxxxxxxxxx...'; expected dot-separated generators"),
    ("rank 2\nm 1 2 3\nrel 1.2.1 1 3 :" + " 5" * 3000 + "\n", ["validate"],
     "line 3: relation value (5, 5, 5, 5, 5, 5,... not strictly between 1 and 3"),
    ("rank 2\nm 1 2 3\nrel 1.2.1 1 3 :" + " 2" * 3000 + "\n", ["validate"],
     "line 3: relation value (2, 2, 2, 2, 2, 2,... not strictly increasing"),
    ("rank 3\nm 1 2 inf\nm 1 3 2\nm 2 3 2\nrel 3." + ".".join("12" * 1500) + ".1 1 3002 : "
     + POSITIONS + "\n", ["validate"],
     "line 5: relation value (2, 3, 4, 5, 6, 7,... leaves the open interval (1,3002) = []"),
    ("rank 3\nm 1 2 inf\nm 1 3 2\nm 2 3 2\nrel " + ".".join("12" * 30 + "3" + "12" * 30)
     + " 1 121 : 61\n", ["validate"],
     "line 5: relation value (61,) leaves the open interval (1,121) = [2, 3, 4, 5, 6, 7,..."),
    (f"rank 2\nm 1 2 inf\nrel {INF_WORD} 1 3002 : {POSITIONS[:-5]}\n"
     f"rel {INF_WORD} 1 3002 : {POSITIONS}\n", ["validate"],
     "line 4: relation value (2, 3, 4, 5, 6, 7,... contradicts line 3"),
], ids=["unexpected-field", "unknown-directive", "unknown-default-mode", "bad-builtin-name",
        "unknown-rank2-variant", "unknown-allempty-variant", "unknown-builtin-family",
        "unreduced-gallery-word", "gallery-generator-out-of-range", "group-generator-out-of-range",
        "group-bad-word", "value-not-between", "value-not-increasing", "value-leaves-interval",
        "value-leaves-a-long-interval", "value-contradicts"])
def test_a_long_token_is_echoed_cut(file, argv, err, capsys, tmp_path):
    # a 5 000-character token shows as its first 18 characters and '...'
    if file is not None:
        path = tmp_path / "long.bp"
        path.write_text(file)
        argv = ["--blueprint", str(path), *argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert len(captured.err.encode()) < 120


@pytest.mark.parametrize("word", ["\uff12.1", "1.x", "1..2", "1.+2", "1." + "9" * 30, "1." + "1" * 5000],
                         ids=["fullwidth", "letter", "empty", "signed", "30-digits", "5000-digits"])
def test_group_word_is_ascii_digits(word, capsys):
    # a fullwidth digit is no generator, and a long letter is refused before `int` reads it
    assert main(["--builtin", "rank2:m3", "group", word]) == 2
    shown = word if len(word) <= 18 else word[:18] + "..."
    assert capsys.readouterr().err == f"error: bad word {shown!r}; expected dot-separated generators\n"


def test_group_refuses_long_word_before_normalizing(capsys, monkeypatch):
    def refuse(self, word):
        raise AssertionError("normal_form reached before the bit cap check")

    monkeypatch.setattr(CoxeterSystem, "normal_form", refuse)
    word = ".".join(["1.2.3"] * 400)
    assert main(["--builtin", "allempty:universal3", "group", word]) == 2
    assert "exceeds group bit cap 24" in capsys.readouterr().err


def test_group_bit_cap_is_the_one_bound_on_group(capsys):
    # the lower central series holds no element sets, so U_w of order 2^26
    # gets its series under --cap-group-bits 30
    word = ".".join(["1.2.3"] * 8 + ["1", "2"])
    assert main(["--builtin", "allempty:universal3", "--cap-group-bits", "30", "group", word]) == 0
    out = capsys.readouterr().out
    assert "order: 67108864\n" in out
    assert out.endswith("nilpotency class: 1\nlower central series dims: [26, 0]\n"
                        f"[PASS] U_w(allempty:universal3, w={word}): 1 checks, 0 violations\n")


def test_group_cancelling_word_is_linear(capsys):
    # (1.2.3)^500 then its reverse: 3000 letters, l(w) = 0, so the bit cap
    # never fires; re-applying the reduced prefix per letter took seconds
    half = ["1.2.3"] * 500
    word = ".".join(half + ["3.2.1"] * 500)
    start = time.perf_counter()
    assert main(["--builtin", "allempty:universal3", "group", word]) == 0
    elapsed = time.perf_counter() - start
    assert "order: 1" in capsys.readouterr().out
    assert elapsed < 1.0, f"3000-letter group word took {elapsed:.2f}s (budget 1.0s)"


def test_validate_a_finite_group_at_a_huge_radius_is_fast(capsys):
    # the ball stops at the first empty layer: the run does not grow with r
    start = time.perf_counter()
    assert main(["--builtin", "rank2:m3", "--radius", "3000000", "validate"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"radius 3000000 on a group of 6 elements took {elapsed:.2f}s"


def test_group_over_gallery_cap_ends_on_partial_report(capsys):
    assert main(["--builtin", "rank2:m3", "--cap-galleries", "1", "group", "1.2.1"]) == 4
    out = capsys.readouterr().out
    assert "cross-gallery: PASS (more than 1 galleries)" in out
    assert "note: partial: more than 1 galleries" in out


def test_validate_skip_note_names_the_word_1_based(capsys):
    assert main(["--builtin", "allempty:universal3", "--radius", "5",
                 "--cap-group-bits", "3", "validate"]) == 4
    out = capsys.readouterr().out
    assert "note: skipped w=1.2.1.2: exceeds group bit cap" in out
    assert "skipped w=(" not in out


def test_validate_over_group_bit_cap_exits_incomplete(capsys, tmp_path):
    # the report holds only passing SUMMARY lines, so the exit code is the
    # one place where the skipped elements show; a violation still wins
    report = tmp_path / "report.txt"
    assert main(["--builtin", "allempty:universal3", "--radius", "5", "--cap-group-bits", "3",
                 "--report", str(report), "validate"]) == 4
    lines = report.read_text().splitlines()
    assert lines and all(line.startswith("SUMMARY ") and line.endswith(" violations=0")
                         for line in lines)
    assert main(["--builtin", "allempty:universal3", "--radius", "5", "validate"]) == 0
    assert main(["--blueprint", fixture_path("g2_weyl_mutated.bp"), "--radius", "6",
                 "--cap-group-bits", "3", "validate"]) == 1
    assert "skipped w=" in capsys.readouterr().out


def test_group_on_the_base_gallery_only_exits_incomplete(capsys):
    assert main(["--builtin", "rank2:m6lr", "--cap-galleries", "1",
                 "group", "1.2.1.2.1.2"]) == 4
    out = capsys.readouterr().out
    assert "note: partial: more than 1 galleries; cross-checked the base gallery only" in out
    assert "cross-gallery: PASS (more than 1 galleries)" in out
    assert main(["--builtin", "rank2:m6lr", "--cap-galleries", "2", "group", "1.2.1.2.1.2"]) == 0


def test_validate_over_gallery_cap_skips_and_exits_incomplete(capsys):
    # CB1 and Weyl pass over 1.2.1 (two galleries) as CB3 does: a coverage
    # gap, not a usage error
    assert main(["--builtin", "rank2:m3", "--cap-galleries", "1", "--radius", "3",
                 "validate"]) == 4
    out = capsys.readouterr().out
    for name in ("CB1(rank2:m3, r=3)", "Weyl(rank2:m3, r=3)"):
        block = out.split(name, 1)[1].split("\n[", 1)[0]
        assert "note: skipped w=1.2.1: more than 1 galleries" in block, name
    assert "note: partial: more than 1 galleries" in out
    assert main(["--builtin", "rank2:m3", "--cap-galleries", "2", "--radius", "3",
                 "validate"]) == 0


def test_cb2_checks_both_galleries_of_r_j_under_any_gallery_cap(capsys, tmp_path):
    # CB2 reads two fixed galleries per pair, so the gallery cap does not
    # apply to it and the defect on gallery 1.2.1.2 is found at cap 1
    report = tmp_path / "report.txt"
    assert main(["--blueprint", fixture_path("b2_cb2_mutated.bp"), "--radius", "3",
                 "--cap-galleries", "1", "--report", str(report), "validate"]) == 1
    lines = [ln for ln in report.read_text().splitlines() if ln.startswith("VIOLATION")]
    assert lines == ["VIOLATION axiom=CB2 w=1.2.1.2 s=1 gallery=1.2.1.2 i=1 j=4 "
                     "expected=2,3 found=2"]
    assert "[FAIL] CB2(" in capsys.readouterr().out


def test_residue_on_inconsistent_u_reports_only_cb3(capsys, tmp_path):
    # U on the gallery 2.1.2.1.2.1 fails CB3; the residue verdict stops
    # there, so no derived ustausV violation follows
    report = tmp_path / "report.txt"
    assert main(["--blueprint", fixture_path("g2_weyl_mutated.bp"), "--report", str(report),
                 "residue", "-s", "2"]) == 1
    lines = [ln for ln in report.read_text().splitlines() if ln.startswith("VIOLATION")]
    assert lines == ["VIOLATION axiom=CB3 w=- s=- gallery=2.1.2.1.2.1 i=0 j=0 "
                     "expected=consistent found=(u6 u1) u1 != u6"]
    assert "tau^2/braid/hom: FAIL, ustausV: not run" in capsys.readouterr().out


def test_appendix_with_unverifiable_instances_exits_incomplete(capsys):
    assert main(["--blueprint", fixture_path("rank3_b2_product.bp"), "--radius", "3",
                 "appendix", "-s", "1", "-t", "2"]) == 4
    assert "note: 9 instances unverifiable at radius 3" in capsys.readouterr().out


def test_appendix_on_infinite_pair_exits_2(capsys):
    assert main(["--builtin", "allempty:universal3", "appendix", "-s", "1", "-t", "2"]) == 2
    assert "spherical pair required" in capsys.readouterr().err


def test_residue_without_a_spherical_partner_exits_2(capsys, tmp_path):
    # generator 1 of universal3 lies in no spherical pair: with no residue
    # to check, nothing is printed or written and the run is refused
    report = tmp_path / "report.txt"
    assert main(["--builtin", "allempty:universal3", "--report", str(report),
                 "residue", "-s", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err == "error: generator 1 is in no spherical pair: no residue to check\n"


@pytest.mark.parametrize("argv", [
    ["residue", "-s", "5"], ["residue", "-s", "0"], ["residue", "-s", "-1"],
    ["appendix", "-s", "3", "-t", "1"], ["chambers", "-s", "1", "-t", "1"],
    ["appendix", "-s", "2", "-t", "2"],
], ids=lambda argv: " ".join(argv))
def test_generator_arguments_are_checked(argv, capsys):
    # each generator is one of 1..rank, and -s differs from -t
    assert main(["--builtin", "rank2:m3"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text,argv,err", [
    ("rank 0\n", [], "error: line 1: rank must be positive\n"),
    ("", [], "error: line 0: missing 'rank' directive\n"),
    ("rank 2\nm 1 2 3\n", ["--builtin", "rank2:m3"],
     "error: give either --builtin or --blueprint, not both\n"),
    ("rank 2\nm 1 2 3\n", ["--cap-galleries", "0"], "error: caps must be positive\n"),
    ("rank 2\nm 1 2 3\n", ["--cap-group-bits", "0"], "error: caps must be positive\n"),
    (None, ["--builtin", "allempty:universal0"], "error: rank must be positive\n"),
], ids=["rank-0", "empty-file", "builtin-and-blueprint", "cap-galleries-0",
        "cap-group-bits-0", "universal0"])
def test_boundary_refusals_exit_2(text, argv, err, capsys, tmp_path):
    # the checks of outside input that every command runs behind
    if text is not None:
        path = tmp_path / "case.bp"
        path.write_text(text)
        argv = ["--blueprint", str(path), *argv]
    assert main([*argv, "validate"]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("name,witness", [
    ("g2_weyl_mutated.bp", "gallery=2.1.2.1.2.1 i=2 j=6 "),
    ("b2_cb2_mutated.bp", "gallery=2.1.2.1 i=1 j=4 "),
])
def test_chambers_reports_cb3_failure_of_u(name, witness, capsys, tmp_path):
    # U on Phi(r_J) failing CB3 is a violation: its report is printed and
    # written, and the command exits 1
    report = tmp_path / "report.txt"
    assert main(["--blueprint", fixture_path(name), "--report", str(report),
                 "chambers", "-s", "1", "-t", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] build_CJ(") and witness in out
    lines = report.read_text().splitlines()
    assert lines[0].startswith("VIOLATION axiom=CB3 ") and witness in lines[0]
    assert lines[1].startswith("SUMMARY name=build_CJ(") and lines[1].endswith("violations=1")


def test_internal_errors_exit_3(capsys, monkeypatch):
    def crash(bp, args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert main(["--builtin", "rank2:m3", "validate"]) == 3
    assert "internal error: RecursionError" in capsys.readouterr().err

    def disagree(bp, args):
        raise InternalConsistencyError("two routes disagree")

    monkeypatch.setattr(cli, "cmd_validate", disagree)
    assert main(["--builtin", "rank2:m3", "validate"]) == 3
    assert "internal error: two routes disagree" in capsys.readouterr().err


def test_radius_zero_vacuous_pass():
    assert main(["--builtin", "rank2:m6lr", "--radius", "0", "validate"]) == 0


def test_validate_hexagon_radius_6():
    assert main(["--builtin", "rank2:m6lr", "--radius", "6", "validate"]) == 0


def test_validate_file_blueprint_ok():
    assert main(["--blueprint", fixture_path("rank3_b2_product.bp"),
                 "--radius", "4", "validate"]) == 0


def test_group_command(capsys):
    assert main(["--builtin", "rank2:m3", "group", "1.2.1"]) == 0
    out = capsys.readouterr().out
    assert "order: 8" in out and "nilpotency class: 2" in out


def test_group_command_g2(capsys):
    assert main(["--builtin", "rank2:m6lr", "group", "1.2.1.2.1.2"]) == 0
    out = capsys.readouterr().out
    assert "order: 64" in out


def test_residue_command(capsys):
    assert main(["--builtin", "rank2:m2", "residue", "-s", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_chambers_command(capsys):
    assert main(["--builtin", "rank2:m3", "chambers", "-s", "1", "-t", "2"]) == 0
    out = capsys.readouterr().out
    assert "21 chambers" in out and "building: PASS" in out and "braid:    PASS" in out


def test_appendix_command(capsys):
    assert main(["--builtin", "rank2:m6lr", "appendix", "-s", "1", "-t", "2"]) == 0


def test_roots_command(capsys):
    assert main(["--builtin", "allempty:universal2", "--radius", "3", "roots"]) == 0
    out = capsys.readouterr().out
    assert "positive roots" in out
