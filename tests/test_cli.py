"""Exit codes and report emission of the command-line surface."""

import time

import pytest

from rgdkit import cli
from rgdkit.cli import main
from rgdkit.coxeter import CoxeterSystem
from rgdkit.errors import InternalConsistencyError
from tests.conftest import fixture_path


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


def test_usage_errors_exit_2(capsys):
    assert main(["validate"]) == 2                       # no blueprint
    assert main(["--blueprint", "/no/such/file.bp", "validate"]) == 2
    assert main(["--builtin", "rank2:m9", "validate"]) == 2
    assert main(["--builtin", "allempty:universal", "validate"]) == 2
    assert main(["--builtin", "allempty:universalx", "validate"]) == 2
    assert main(["--builtin", "allempty:universal65", "validate"]) == 2  # rank above 64


def test_group_refuses_long_word_before_normalizing(capsys, monkeypatch):
    def refuse(self, word):
        raise AssertionError("normal_form reached before the bit cap check")

    monkeypatch.setattr(CoxeterSystem, "normal_form", refuse)
    word = ".".join(["1.2.3"] * 400)
    assert main(["--builtin", "allempty:universal3", "group", word]) == 2
    assert "exceeds group bit cap 24" in capsys.readouterr().err


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
    def crash(cfg):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert main(["--builtin", "rank2:m3", "validate"]) == 3
    assert "internal error: RecursionError" in capsys.readouterr().err

    def disagree(cfg):
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
