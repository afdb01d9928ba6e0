"""Blueprint queries, axioms validators, file round trips, mutation detection."""

import importlib.util
import pathlib

import pytest

from rgdkit import blueprints as bpmod
from rgdkit.coxeter import word_label
from rgdkit.errors import BlueprintError, ParseError
from rgdkit.galleries import get_gallery, min_gal, min_gal_s, shift
from rgdkit.groupforge import validate_cb3
from rgdkit.reports import Report, Violation
from rgdkit.roots import Root, open_interval, simple_root
from tests.conftest import FIXTURES, fixture_path

MAKE_FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def G_of(bp, word):
    return get_gallery(bp.cox, word)


def test_query_a2(bp_m3):
    G = G_of(bp_m3, (0, 1, 0))
    assert bp_m3.query(G, 1, 3) == (2,)
    assert bp_m3.query(G, 1, 2) == ()
    assert bp_m3.query(G, 2, 2) == ()


def test_query_b2(bp_m4):
    G = G_of(bp_m4, (0, 1, 0, 1))
    assert bp_m4.query(G, 1, 4) == (2, 3)
    assert all(bp_m4.query(G, i, j) == ()
               for i in range(1, 5) for j in range(i, 5) if (i, j) != (1, 4))


def test_query_g2(bp_m6):
    G = G_of(bp_m6, (0, 1, 0, 1, 0, 1))
    assert bp_m6.query(G, 1, 6) == (2, 3, 4, 5)
    assert bp_m6.query(G, 2, 6) == (4,)
    assert bp_m6.query(G, 1, 3) == (2,)
    assert bp_m6.query(G, 3, 5) == (4,)
    assert bp_m6.query(G, 1, 5) == (2, 4)


def test_query_g2_mirror_gallery(bp_m6):
    # values on the opposite gallery carry the same underlying sets,
    # re-indexed; forced by prefix coherence plus Weyl-invariance
    H = G_of(bp_m6, (1, 0, 1, 0, 1, 0))
    assert bp_m6.query(H, 1, 6) == (2, 3, 4, 5)
    assert bp_m6.query(H, 2, 6) == (3, 5)
    assert bp_m6.query(H, 1, 5) == (3,)
    assert bp_m6.query(H, 2, 4) == (3,)
    assert bp_m6.query(H, 4, 6) == (5,)


def test_relations_table_restricts_to_prefixes(bp_m6):
    G = G_of(bp_m6, (0, 1, 0, 1, 0, 1))
    table = bp_m6.relations(G)
    assert list(table) == [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    assert table == {(i, j): bp_m6.query(G, i, j) for (i, j) in table}
    assert bp_m6.relations(G) is table  # memoized by the blueprint
    H = G.prefix(4)
    assert bp_m6.relations(H) == {ij: table[ij] for ij in bp_m6.relations(H)}
    # galleries of one length share their key tuples, and equal answers one table
    mirror = bp_m6.relations(G_of(bp_m6, (1, 0, 1, 0, 1, 0)))
    assert all(a is b for a, b in zip(table, mirror))
    assert bp_m6.relations(G_of(bp_m6, (0, 1))) is bp_m6.relations(G_of(bp_m6, (1, 0)))


def test_validate_queries_each_triple_once(monkeypatch):
    from rgdkit import cli

    seen = []
    query = bpmod.Blueprint.query

    def counting(self, G, i, j):
        seen.append((G.word, i, j))
        return query(self, G, i, j)

    monkeypatch.setattr(bpmod.Blueprint, "query", counting)
    # the all-empty default asks no query; g2_full.bp's explicit entries do
    for argv, asks in ((["--builtin", "allempty:universal3"], False),
                       (["--blueprint", fixture_path("g2_full.bp")], True)):
        seen.clear()
        assert cli.main(argv + ["--radius", "4", "validate"]) == 0
        assert bool(seen) == asks and len(set(seen)) == len(seen), argv


def test_query_bounds(bp_m3):
    G = G_of(bp_m3, (0, 1, 0))
    with pytest.raises(BlueprintError):
        bp_m3.query(G, 0, 2)
    with pytest.raises(BlueprintError):
        bp_m3.query(G, 1, 4)


def test_query_fails_closed_on_bad_table_values(bp_m4):
    # a table built without ingest: a value must be strictly increasing
    # positions inside the open interval
    word = (0, 1, 0, 1)
    G = get_gallery(bp_m4.cox, word)
    for bad in ((3, 2), (2, 2), (1, 2), (2, 4)):
        bp = bpmod.Blueprint(bp_m4.cox, {(word, 1, 4): bad})
        with pytest.raises(BlueprintError):
            bp.query(G, 1, 4)


@pytest.mark.parametrize("name", ["rank2:m2", "rank2:m3", "rank2:m4",
                                  "rank2:m6lr", "rank2:m6rl"])
def test_builtins_pass_all_validators(name):
    bp = bpmod.builtin(name)
    assert bpmod.validate_cb1(bp, 6).ok
    assert bpmod.validate_cb2(bp).ok
    assert bpmod.validate_weyl(bp, 6).ok


def test_allempty_universal_passes(bp_universal3):
    assert bpmod.validate_cb1(bp_universal3, 4).ok
    assert bpmod.validate_cb2(bp_universal3).ok
    assert bpmod.validate_weyl(bp_universal3, 4).ok


def test_product_fixture_passes(bp_product_b2):
    assert bpmod.validate_cb1(bp_product_b2, 5).ok
    assert bpmod.validate_cb2(bp_product_b2).ok
    assert bpmod.validate_weyl(bp_product_b2, 5).ok


def test_cb1_detects_corrupted_prefix():
    bp = bpmod.ingest_path(fixture_path("b2_cb1_mutated.bp"))
    report = bpmod.validate_cb1(bp, 4)
    assert not report.ok
    witness = report.violations[0]
    assert witness.gallery == "1.2.1" and (witness.i, witness.j) == (1, 3)
    assert bpmod.validate_cb2(bp).ok


def test_cb2_detects_wrong_simple_pair_value():
    bp = bpmod.ingest_path(fixture_path("b2_cb2_mutated.bp"))
    report = bpmod.validate_cb2(bp)
    assert not report.ok
    witness = report.violations[0]
    assert (witness.i, witness.j) == (1, 4)
    assert witness.expected == "2,3" and witness.found == "2"


def test_weyl_detects_mutation_with_witness():
    bp = bpmod.ingest_path(fixture_path("g2_weyl_mutated.bp"))
    assert bpmod.validate_cb1(bp, 6).ok
    assert bpmod.validate_cb2(bp).ok
    report = bpmod.validate_weyl(bp, 6)
    assert not report.ok
    # some witness must point at the altered mirror-gallery entry (2,6)
    assert any(v.gallery == "2.1.2.1.2.1" and (v.i, v.j) == (2, 6)
               for v in report.violations)


def weyl_by_roots(bp, r):
    """The root-based Weyl loop that `validate_weyl` replaced: reflect every
    root of M^G and look up the images and both ends again in sG."""
    report = Report(f"Weyl({bp.name}, r={r})")
    cox = bp.cox

    def s_image(s, root):
        return Root(cox.reflect(s, root.vec))

    for w in cox.ball(r):
        for s in range(cox.rank):
            alpha_s = simple_root(cox, s)
            for G in min_gal_s(cox, w, s):
                sG = shift(G, s)
                for i in range(1, len(G) + 1):
                    if G.root(i) == alpha_s:
                        continue
                    for j in range(i, len(G) + 1):
                        if G.root(j) == alpha_s:
                            continue
                        report.checks += 1
                        image = tuple(s_image(s, G.root(p)) for p in bp.query(G, i, j))
                        q = bp.query(sG, sG.position(s_image(s, G.root(i))),
                                     sG.position(s_image(s, G.root(j))))
                        shifted = tuple(sG.root(p) for p in q)
                        if image != shifted:
                            report.add(Violation(
                                axiom="Weyl", w=word_label(w), s=str(s + 1),
                                gallery=G.label(), i=i, j=j,
                                expected=",".join(str(sG.position(x)) for x in image) or "-",
                                found=",".join(str(sG.position(x)) for x in shifted) or "-"))
    return report


@pytest.mark.parametrize("name, r", [
    ("g2_weyl_mutated.bp", 6), ("g2_full.bp", 6), ("b2_full.bp", 4),
    ("rank3_a2_product.bp", 5), ("rank3_b2_product.bp", 5),
    ("rank3_g2_product.bp", 5), ("rank3_cycle444.bp", 5)])
def test_weyl_matches_root_oracle_on_fixtures(name, r):
    bp = bpmod.ingest_path(fixture_path(name))
    assert bpmod.validate_weyl(bp, r).machine_lines() == weyl_by_roots(bp, r).machine_lines()


def drop_one_position_mutants(text):
    """Every file that drops one value position from one `rel` line."""
    lines = text.splitlines()
    for n, line in enumerate(lines):
        if not line.startswith("rel "):
            continue
        head, values = line.split(" : ")
        ks = values.split()
        for k in range(len(ks)):
            mutant = f"{head} : {' '.join(ks[:k] + ks[k + 1:])}"
            yield "\n".join(lines[:n] + [mutant] + lines[n + 1:]) + "\n"


def test_weyl_matches_root_oracle_on_drop_one_mutants():
    mutants = caught = 0
    for name, r in (("g2_full.bp", 6), ("b2_full.bp", 4)):
        with open(fixture_path(name), encoding="utf-8") as fh:
            text = fh.read()
        for mutant_text in drop_one_position_mutants(text):
            bp = bpmod.ingest(mutant_text)
            got = bpmod.validate_weyl(bp, r)
            assert got.machine_lines() == weyl_by_roots(bp, r).machine_lines()
            mutants += 1
            caught += not got.ok
    assert (mutants, caught) == (31, 15)


def test_serialize_round_trip(bp_m3):
    text = bpmod.serialize(bp_m3, 3)
    clone = bpmod.ingest(text)
    for w in bp_m3.cox.ball(3):
        for G in min_gal(bp_m3.cox, w):
            H = get_gallery(clone.cox, G.word)
            for i in range(1, len(G) + 1):
                for j in range(i, len(G) + 1):
                    assert bp_m3.query(G, i, j) == \
                        clone.query(H, i, j)


def test_serialize_round_trip_g2(bp_m6):
    text = bpmod.serialize(bp_m6, 6)
    clone = bpmod.ingest(text)
    for w in bp_m6.cox.ball(6):
        for G in min_gal(bp_m6.cox, w):
            H = get_gallery(clone.cox, G.word)
            for i in range(1, len(G) + 1):
                for j in range(i, len(G) + 1):
                    assert bp_m6.query(G, i, j) == \
                        clone.query(H, i, j)


def test_make_fixtures_reproduces_the_committed_files(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", MAKE_FIXTURES)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.bp"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_ingest_rejects_value_outside_interval():
    text = "rank 2\nm 1 2 3\ndefault empty\nrel 1.2 1 2 : 2\n"
    with pytest.raises(ParseError):
        bpmod.ingest(text)
    text = "rank 2\nm 1 2 4\ndefault empty\nrel 1.2.1.2 1 4 : 2 2\n"
    with pytest.raises(ParseError):
        bpmod.ingest(text)


def test_ingest_rejects_unreduced_gallery():
    text = "rank 2\nm 1 2 3\ndefault empty\nrel 1.1 1 2 : \n"
    with pytest.raises(ParseError):
        bpmod.ingest(text)


def test_ingest_parse_error_has_line_number():
    text = "rank 2\nm 1 2 3\nbogus directive\n"
    with pytest.raises(ParseError) as err:
        bpmod.ingest(text)
    assert "line 3" in str(err.value)


def test_ingest_matrix_errors_name_their_line():
    cases = [
        ("rank 2\n\nm 1 2 5\n", 3),                     # label outside {2,3,4,6,inf}
        ("rank 2\nm 1 2 3\ndir6 2 1\n", 3),             # dir6 on an edge labelled 3
        ("rank 2\ndir6 2 1\nm 1 2 4\n", 2),             # ... also when it comes first
        ("rank 2\nm 1 2 6\n", 2),                       # 6-edge without a direction
        ("rank 2\nm 1 3 3\n", 2),                       # generator out of range
        ("rank 2\nm 1 2 3\nm 2 1 4\n", 3),              # contradicts an earlier label
        ("rank 3\nm 1 2 3\nm 1 3 2\n", 1),              # missing label: the rank line
        ("rank 2\nm 1 2 3\nrel 1.2.1 1 3 : 2\nrel 1.2.1 1 3 :\n", 4),  # contradicts a rel
        ("rank 2\nm 1 2 3\ndefault foo\n", 3),          # unknown default mode
        ("rank 3\nrank 2\nm 1 2 3\n", 2),               # contradicts an earlier rank
        ("rank 2\nm 1 2 3\ndefault strict\ndefault empty\n", 4),  # ... an earlier default
        ("rank 3\nrank 2\nm 1 2 3\ndefault strict\ndefault empty\n", 2),  # the first of both
    ]
    for text, line_no in cases:
        with pytest.raises(ParseError) as err:
            bpmod.ingest(text)
        assert err.value.line_no == line_no, (text, str(err.value))
    with pytest.raises(ParseError, match=r"^line 4: default empty contradicts line 3$"):
        bpmod.ingest("rank 2\nm 1 2 3\ndefault strict\ndefault empty\n")
    # identical repeats are no contradiction
    bp = bpmod.ingest("rank 2\nrank 2\nm 1 2 3\ndefault rank2\ndefault rank2\n")
    assert (bp.cox.rank, bp.default) == (2, "rank2")


# id -> (file, line number, directive, the bad number as the message shows it)
BAD_NUMBERS = {
    "fullwidth-label": ("rank 2\nm 1 2 \uff14\n", 2, "m", "'\uff14'"),  # a fullwidth digit is not 4
    "decimal-label": ("rank 2\nm 1 2 3.0\n", 2, "m", "'3.0'"),
    "INF-label": ("rank 2\nm 1 2 INF\n", 2, "m", "'INF'"),  # only `inf` is infinite
    "arabic-indic-generator": ("rank 2\nm \u0661 2 3\n", 2, "m", "'\u0661'"),
    "rank-abc": ("rank abc\n", 1, "rank", "'abc'"),
    "rank-5000-digits": ("rank " + "1" * 5000 + "\n", 1, "rank",
                         "'" + "1" * 18 + "...'"),  # bounded before int
    "fullwidth-dir6": ("rank 2\nm 1 2 6\ndir6 \uff12 1\n", 3, "dir6", "'\uff12'"),
    "empty-letter": ("rank 2\nm 1 2 3\nrel 1..2 1 2 :\n", 3, "rel", "''"),
    "missing-word": ("rank 2\nm 1 2 3\nrel  1 2 :\n", 3, "rel", "':'"),
    "signed-position": ("rank 2\nm 1 2 3\nrel 1.2.1 +1 3 :\n", 3, "rel", "'+1'"),
    "fullwidth-value": ("rank 2\nm 1 2 3\nrel 1.2.1 1 3 : \uff12\n", 3, "rel", "'\uff12'"),
    "19-digit-position": ("rank 2\nm 1 2 3\nrel 1.2.1 1 " + "9" * 19 + " :\n", 3, "rel",
                          "'" + "9" * 18 + "...'"),
}


@pytest.mark.parametrize("text, line_no, kind, token", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_ingest_reads_numbers_as_ascii_digits(text, line_no, kind, token):
    # every number field is [0-9]+ of at most 18 digits, and `inf` only as a label
    with pytest.raises(ParseError) as err:
        bpmod.ingest(text)
    assert str(err.value) == (f"line {line_no}: {kind}: bad number {token}, expected at most "
                              f"18 ASCII digits ({kind} {bpmod.FIELDS[kind]})")


TRAILING_FIELDS = [
    ("rank 3 4\nm 1 2 3\nm 1 3 3\nm 2 3 3\n", 1, "rank", "4"),
    ("rank 2\nm 1 2 3 9\n", 2, "m", "9"),
    ("rank 2\nm 1 2 6\ndir6 1 2 7\n", 3, "dir6", "7"),
    ("rank 2\nm 1 2 3\ndefault empty empty\n", 3, "default", "empty"),
    ("rank 2\nm 1 2 3\ndefault rank2 extra\n", 3, "default", "extra"),
]
TRAILING_IDS = ["rank", "m", "dir6", "default-empty", "default-rank2"]


@pytest.mark.parametrize("text, line_no, kind, token", TRAILING_FIELDS, ids=TRAILING_IDS)
def test_ingest_refuses_trailing_fields(text, line_no, kind, token):
    # each fixed-arity directive has exactly its FIELDS; only `rel` has a tail
    with pytest.raises(ParseError) as err:
        bpmod.ingest(text)
    assert str(err.value) == (f"line {line_no}: {kind}: unexpected field {token!r} "
                              f"({kind} {bpmod.FIELDS[kind]})")


@pytest.mark.parametrize("text", [
    "rank 02\nm 1 2 inf\n", "rank 2\nm 01 2 004\n", "rank " + "0" * 17 + "2\nm 1 2 3\n"])
def test_ingest_reads_leading_zeros_as_before(text):
    assert bpmod.ingest(text).cox.rank == 2


def test_ingest_names_the_contradicted_rel_line():
    text = "rank 2\nm 1 2 3\nrel 1.2.1 1 3 : 2\nrel 1.2.1 1 3 : 2\nrel 1.2.1 1 3 :\n"
    with pytest.raises(ParseError, match=r"^line 5: .* contradicts line 3$"):
        bpmod.ingest(text)
    # an identical repeat is no contradiction
    assert bpmod.ingest(text.rsplit("rel", 1)[0]).entries == {((0, 1, 0), 1, 3): (2,)}


def test_ingest_rejects_a_missing_label_before_building_the_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("CoxeterMatrix.from_dict reached with a label missing")

    monkeypatch.setattr(bpmod.CoxeterMatrix, "from_dict", refuse)
    with pytest.raises(ParseError) as err:
        bpmod.ingest("rank 1000000\n")
    assert err.value.line_no == 1
    assert str(err.value) == "line 1: missing label for pair (1,2)"


def test_strict_default_raises():
    text = "rank 2\nm 1 2 3\ndefault strict\n"
    bp = bpmod.ingest(text)
    G = get_gallery(bp.cox, (0, 1))
    with pytest.raises(BlueprintError):
        bp.query(G, 1, 2)


def test_rel_entry_in_a2_file():
    text = "rank 2\nm 1 2 3\ndefault empty\nrel 1.2.1 1 3 : 2\n"
    bp = bpmod.ingest(text)
    G = get_gallery(bp.cox, (0, 1, 0))
    assert bp.query(G, 1, 3) == (2,)


def test_builtin_names():
    with pytest.raises(BlueprintError):
        bpmod.builtin("rank2:m8")
    with pytest.raises(BlueprintError):
        bpmod.builtin("nonsense")
    assert bpmod.builtin("allempty:universal2").cox.rank == 2
    # N is ASCII digits, and a long one is refused before `int` reads it
    for name in ("allempty:universal\uff13", "allempty:universal\u0663",
                 "allempty:universal" + "1" * 5000):
        with pytest.raises(BlueprintError):
            bpmod.builtin(name)


def _assert_same_tables(bp, other, r):
    """Equal tables and table numbers on every gallery of ball(r)."""
    for w in bp.cox.ball(r):
        for G in min_gal(bp.cox, w):
            H = get_gallery(other.cox, G.word)
            assert other.relations(H) == bp.relations(G), G.label()
            assert other.table_no(H) == bp.table_no(G), G.label()


@pytest.mark.parametrize("name, lines", [
    ("rank2:m2", "m 1 2 2\n"), ("rank2:m3", "m 1 2 3\n"), ("rank2:m4", "m 1 2 4\n"),
    ("rank2:m6lr", "m 1 2 6\ndir6 2 1\n"), ("rank2:m6rl", "m 1 2 6\ndir6 1 2\n")])
def test_rank2_builtin_is_a_file_without_entries(name, lines):
    bp = bpmod.builtin(name)
    assert (type(bp), bp.entries, bp.default) == (bpmod.Blueprint, {}, "rank2")
    file = bpmod.ingest(f"rank 2\n{lines}default rank2\n")
    _assert_same_tables(bp, file, int(bp.cox.matrix.m(0, 1)) + 1)


def test_allempty_builtin_is_the_allempty_file():
    bp = bpmod.builtin("allempty:universal3")
    assert (type(bp), bp.entries, bp.default) == (bpmod.Blueprint, {}, "empty")
    _assert_same_tables(bp, bpmod.ingest_path(fixture_path("universal3_allempty.bp")), 5)


def test_allempty_fails_cb2_on_spherical_edge():
    # trivializing a triangle's commutators contradicts the forced value
    from rgdkit.coxeter import CoxeterMatrix, CoxeterSystem
    bp = bpmod.Blueprint(CoxeterSystem(CoxeterMatrix.dihedral(3)), {})
    report = bpmod.validate_cb2(bp)
    assert not report.ok


def test_rank2_values_lie_in_open_interval():
    for variant in ("m2", "m3", "m4", "m6lr", "m6rl"):
        bp = bpmod.builtin(f"rank2:{variant}")
        cox = bp.cox
        for G in min_gal(cox, cox.longest_element((0, 1))):
            for i in range(1, len(G) + 1):
                for j in range(i, len(G) + 1):
                    allowed = {G.position(r) for r in open_interval(cox, G.root(i), G.root(j), G)}
                    assert set(bp.query(G, i, j)) <= allowed, (variant, G.label(), i, j)
    bp_m6 = bpmod.builtin("rank2:m6lr")
    G = get_gallery(bp_m6.cox, (0, 1, 0, 1, 0, 1))
    assert bp_m6.query(G, 1, 6) == (2, 3, 4, 5)


def test_build_uw_partiality_note(bp_m6):
    from rgdkit.groupforge import build_Uw
    pres, report = build_Uw(bp_m6, bp_m6.cox.longest_element((0, 1)), gallery_cap=1)
    assert report.ok and pres.consistent
    assert any("partial" in n for n in report.notes)


def test_weyl_stable_under_prefix_restriction(bp_m6):
    # CB1 + Weyl-invariance commute: validating at a smaller radius is
    # implied by the larger radius on every fixture that passes
    for r in (2, 4, 6):
        assert bpmod.validate_weyl(bp_m6, r).ok


class RecordingDict(dict):
    """A dict that records the keys stored in it and counts its `get` calls."""

    def __init__(self):
        super().__init__()
        self.stored = []
        self.reads = 0

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_cb3_prefix_certificates_reuse_the_comparisons_of_cb1():
    # on universal3 each new CB3 key asks whether its prefix table is a
    # restriction: CB1 has answered each such question already
    bp = bpmod.builtin("allempty:universal3")
    bp._mismatches = memo = RecordingDict()
    assert bpmod.validate_cb1(bp, 6).ok
    after_cb1, reads = len(memo), memo.reads
    assert validate_cb3(bp, 6).ok
    assert memo.reads > reads  # the prefix certificate reads the memo
    assert len(memo) == after_cb1
    assert len(memo.stored) == len(set(memo.stored))  # no key is computed twice


def test_mismatches_name_the_pairs_that_disagree():
    # the mutant sets M(1, 3) = {2} on 1.2.1 but not on its extension 1.2.1.2
    bp = bpmod.ingest_path(fixture_path("b2_cb1_mutated.bp"))
    G = G_of(bp, (0, 1, 0, 1))
    assert bp.mismatches(G, G.prefix(3), 0) == ((1, 3, "-", "2"),)
    assert bp.mismatches(G, G.prefix(3), 0) is bp.mismatches(G, G.prefix(3), 0)
    assert bp.mismatches(G, G.prefix(2), 0) == ()
    # s = 1 maps position p + 1 of 1.2.1.2 to position p of 2.1.2
    assert bp.mismatches(G, shift(G, 0), -1) == ()
