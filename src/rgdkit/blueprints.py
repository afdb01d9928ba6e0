"""Commutator blueprints: the assignment (G, alpha, beta) -> M^G_{alpha,beta}.

A blueprint answers, for every gallery G and crossed roots alpha <=_G beta,
a subset of the open interval (alpha, beta), given as the strictly
increasing gallery positions of its roots; these sets prescribe the
relations [u_alpha, u_beta] = prod u_gamma of the groups built in
`groupforge`.  `Blueprint.relations(G)` is the one place a gallery's answer
lives: the table {(i, j): M^G(i, j)} over every pair of positions i < j,
built once and memoized by the blueprint.  Galleries with equal answers
share one table, and each distinct table has a number, `table_no(G)`, given
in first-seen order.

A table is built from shorter ones.  A default answer M(i, j) that lies
inside (i, j) depends on the first j letters of the gallery only, so the
`rank2` default answers are built one column j at a time and each column is
cached under its prefix word[:j] by the blueprint's `LocalRank2`; the
all-empty default needs no column.  The explicit entries for the exact word
are laid over the default answers, each read through `query`.  Strict mode,
and a table with a default value that fails the bounds check, are built
from `query` in row order, so the error raised names the first bad pair in
that order.

Every check compares two tables, `Blueprint.mismatches(G, H, d)`: a prefix
gallery's table is the restriction of its extension's (d = 0), and
Weyl-invariance compares tables shifted by d = len(sG) - len(G), as s maps the
root at position p of G to the root at position p + d of sG.  The blueprint
memoizes each comparison, failures included, under the two table numbers and
d, so a failing pair is compared once and still reported at every site.
Inside the ball each Weyl edge {G, sG} has two sites, the descent s of the
longer element and the ascent s of the shorter one, with the same galleries
and the same answer; a first pass compares each gallery with the gallery of
word[1:] once for both, and the ascents of the last layer, and on a
disagreement or a cap the loop over every site reports in its order.

One class, `Blueprint`, holds explicit entries over a default mode, `empty`,
`strict` or `rank2`.  A line-oriented file is read into one; a builtin is
one without entries: `rank2:*` answers from the rank-2 Moufang tables
propagated to every spherical residue (`LocalRank2`), and
`allempty:universalN` makes every commutator trivial.  Validators check the
three blueprint axioms (CB1 prefix coherence, CB2 rank-2 Moufang values,
CB3 via group construction elsewhere) and Weyl-invariance.
"""

from __future__ import annotations

import io
from functools import cache
from math import inf
from operator import mul

from .coxeter import ALLOWED_LABELS, CoxeterMatrix, CoxeterSystem, Word, word_label
from .errors import BlueprintError, CapExceeded, ParseError, RgdError
from .galleries import (Gallery, get_gallery, min_gal, min_gal_s, oriented_gallery,
                        rj_gallery, shift)
from .reports import Report, Violation
from .roots import Residue2, Root, common_residue, coroot_row, open_interval, pair_order

# Non-trivial commutation sets of the rank-2 Moufang tables over GF(2),
# keyed by crossing positions (i, j) on the distinguished length-m gallery.
RANK2_M_SETS: dict[int, dict[tuple[int, int], tuple[int, ...]]] = {
    2: {},
    3: {(1, 3): (2,)},
    4: {(1, 4): (2, 3)},
    6: {(1, 3): (2,), (3, 5): (4,), (1, 5): (2, 4), (2, 6): (4,), (1, 6): (2, 3, 4, 5)},
}

# `rank2:<variant>` -> the arguments of `CoxeterMatrix.dihedral`: the label
# and, for a hexagon, the direction of its 6-edge
RANK2_BUILTINS: dict[str, tuple] = {
    "m2": (2,), "m3": (3,), "m4": (4,), "m6lr": (6, (1, 0)), "m6rl": (6, (0, 1)),
}

# what a file's `default` line may say: how triples without a `rel` line read
DEFAULT_MODES = ("empty", "strict", "rank2")
# the fields of each directive, named when a line has too few or too many
FIELDS = {"rank": "N", "m": "I J LABEL", "dir6": "T S", "default": "MODE", "rel": "WORD I J : K ..."}

# the largest N of `allempty:universalN`, refused before its N x N matrix is built
MAX_UNIVERSAL_RANK = 64
# the most digits a number in the input may have, checked before it is converted
MAX_DIGITS = 18


def is_digits(text: str) -> bool:
    """True iff `text` is one to MAX_DIGITS ASCII digits, the test of every
    number in the input (bare `int` reads any Unicode digit, and refuses
    thousands of digits in its own words)."""
    return len(text) <= MAX_DIGITS and text.isascii() and text.isdigit()


def cut(text: str) -> str:
    """Input text as an error message echoes it: cut after MAX_DIGITS
    characters, so no message grows with the input."""
    return text if len(text) <= MAX_DIGITS else text[:MAX_DIGITS] + "..."


def natural(kind: str, token: str) -> int:
    """A number field of a `kind` line, read if `is_digits` holds."""
    if not is_digits(token):
        raise ValueError(f"{kind}: bad number {cut(token)!r}, expected at most {MAX_DIGITS} "
                         f"ASCII digits ({kind} {FIELDS[kind]})")
    return int(token)


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(i, j) for 1 <= i < j <= n in row order, one tuple per length, so the
    tables of all galleries of a length share their keys."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _checked(i: int, j: int, value: tuple[int, ...]) -> bool:
    """True iff `value` is strictly increasing inside the open interval (i, j)."""
    prev = i
    for p in value:
        if not prev < p < j:
            return False
        prev = p
    return True


class Blueprint:
    """Explicit entries over a default mode, read from a file or built in.

    Explicit entries are keyed by (gallery type word, i, j); unspecified
    triples follow the default mode: `empty` (trivial), `strict` (error) or
    `rank2` (the Moufang residue values of `LocalRank2`, empty outside
    spherical pairs).  A builtin has no entries: `rank2:*` defaults to
    `rank2`, and `allempty:universalN` to `empty`, every commutator trivial,
    which is valid for right-angled and universal types.
    """

    def __init__(self, cox: CoxeterSystem, entries: dict[tuple[Word, int, int], tuple[int, ...]],
                 default: str = "empty", name: str = "file"):
        if default not in DEFAULT_MODES:
            raise BlueprintError(f"unknown default mode {default!r}")
        self.cox = cox
        self.name = name
        self.entries = dict(entries)
        self.default = default
        self._local = LocalRank2(cox) if default == "rank2" else None
        # gallery word -> the (i, j) of its explicit entries
        self._rows: dict[Word, list[tuple[int, int]]] = {}
        for (word, i, j) in self.entries:
            self._rows.setdefault(word, []).append((i, j))
        # gallery word -> (table number, table), one entry per distinct answer
        self._relations: dict[Word, tuple[int, dict]] = {}
        self._tables: dict[tuple, tuple[int, dict]] = {}
        # (table_no(G), table_no(H), d) -> mismatches(G, H, d)
        self._mismatches: dict[tuple[int, int, int], tuple] = {}

    def relations(self, G: Gallery) -> dict[tuple[int, int], tuple[int, ...]]:
        """M^G as {(i, j): positions} for every pair 1 <= i < j <= len(G),
        in row order; built once per gallery, from `_answers` or else from
        `query` in row order, and memoized.  Galleries with equal answers,
        mostly all-empty ones, share one table, so callers must not mutate
        it."""
        return (self._relations.get(G.word) or self._table(G))[1]

    def table_no(self, G: Gallery) -> int:
        """The number of `relations(G)`: equal tables, and only they, have
        equal numbers, counted from 0 in first-seen order.  Galleries of
        lengths 0 and 1 share the empty table."""
        return (self._relations.get(G.word) or self._table(G))[0]

    def mismatches(self, G: Gallery, H: Gallery, d: int) -> tuple[tuple[int, int, str, str], ...]:
        """(i, j, expected, found), rendered as in a `Violation`, for each
        pair (i, j) of G, in row order, whose value shifted by d differs from
        H's value at (i + d, j + d); pairs that H lacks are passed over.
        Memoized under (table_no(G), table_no(H), d): a table fixes its
        gallery's length, but for lengths 0 and 1, which share the empty
        table; with no pairs on one side the answer is empty either way."""
        key = (self.table_no(G), self.table_no(H), d)
        found = self._mismatches.get(key)
        if found is None:
            other, render = self.relations(H), lambda ks: ",".join(map(str, ks)) or "-"
            found = self._mismatches[key] = tuple(
                (i, j, render(image), render(value_h))
                for (i, j), value in self.relations(G).items()
                if (value_h := other.get((i + d, j + d))) is not None
                and (image := tuple(p + d for p in value)) != value_h)
        return found

    def _table(self, G: Gallery) -> tuple[int, dict]:
        pairs = _pairs(len(G))
        values = self._answers(G)
        if values is None:
            values = tuple(self.query(G, *ij) for ij in pairs)
        entry = self._tables.get(values)
        if entry is None:
            entry = self._tables[values] = (len(self._tables), dict(zip(pairs, values)))
        self._relations[G.word] = entry
        return entry

    # -- core query -------------------------------------------------------

    def query(self, G: Gallery, i: int, j: int) -> tuple[int, ...]:
        """M^G for positions 1 <= i <= j <= len(G), as the strictly increasing
        gallery positions of its roots; a value leaving (i, j) is an error."""
        if not (1 <= i <= j <= len(G)):
            raise BlueprintError(f"positions ({i},{j}) out of range for gallery {G.label()}")
        if i == j:
            return ()
        value = self._value(G, i, j)
        if not _checked(i, j, value):
            raise BlueprintError(
                f"{self.name}: M^{G.label()}({i},{j}) = {value} is not strictly "
                f"increasing inside the open interval")
        return value

    def _value(self, G: Gallery, i: int, j: int) -> tuple[int, ...]:
        ks = self.entries.get((G.word, i, j))
        if ks is not None:
            return ks
        if self.default == "strict":
            raise BlueprintError(
                f"{self.name}: no entry for gallery {G.label()} pair ({i},{j}) (strict mode)")
        if self._local is not None:
            return self._local.value(G, i, j)
        return ()

    def _answers(self, G: Gallery) -> tuple | None:
        """The default answers, all empty or the rank-2 columns, with the
        explicit entries for G's word laid over them through `query`, in row
        order; None, to have `_table` query them one by one, in strict mode
        or if a default value fails."""
        if self.default == "strict":
            return None
        pairs = _pairs(len(G))
        values = ((),) * len(pairs) if self._local is None else self._local.answers(G)
        rows = self._rows.get(G.word)
        if not rows or values is None:
            return values
        table = dict(zip(pairs, values))
        for ij in sorted(rows):
            if ij in table:
                table[ij] = self.query(G, *ij)
        return tuple(table.values())


class LocalRank2:
    """The `default rank2` answers: Moufang rank-2 values propagated to
    every spherical residue.

    For a pair of roots whose reflections have finite product order, the
    value is the Moufang table entry of the base residue of that type,
    translated by the gate of their common residue; infinite pairs get the
    empty set.  On a rank-2 system this is exactly the built-in table.

    The order is read off the pairing product p = <alpha, beta^vee><beta,
    alpha^vee> = 4 cos^2(pi/m): p = 0 for commuting reflections, whose value
    is empty too, and p >= 4 for an infinite pair.  So `answers` screens
    each column by p, with two dot products against cached coroot rows, and
    only the pairs with 0 < p < 4 reach `pair_value`.

    `pair_value` answers one residue at a time.  A finite pair missing from
    `_pair_cache` runs `common_residue` once, with its support check, and
    `_fill` stores every pair of walls of the residue R = (gate, J) found:
    the m(m - 1)/2 pairs of gate . Phi+_J, read off the base table of J with
    each of its m roots moved by the gate once.  That is what `common_residue`
    would give for each of those pairs on its own.  It sums the point over
    D = <r_alpha, r_beta>, which is |D| times the projection of the point
    onto Fix(D) along the plane of the two coroots.  Any two distinct walls
    of R span the root plane gate . Phi_J, so every pair of them has the
    same fixed space and the same coroot plane.  So every pair yields the
    same point up to a positive factor, the fold gives the same gate and J,
    and the fallback points behave alike; this covers finite parabolics of
    rank >= 3 and rank >= 4, where a pair can lie in more than one residue.
    Gallery roots are positive, so a finite pair whose residue is R is a
    pair of walls of R, and a miss means that R has not been filled yet.
    """

    def __init__(self, cox: CoxeterSystem):
        self.cox = cox
        # type J -> {root vectors of a pair: root vectors of its value}, over
        # every pair of the m roots of Phi+_J
        self._base_tables: dict[tuple[int, int], dict[frozenset, tuple]] = {}
        self._pair_cache: dict[frozenset, frozenset] = {}
        # word[:j] -> (M(1, j), ..., M(j - 1, j)), each value `_checked`
        self._columns: dict[Word, tuple] = {}

    def _base_table(self, J: tuple[int, int]) -> dict[frozenset, tuple]:
        cached = self._base_tables.get(J)
        if cached is not None:
            return cached
        G = oriented_gallery(self.cox, *J)
        table: dict[frozenset, tuple] = {}
        for i, j in _pairs(len(G)):
            ks = RANK2_M_SETS[len(G)].get((i, j), ())
            table[frozenset({G.root(i).vec, G.root(j).vec})] = tuple(G.root(k).vec for k in ks)
        self._base_tables[J] = table
        return table

    def value(self, G: Gallery, i: int, j: int) -> tuple[int, ...]:
        """M(i, j) on G as gallery positions, not yet checked against (i, j)."""
        return tuple(sorted(map(G.position, self.pair_value(G.root(i), G.root(j)))))

    def answers(self, G: Gallery) -> tuple | None:
        """G's answers in the order of `_pairs`; column j holds M(i, j) for
        i < j.  A value inside (i, j) names roots crossed before position j,
        so it reads the same on every gallery that starts with word[:j]: each
        column is computed on G by `_column` and cached under that prefix.
        None if a value raises or leaves (i, j).

        The screen in `_column` answers () for p == 0 or p >= 4 without
        `pair_value`, and that is its value: `pair_order` reads order 2 from
        p == 0 and order inf from p >= 4, and for both `pair_value` returns
        the empty set.  The roots of a gallery are positive and pairwise
        distinct, so alpha != +-beta and `pair_order`'s guard never fires on
        a gallery pair.  Every other p, an impossible negative one included,
        still goes through `pair_value`, which raises there as before, so
        the table falls back to `query` exactly as it did.  A screened pair
        never touches `_pair_cache`, which is only a memo."""
        word, columns = G.word, [()]
        for j in range(1, len(word) + 1):
            prefix = word[:j]
            col = self._columns.get(prefix)
            if col is None:
                try:
                    col = self._column(G, j)
                except RgdError:
                    return None
                if not all(_checked(i, j, value) for i, value in enumerate(col, 1)):
                    return None
                self._columns[prefix] = col
            columns.append(col)
        return tuple(columns[j][i - 1] for i, j in _pairs(len(word)))

    def _column(self, G: Gallery, j: int) -> tuple:
        """(M(1, j), ..., M(j - 1, j)) on G as gallery positions, not yet
        checked: p = x <beta, alpha^vee> with x = <alpha, beta^vee>, the
        second pairing taken only if x != 0, and `pair_value` only for
        0 < p < 4 (or an impossible p < 0); see `answers`."""
        cox, roots = self.cox, G.roots
        beta = roots[j - 1]
        b, b_row = beta.vec, coroot_row(cox, beta)
        col = []
        for alpha in roots[:j - 1]:
            x = sum(map(mul, alpha.vec, b_row))
            p = x and x * sum(map(mul, b, coroot_row(cox, alpha)))
            col.append(tuple(sorted(map(G.position, self.pair_value(alpha, beta))))
                       if p and p < 4 else ())
        return tuple(col)

    def pair_value(self, alpha: Root, beta: Root) -> frozenset:
        if alpha == beta:
            return frozenset()
        key = frozenset({alpha, beta})
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        order = pair_order(self.cox, alpha, beta)
        if order != inf and order != 2:
            self._fill(common_residue(self.cox, alpha, beta))
        return self._pair_cache.setdefault(key, frozenset())

    def _fill(self, R: Residue2) -> None:
        """Store every pair of walls of R with its value: the base table of
        R.J with each of its roots moved by the gate once; only vectors are
        read, as table keys and positions."""
        table = self._base_table(R.J)
        moved = {v: Root(self.cox.apply(R.base, v)) for v in frozenset().union(*table)}
        for pair, value in table.items():
            self._pair_cache[frozenset(map(moved.get, pair))] = frozenset(map(moved.get, value))


# ---------------------------------------------------------------------------
# file ingestion / serialization


def ingest(text: str, name: str = "file") -> Blueprint:
    """Parse a blueprint file; raises ParseError with the offending line."""
    rank = None
    labels: dict[tuple[int, int], float] = {}
    directed: set[tuple[int, int]] = set()
    # line of the last `rank`, `default`, each `m` edge and each `dir6` direction
    rank_line = default_line = 0
    label_lines: dict[tuple[int, int], int] = {}
    dir_lines: dict[tuple[int, int], int] = {}
    default = "empty"
    rels: list[tuple[int, Word, int, int, tuple[int, ...]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            # every directive but `rel` has exactly the fields FIELDS names
            arity = len(FIELDS[kind].split()) if kind in FIELDS and kind != "rel" else len(parts)
            if len(parts) > arity + 1:
                raise ValueError(f"{kind}: unexpected field {cut(parts[arity + 1])!r} "
                                 f"({kind} {FIELDS[kind]})")
            if kind == "rank":
                n = natural(kind, parts[1])
                if rank_line and n != rank:
                    raise ValueError(f"rank {n} contradicts line {rank_line}")
                rank, rank_line = n, ln
            elif kind == "m":
                i, j = sorted((natural(kind, parts[1]) - 1, natural(kind, parts[2]) - 1))
                v = inf if parts[3] == "inf" else natural(kind, parts[3])
                if v not in ALLOWED_LABELS:
                    raise ValueError(f"label {parts[3]} not in {{2,3,4,6,inf}}")
                if labels.get((i, j), v) != v:
                    raise ValueError(f"label {parts[3]} contradicts line {label_lines[(i, j)]}")
                labels[(i, j)], label_lines[(i, j)] = v, ln
            elif kind == "dir6":
                edge = (natural(kind, parts[1]) - 1, natural(kind, parts[2]) - 1)
                directed.add(edge)
                dir_lines[edge] = ln
            elif kind == "default":
                if parts[1] not in DEFAULT_MODES:
                    raise ValueError(f"unknown default mode {cut(parts[1])!r}")
                if default_line and parts[1] != default:
                    raise ValueError(f"default {parts[1]} contradicts line {default_line}")
                default, default_line = parts[1], ln
            elif kind == "rel":
                word = tuple(natural(kind, x) - 1 for x in parts[1].split("."))
                i, j = natural(kind, parts[2]), natural(kind, parts[3])
                if parts[4] != ":":
                    raise ValueError("expected ':' after positions")
                ks = tuple(natural(kind, x) for x in parts[5:])
                rels.append((ln, word, i, j, ks))
            else:
                raise ValueError(f"unknown directive {cut(kind)!r}")
        except IndexError as exc:  # every field a directive reads is indexed
            raise ParseError(ln, f"{kind}: missing fields ({kind} {FIELDS[kind]})") from exc
        except ValueError as exc:
            raise ParseError(ln, str(exc)) from exc
    if rank is None:
        raise ParseError(0, "missing 'rank' directive")
    for (i, j), ln in label_lines.items():
        if not 0 <= i < j < rank:
            raise ParseError(ln, f"m {i + 1} {j + 1}: not two distinct generators of 1..{rank}")
        if labels[(i, j)] == 6 and len(directed & {(i, j), (j, i)}) != 1:
            raise ParseError(ln, f"6-edge {i + 1} {j + 1} needs exactly one dir6 line")
    for (t, s), ln in dir_lines.items():
        if labels.get((min(t, s), max(t, s))) != 6:
            raise ParseError(ln, f"dir6 {t + 1} {s + 1} is on an edge not labelled 6")
    # the first missing pair in row order, found before the rank x rank matrix is built
    for i in range(rank):
        for j in range(i + 1, rank):
            if (i, j) not in labels:
                raise ParseError(rank_line, f"missing label for pair ({i + 1},{j + 1})")
    try:
        matrix = CoxeterMatrix.from_dict(rank, labels, frozenset(directed))
    except RgdError as exc:  # a bad rank
        raise ParseError(rank_line, str(exc)) from exc
    cox = CoxeterSystem(matrix)

    entries: dict[tuple[Word, int, int], tuple[int, ...]] = {}
    entry_lines: dict[tuple[Word, int, int], int] = {}
    for ln, word, i, j, ks in rels:
        if any(not 0 <= x < rank for x in word):
            raise ParseError(ln, f"generator out of range in gallery {cut(word_label(word))}")
        try:  # one reduction check, by the constructor
            G = get_gallery(cox, word)
        except RgdError as exc:
            raise ParseError(ln, f"gallery word {cut(word_label(word))} is not reduced") from exc
        if not (1 <= i < j <= len(word)):
            raise ParseError(ln, f"positions ({i},{j}) out of range")
        if any(not i < k < j for k in ks):
            raise ParseError(ln, f"relation value {cut(str(ks))} not strictly between {i} and {j}")
        if tuple(sorted(ks)) != ks or len(set(ks)) != len(ks):
            raise ParseError(ln, f"relation value {cut(str(ks))} not strictly increasing")
        allowed = {G.position(r) for r in open_interval(cox, G.root(i), G.root(j), G)}
        if not set(ks) <= allowed:
            raise ParseError(ln, f"relation value {cut(str(ks))} leaves the open interval "
                                 f"({i},{j}) = {cut(str(sorted(allowed)))}")
        key = (word, i, j)
        if entries.get(key, ks) != ks:
            raise ParseError(ln, f"relation value {cut(str(ks))} contradicts line "
                                 f"{entry_lines[key]}")
        entries[key] = ks
        entry_lines.setdefault(key, ln)
    return Blueprint(cox, entries, default=default, name=name)


def ingest_path(path: str) -> Blueprint:
    """Read and parse a blueprint file; bytes that are not UTF-8 are a
    ParseError on the line, numbered as `ingest` numbers it, of the first."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the decoded text before the bad byte, plus one character of its line
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(line, f"byte {data[exc.start]:#04x} is not UTF-8") from exc
    return ingest(text, name=path)


def serialize(bp: Blueprint, r: int, gallery_cap: int = 10_000) -> str:
    """Render a blueprint as a file describing every triple up to radius r."""
    cox = bp.cox
    out = io.StringIO()
    out.write(f"# blueprint {bp.name} serialized to radius {r}\n")
    out.write(f"rank {cox.rank}\n")
    for i in range(cox.rank):
        for j in range(i + 1, cox.rank):
            m = cox.matrix.m(i, j)
            out.write(f"m {i + 1} {j + 1} {'inf' if m == inf else int(m)}\n")
    for (t, s) in sorted(cox.matrix.directed6):
        out.write(f"dir6 {t + 1} {s + 1}\n")
    out.write("default empty\n")
    for w in cox.ball(r):
        for G in min_gal(cox, w, gallery_cap):
            for (i, j), ks in bp.relations(G).items():
                if ks:
                    out.write(f"rel {G.label()} {i} {j} : {' '.join(map(str, ks))}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# validators


def validate_cb1(bp: Blueprint, r: int, gallery_cap: int = 10_000) -> Report:
    """Prefix coherence: each prefix gallery's table is the restriction of
    its extension's, `bp.mismatches(G, prefix, 0)`; a prefix of length m
    counts its m(m+1)/2 pairs i <= j.  An element with more than
    `gallery_cap` galleries is skipped.

    A first pass compares each gallery with its immediate prefix only, which
    decides the axiom: restriction is transitive, and |Red(v)| <= |Red(vt)|
    when l(vt) = l(v) + 1, so the cap skips no prefix element of a checked
    gallery.  On a disagreement every prefix is compared from the start."""
    cox = bp.cox
    for immediate in (True, False):
        report = Report(f"CB1({bp.name}, r={r})")
        for w in cox.ball(r):
            if immediate and not report.ok:
                break
            try:
                gals = min_gal(cox, w, gallery_cap)
            except CapExceeded:
                report.skip(f"skipped w={word_label(w)}: more than {gallery_cap} galleries")
                continue
            for G in gals:
                for m in range(max(len(G) - 1, 1) if immediate else 1, len(G)):
                    H = G.prefix(m)
                    report.checks += m * (m + 1) * (m + 2) // 6 if immediate else m * (m + 1) // 2
                    for i, j, expected, found in bp.mismatches(G, H, 0):
                        report.add(Violation(axiom="CB1", w=word_label(w), gallery=H.label(),
                                             i=i, j=j, expected=expected, found=found))
        if report.ok:
            break
    return report


def validate_cb2(bp: Blueprint) -> Report:
    """Rank-2 Moufang values on the two galleries of r_J for each spherical
    pair J = {s, t}, s < t, in that order: `rj_gallery` from s, then from t.

    The expected values are `RANK2_M_SETS[m]`: labels 2, 3, 4 force the full
    open interval on the simple pair and the empty set elsewhere, on both
    galleries.  Label 6 constrains only `oriented_gallery`, the gallery
    starting at the directed edge's target; the mirror gallery is covered by
    CB1 and Weyl-invariance instead.  Violations name r_J by its normal
    form, the gallery from s.
    """
    report = Report(f"CB2({bp.name})")
    cox = bp.cox
    for s in range(cox.rank):
        for t in range(s + 1, cox.rank):
            m = cox.matrix.m(s, t)
            if m == inf:
                continue
            m = int(m)
            w0 = rj_gallery(cox, s, t)
            gals = [oriented_gallery(cox, s, t)] if m == 6 else [w0, rj_gallery(cox, t, s)]
            for G in gals:
                for (i, j), got in bp.relations(G).items():
                    report.checks += 1
                    # both tuples are in gallery order, so equality is exact
                    want = RANK2_M_SETS[m].get((i, j), ())
                    if got != want:
                        report.add(Violation(
                            axiom="CB2", w=w0.label(), s=str(s + 1),
                            gallery=G.label(), i=i, j=j,
                            expected=",".join(map(str, want)) or "-",
                            found=",".join(map(str, got)) or "-"))
    return report


def validate_weyl(bp: Blueprint, r: int, gallery_cap: int = 10_000) -> Report:
    """Weyl-invariance: M^{sG}_{s.alpha, s.beta} = s . M^G_{alpha, beta}
    for every gallery G in Min_s(w) and alpha <=_G beta away from alpha_s.

    s maps the root at position p of G to the root at position p + d of sG,
    d = len(sG) - len(G): on a descent (d = -1) G starts at alpha_s, which
    sG lacks; on an ascent (d = +1) G does not cross alpha_s.  So the check
    at the site (w, s) is `bp.mismatches(G, sG, d)`, counting the n(n+1)/2
    pairs i <= j of the n roots kept.  An element with more than
    `gallery_cap` galleries is skipped.

    Inside the ball each edge {G, sG} is met at two sites.  s is a left
    descent of w iff some reduced word of w starts with s, and then the
    galleries of w starting with s are the s.H for the galleries H of v =
    sw: dropping the s of a reduced word of w leaves a reduced word of v, and
    s.H is a reduced word of w since l(sv) = l(v) + 1.  So the descent site
    (w, s) and the ascent site (v, s) have the same galleries, paired G =
    s.H, and every ascent site (v, s) with l(v) < r arises so, from w = sv in
    the ball.  The two checks agree: `mismatches(G, H, -1)` reads the pairs
    (i, j), i >= 2, of G against H's (i - 1, j - 1), `mismatches(H, G, +1)`
    every pair of H against G's (i + 1, j + 1), and a value shifted down
    equals the other iff the other shifted up equals it.  Both keep the n =
    len(G) - 1 = len(H) roots of H, so both count n(n+1)/2.

    A first pass, `_weyl_by_descents`, therefore walks the ball once, reads
    the descents of w off the first letters of its galleries, compares each
    gallery G of w with the gallery of G.word[1:] and counts n(n+1) for the
    two sites; only on the last layer, l(w) = r, does it check the ascents,
    whose partner lies past the ball.  A clean pass is this report.  On a
    mismatch, a cap or a table that fails to build, the loop over every
    site runs from the start instead, so violations, their sites, skip
    notes and errors come out in its order.
    """
    report = _weyl_by_descents(bp, r, gallery_cap)
    if report is not None:
        return report
    report = Report(f"Weyl({bp.name}, r={r})")
    cox = bp.cox
    for w in cox.ball(r):
        for s in range(cox.rank):
            try:  # the cap depends on w alone: it fires at s = 0 or never
                gals = min_gal_s(cox, w, s, gallery_cap)
            except CapExceeded:
                report.skip(f"skipped w={word_label(w)}: more than {gallery_cap} galleries")
                break
            for G in gals:
                sG = shift(G, s)
                d = len(sG) - len(G)
                n = len(G) - (d < 0)
                report.checks += n * (n + 1) // 2
                for i, j, expected, found in bp.mismatches(G, sG, d):
                    report.add(Violation(axiom="Weyl", w=word_label(w), s=str(s + 1),
                                         gallery=G.label(), i=i, j=j,
                                         expected=expected, found=found))
    return report


def _weyl_by_descents(bp: Blueprint, r: int, gallery_cap: int) -> Report | None:
    """`validate_weyl`'s report from one `min_gal` per element, if every
    site agrees and no element passes the cap; None otherwise."""
    report = Report(f"Weyl({bp.name}, r={r})")
    cox = bp.cox
    try:
        for w in cox.ball(r):
            gals = min_gal(cox, w, gallery_cap)
            if w:  # the identity has no descent
                n = len(w) - 1
                for G in gals:
                    report.checks += n * (n + 1)
                    if bp.mismatches(G, get_gallery(cox, G.word[1:]), -1):
                        return None
            if len(w) == r:
                descents = {G.word[0] for G in gals if G.word}
                n = len(w)
                for s in range(cox.rank):
                    if s in descents:
                        continue
                    for G in gals:
                        report.checks += n * (n + 1) // 2
                        if bp.mismatches(G, get_gallery(cox, (s,) + G.word), 1):
                            return None
    except RgdError:  # a cap, or a table that fails to build
        return None
    return report


# ---------------------------------------------------------------------------
# built-in registry


def builtin(name: str) -> Blueprint:
    """Built-in blueprints, each without entries: `rank2:<variant>` for the
    variants of RANK2_BUILTINS and allempty:universalN, 1 <= N <=
    MAX_UNIVERSAL_RANK."""
    try:
        family, variant = name.split(":", 1)
    except ValueError as exc:
        raise BlueprintError(f"bad builtin name {cut(name)!r}") from exc
    if family == "rank2":
        if variant not in RANK2_BUILTINS:
            raise BlueprintError(f"unknown rank2 variant {cut(variant)!r}")
        matrix = CoxeterMatrix.dihedral(*RANK2_BUILTINS[variant])
        return Blueprint(CoxeterSystem(matrix), {}, default="rank2", name=name)
    if family == "allempty":
        n = variant[len("universal"):]
        if not (variant.startswith("universal") and is_digits(n)):
            raise BlueprintError(f"unknown allempty variant {cut(variant)!r}")
        n = int(n)
        if n > MAX_UNIVERSAL_RANK:
            raise BlueprintError(f"allempty:universal{n}: rank above {MAX_UNIVERSAL_RANK}")
        return Blueprint(CoxeterSystem(CoxeterMatrix.universal(n)), {}, name=name)
    raise BlueprintError(f"unknown builtin family {cut(family)!r}")
