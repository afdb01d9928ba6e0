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
default answers are built one column j at a time and each column is cached
under its prefix word[:j] (`LocalRank2`); the all-empty default needs no
column.  A file's explicit entries for the exact word are laid over the
default answers, each read through `query`.  Strict mode, and a table with
a default value that fails the bounds check, are built from `query` in row
order, so the error raised names the first bad pair in that order.

Every check reads the tables: a prefix gallery's table is a restriction of its
extension's, and Weyl-invariance compares tables shifted by one place: s
maps the root at position p of G to the root at position p + len(sG) -
len(G) of sG.  Each comparison depends on the tables alone, so
`validate_cb1` and `validate_weyl` keep, for one call, the numbers of the
tables that agreed and compare them once; a comparison that fails is made
again at every site, so each violation is still reported.

Backends: built-in rank-2 Moufang tables propagated to every spherical
residue (`LocalRank2`), and line-oriented files (`FileTable`); the
`allempty` builtin is a file table without entries.  Validators check the
three blueprint axioms (CB1 prefix coherence, CB2 rank-2 Moufang values,
CB3 via group construction elsewhere) and Weyl-invariance.
"""

from __future__ import annotations

import io
from functools import cache
from math import inf

from .coxeter import ALLOWED_LABELS, CoxeterMatrix, CoxeterSystem, Word, word_label
from .errors import BlueprintError, CapExceeded, ParseError, RgdError
from .galleries import (Gallery, get_gallery, min_gal, min_gal_s, oriented_gallery,
                        rj_gallery, shift)
from .reports import Report, Violation
from .roots import Root, act, common_residue, open_interval, pair_order

# Non-trivial commutation sets of the rank-2 Moufang tables over GF(2),
# keyed by crossing positions (i, j) on the distinguished length-m gallery.
RANK2_M_SETS: dict[int, dict[tuple[int, int], tuple[int, ...]]] = {
    2: {},
    3: {(1, 3): (2,)},
    4: {(1, 4): (2, 3)},
    6: {(1, 3): (2,), (3, 5): (4,), (1, 5): (2, 4), (2, 6): (4,), (1, 6): (2, 3, 4, 5)},
}

# what a file's `default` line may say: how triples without a `rel` line read
DEFAULT_MODES = ("empty", "strict", "rank2")

# the largest N of `allempty:universalN`, refused before its N x N matrix is built
MAX_UNIVERSAL_RANK = 64


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
    """Base class; subclasses provide `_value` for gallery triples."""

    def __init__(self, cox: CoxeterSystem, name: str):
        self.cox = cox
        self.name = name
        # gallery word -> (table number, table), one entry per distinct answer
        self._relations: dict[Word, tuple[int, dict]] = {}
        self._tables: dict[tuple, tuple[int, dict]] = {}

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
        raise NotImplementedError

    def _answers(self, G: Gallery) -> tuple | None:
        """G's answers in the order of `_pairs`, all of them `_checked`, or
        None to have `_table` query them one by one."""
        return None


class LocalRank2(Blueprint):
    """Moufang rank-2 values propagated to every spherical residue.

    For a pair of roots whose reflections have finite product order, the
    value is the Moufang table entry of the base residue of that type,
    translated by the gate of their common residue; infinite pairs get the
    empty set.  On a rank-2 system this is exactly the built-in table.
    """

    def __init__(self, cox: CoxeterSystem, name: str = "rank2"):
        super().__init__(cox, name)
        self._base_tables: dict[tuple[int, int], dict[frozenset, frozenset]] = {}
        self._pair_cache: dict[frozenset, frozenset] = {}
        # word[:j] -> (M(1, j), ..., M(j - 1, j)), each value `_checked`
        self._columns: dict[Word, tuple] = {}

    def _base_table(self, J: tuple[int, int]) -> dict[frozenset, frozenset]:
        cached = self._base_tables.get(J)
        if cached is not None:
            return cached
        G = oriented_gallery(self.cox, *J)
        table: dict[frozenset, frozenset] = {}
        for (i, j), ks in RANK2_M_SETS[len(G)].items():
            key = frozenset({G.root(i), G.root(j)})
            table[key] = frozenset(G.root(k) for k in ks)
        self._base_tables[J] = table
        return table

    def _value(self, G: Gallery, i: int, j: int) -> tuple[int, ...]:
        return tuple(sorted(map(G.position, self.pair_value(G.root(i), G.root(j)))))

    def _answers(self, G: Gallery) -> tuple | None:
        """Column j holds M(i, j) for i < j.  A value inside (i, j) names
        roots crossed before position j, so it reads the same on every
        gallery that starts with word[:j]: each column is computed on G and
        cached under that prefix.  None if a value raises or leaves (i, j)."""
        word, columns = G.word, [()]
        for j in range(1, len(word) + 1):
            prefix = word[:j]
            col = self._columns.get(prefix)
            if col is None:
                try:
                    col = tuple(self._value(G, i, j) for i in range(1, j))
                except RgdError:
                    return None
                if not all(_checked(i, j, value) for i, value in enumerate(col, 1)):
                    return None
                self._columns[prefix] = col
            columns.append(col)
        return tuple(columns[j][i - 1] for i, j in _pairs(len(word)))

    def pair_value(self, alpha: Root, beta: Root) -> frozenset:
        if alpha == beta:
            return frozenset()
        key = frozenset({alpha, beta})
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        order = pair_order(self.cox, alpha, beta)
        if order == inf or order == 2:
            value = frozenset()
        else:
            value = self._residue_value(alpha, beta)
        self._pair_cache[key] = value
        return value

    def _residue_value(self, alpha: Root, beta: Root) -> frozenset:
        cox = self.cox
        R = common_residue(cox, alpha, beta)
        g = R.base
        g_inv = tuple(reversed(g))
        a0 = act(cox, g_inv, alpha)
        b0 = act(cox, g_inv, beta)
        table = self._base_table(R.J)
        value = table.get(frozenset({a0, b0}), frozenset())
        return frozenset(act(cox, g, gamma) for gamma in value)


class FileTable(Blueprint):
    """Blueprint read from a line-oriented file.

    Explicit entries are keyed by (gallery type word, i, j); unspecified
    triples follow the default mode: `empty` (trivial), `strict` (error) or
    `rank2` (Moufang residue values, empty outside spherical pairs).  With
    no entries and `empty`, every commutator is trivial, which is valid for
    right-angled and universal types (the `allempty` builtin).
    """

    def __init__(self, cox: CoxeterSystem, entries: dict[tuple[Word, int, int], tuple[int, ...]],
                 default: str = "empty", name: str = "file"):
        super().__init__(cox, name)
        if default not in DEFAULT_MODES:
            raise BlueprintError(f"unknown default mode {default!r}")
        self.entries = dict(entries)
        self.default = default
        self._local = LocalRank2(cox, name=name + ":rank2") if default == "rank2" else None
        # gallery word -> the (i, j) of its explicit entries
        self._rows: dict[Word, list[tuple[int, int]]] = {}
        for (word, i, j) in self.entries:
            self._rows.setdefault(word, []).append((i, j))

    def _value(self, G: Gallery, i: int, j: int) -> tuple[int, ...]:
        ks = self.entries.get((G.word, i, j))
        if ks is not None:
            return ks
        if self.default == "strict":
            raise BlueprintError(
                f"{self.name}: no entry for gallery {G.label()} pair ({i},{j}) (strict mode)")
        if self._local is not None:
            return self._local._value(G, i, j)
        return ()

    def _answers(self, G: Gallery) -> tuple | None:
        """The default answers, all empty or the rank-2 columns, with the
        explicit entries for G's word laid over them through `query`, in
        row order; None in strict mode or if a default value fails."""
        if self.default == "strict":
            return None
        pairs = _pairs(len(G))
        values = ((),) * len(pairs) if self._local is None else self._local._answers(G)
        rows = self._rows.get(G.word)
        if not rows or values is None:
            return values
        table = dict(zip(pairs, values))
        for ij in sorted(rows):
            if ij in table:
                table[ij] = self.query(G, *ij)
        return tuple(table.values())


# ---------------------------------------------------------------------------
# file ingestion / serialization


def ingest(text: str, name: str = "file") -> FileTable:
    """Parse a blueprint file; raises ParseError with the offending line."""
    rank = None
    labels: dict[tuple[int, int], float] = {}
    directed: set[tuple[int, int]] = set()
    # line of the last `rank`, of each `m` edge and of each `dir6` direction
    rank_line = 0
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
            if kind == "rank":
                rank, rank_line = int(parts[1]), ln
            elif kind == "m":
                i, j = sorted((int(parts[1]) - 1, int(parts[2]) - 1))
                v = inf if parts[3] == "inf" else int(parts[3])
                if v not in ALLOWED_LABELS:
                    raise ValueError(f"label {parts[3]} not in {{2,3,4,6,inf}}")
                if labels.get((i, j), v) != v:
                    raise ValueError(f"label {parts[3]} contradicts line {label_lines[(i, j)]}")
                labels[(i, j)], label_lines[(i, j)] = v, ln
            elif kind == "dir6":
                edge = (int(parts[1]) - 1, int(parts[2]) - 1)
                directed.add(edge)
                dir_lines[edge] = ln
            elif kind == "default":
                default = parts[1]
                if default not in DEFAULT_MODES:
                    raise ValueError(f"unknown default mode {default!r}")
            elif kind == "rel":
                word = tuple(int(x) - 1 for x in parts[1].split("."))
                i, j = int(parts[2]), int(parts[3])
                if parts[4] != ":":
                    raise ValueError("expected ':' after positions")
                ks = tuple(int(x) for x in parts[5:])
                rels.append((ln, word, i, j, ks))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
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
                raise ParseError(rank_line, f"missing label for pair ({i},{j})")
    try:
        matrix = CoxeterMatrix.from_dict(rank, labels, frozenset(directed))
    except RgdError as exc:  # a bad rank
        raise ParseError(rank_line, str(exc)) from exc
    cox = CoxeterSystem(matrix)

    entries: dict[tuple[Word, int, int], tuple[int, ...]] = {}
    entry_lines: dict[tuple[Word, int, int], int] = {}
    for ln, word, i, j, ks in rels:
        if any(not 0 <= x < rank for x in word):
            raise ParseError(ln, f"generator out of range in gallery {word_label(word)}")
        if not cox.is_reduced(word):
            raise ParseError(ln, f"gallery word {word_label(word)} is not reduced")
        G = get_gallery(cox, word)
        if not (1 <= i < j <= len(word)):
            raise ParseError(ln, f"positions ({i},{j}) out of range")
        if any(not i < k < j for k in ks):
            raise ParseError(ln, f"relation value {ks} not strictly between {i} and {j}")
        if tuple(sorted(ks)) != ks or len(set(ks)) != len(ks):
            raise ParseError(ln, f"relation value {ks} not strictly increasing")
        allowed = {G.position(r) for r in open_interval(cox, G.root(i), G.root(j), G)}
        if not set(ks) <= allowed:
            raise ParseError(ln, f"relation value {ks} leaves the open interval "
                                 f"({i},{j}) = {sorted(allowed)}")
        key = (word, i, j)
        if entries.get(key, ks) != ks:
            raise ParseError(ln, f"relation value {ks} contradicts line {entry_lines[key]}")
        entries[key] = ks
        entry_lines.setdefault(key, ln)
    return FileTable(cox, entries, default=default, name=name)


def ingest_path(path: str) -> FileTable:
    with open(path, "r", encoding="utf-8") as fh:
        return ingest(fh.read(), name=path)


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
    its extension's; a prefix of length m counts its m(m+1)/2 pairs i <= j.
    A (prefix table, full table) pair that agreed once is not compared
    again.  An element with more than `gallery_cap` galleries is skipped."""
    report = Report(f"CB1({bp.name}, r={r})")
    cox = bp.cox
    agreed: set[tuple[int, int]] = set()  # (prefix table, full table) numbers
    for w in cox.ball(r):
        try:
            gals = min_gal(cox, w, gallery_cap)
        except CapExceeded:
            report.skip(f"skipped w={word_label(w)}: more than {gallery_cap} galleries")
            continue
        for G in gals:
            full, full_no = bp.relations(G), bp.table_no(G)
            for m in range(1, len(G)):
                H = G.prefix(m)
                report.checks += m * (m + 1) // 2
                key = (bp.table_no(H), full_no)
                if key in agreed:
                    continue
                ok = True
                for (i, j), got_h in bp.relations(H).items():
                    got_g = full[(i, j)]
                    if got_h != got_g:
                        ok = False
                        report.add(Violation(
                            axiom="CB1", w=word_label(w), gallery=H.label(),
                            i=i, j=j,
                            expected=",".join(map(str, got_g)) or "-",
                            found=",".join(map(str, got_h)) or "-"))
                if ok:
                    agreed.add(key)
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
    d = len(sG) - len(G): on a descent (d = -1) G starts at alpha_s, which is
    skipped; on an ascent (d = +1) G does not cross alpha_s.  So G's table, shifted
    by d, is compared with sG's, counting the n(n+1)/2 pairs i <= j of the n roots kept.
    A (table, shifted table, d) triple that agreed once is not compared
    again.  An element with more than `gallery_cap` galleries is skipped."""
    report = Report(f"Weyl({bp.name}, r={r})")
    cox = bp.cox
    agreed: set[tuple[int, int, int]] = set()  # (table, shifted table) numbers and d
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
                key = (bp.table_no(G), bp.table_no(sG), d)
                if key in agreed:
                    continue
                ok = True
                table, table_s = bp.relations(G), bp.relations(sG)
                for (i, j), value in table.items():
                    if i + d < 1:  # alpha_s itself
                        continue
                    image = tuple(p + d for p in value)
                    shifted = table_s[(i + d, j + d)]
                    if image != shifted:
                        ok = False
                        report.add(Violation(
                            axiom="Weyl", w=word_label(w), s=str(s + 1),
                            gallery=G.label(), i=i, j=j,
                            expected=",".join(map(str, image)) or "-",
                            found=",".join(map(str, shifted)) or "-"))
                if ok:
                    agreed.add(key)
    return report


# ---------------------------------------------------------------------------
# built-in registry


def builtin(name: str) -> Blueprint:
    """Built-in blueprints: rank2:m2|m3|m4|m6lr|m6rl and allempty:universalN,
    1 <= N <= MAX_UNIVERSAL_RANK."""
    try:
        family, variant = name.split(":", 1)
    except ValueError as exc:
        raise BlueprintError(f"bad builtin name {name!r}") from exc
    if family == "rank2":
        if variant == "m2":
            matrix = CoxeterMatrix.dihedral(2)
        elif variant == "m3":
            matrix = CoxeterMatrix.dihedral(3)
        elif variant == "m4":
            matrix = CoxeterMatrix.dihedral(4)
        elif variant == "m6lr":
            matrix = CoxeterMatrix.dihedral(6, direction=(1, 0))
        elif variant == "m6rl":
            matrix = CoxeterMatrix.dihedral(6, direction=(0, 1))
        else:
            raise BlueprintError(f"unknown rank2 variant {variant!r}")
        return LocalRank2(CoxeterSystem(matrix), name=name)
    if family == "allempty":
        n = variant[len("universal"):]
        if not variant.startswith("universal") or not n.isdecimal():
            raise BlueprintError(f"unknown allempty variant {variant!r}")
        n = int(n)
        if n > MAX_UNIVERSAL_RANK:
            raise BlueprintError(f"allempty:universal{n}: rank above {MAX_UNIVERSAL_RANK}")
        return FileTable(CoxeterSystem(CoxeterMatrix.universal(n)), {}, name=name)
    raise BlueprintError(f"unknown builtin family {family!r}")
