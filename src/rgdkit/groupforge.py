"""Finite 2-groups from blueprint relations, via power-commutator collection.

A presentation has involutive generators u_1 < ... < u_k and relations
[u_i, u_j] = prod of generators strictly between i and j.  It knows its
generators by index only: for U_w, the gallery the table came from names
the root of u_i, its i-th crossed root.  An element is a plain `int` bit
mask: bit i-1 is the exponent of u_i in the normal form u_1^e1 ... u_k^ek,
and 0 is the identity, so `range(pres.order)` lists the group.  Collection from the left
folds the letters of a word into such a mask one at a time, with an explicit
stack for the letters a reordering leaves behind; `mul`, `inv`, `comm`,
`conj` and `map_elem` feed it the letters of their masks directly.  The
consistency (overlap) test certifies that normal forms are unique,
equivalently that the group has order exactly 2^k.  Its verdict depends on
k and the table alone, so `validate_cb3` keeps one memo of the certified
(k, table number) keys per call, checks each key once, and builds no
presentation for an element with one gallery whose key is certified.  The
memo is also the prefix certificate: when it holds the key of w[:-1] and
that table is the restriction of w's, only the tests involving u_k remain.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .blueprints import Blueprint
from .coxeter import Word, word_label
from .errors import CapExceeded, CollectionOverflow, RgdError
from .galleries import Gallery, get_gallery, min_gal
from .reports import Report, Violation
from .roots import Root, simple_root


def _ascending(x: int) -> Iterator[int]:
    """The letters of the normal form x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length()
        x ^= low


def _descending(x: int) -> Iterator[int]:
    """The letters of the normal form x, descending: x^-1 as a word."""
    while x:
        top = x.bit_length()
        yield top
        x ^= 1 << (top - 1)


class PCPres:
    """Power-commutator presentation on k generators; the gallery, when
    there is one, names their roots."""

    def __init__(self, k: int, rel: dict[tuple[int, int], tuple[int, ...]],
                 gallery: Gallery | None = None, step_cap: int = 1_000_000):
        self.k = k
        self.gallery = gallery
        self.step_cap = step_cap
        self.consistent: bool | None = None  # set by consistency_check
        self.inconsistency_witness: str | None = None
        self.rel: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), word in rel.items():
            if not (1 <= i < j <= self.k):
                raise RgdError(f"relation key ({i},{j}) out of range")
            if any(not i < x < j for x in word):
                raise RgdError(f"relation word {word} leaves the open range ({i},{j})")
            if tuple(sorted(word)) != tuple(word) or len(set(word)) != len(word):
                raise RgdError(f"relation word {word} not strictly increasing")
            self.rel[(i, j)] = tuple(word)
        # _moves[j][a] for a > j: what u_a pushes onto the collection stack
        # when it moves past u_j, its relation value then a, top last
        k, get = self.k, self.rel.get
        self._moves = [[()] * (j + 1) + [(*get((j, a), ()), a) for a in range(j + 1, k + 1)]
                       for j in range(k + 1)]

    @property
    def order(self) -> int:
        return 1 << self.k

    def position(self, root: Root) -> int:
        return self.gallery.position(root)

    # -- collection -------------------------------------------------------

    def collect(self, word: Iterable[int]) -> int:
        """Leftmost collection of a word in the generators to its normal form."""
        return self._fold(0, word)

    def _fold(self, x: int, letters: Iterable[int]) -> int:
        """Normal form of x * letters, collected one letter at a time into
        the mask x.  When u_j meets x, each u_a of x with a > j moves right
        past it, by u_a u_j = u_j u_a m^-1 with m the relation value of
        (j, a).  So u_j toggles its bit, the bits above it leave x, and each
        such a, ascending and followed by m^-1, goes in front of the rest of
        the input: onto the `todo` stack, top last.  This is leftmost
        collection of a word buffer whose ascending prefix is kept as a
        mask.  One step is one letter taken from the input or the stack."""
        k, moves, cap = self.k, self._moves, self.step_cap
        steps = 0
        todo: list[int] = []
        for j in letters:
            if not 0 < j <= k:
                raise RgdError(f"generator index {j} out of range")
            while True:
                steps += 1
                if steps > cap:
                    raise CollectionOverflow(
                        f"collection exceeded {cap} steps; malformed table?")
                hi = x >> j << j
                x ^= hi ^ (1 << (j - 1))
                if hi:
                    row = moves[j]
                    while hi:
                        a = hi.bit_length()
                        hi ^= 1 << (a - 1)
                        todo += row[a]
                if not todo:
                    break
                j = todo.pop()
        return x

    def word_of(self, x: int) -> tuple[int, ...]:
        return tuple(_ascending(x))

    def generator(self, i: int) -> int:
        if not 1 <= i <= self.k:
            raise RgdError(f"generator index {i} out of range")
        return 1 << (i - 1)

    def mul(self, x: int, y: int) -> int:
        return self._fold(x, _ascending(y))

    def inv(self, x: int) -> int:
        return self._fold(0, _descending(x))

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x y x^-1 y^-1."""
        return self._fold(x, chain(_ascending(y), _descending(x), _descending(y)))

    def conj(self, x: int, y: int) -> int:
        """x y x^-1."""
        return self._fold(x, chain(_ascending(y), _descending(x)))

    def map_elem(self, mp: Mapping[int, int], x: int) -> int:
        """Send each normal-form letter i of x to the generator mp[i], then collect."""
        return self._fold(0, map(mp.__getitem__, _ascending(x)))

    # -- consistency ------------------------------------------------------

    def consistency_check(self, top: int = 1) -> bool:
        """Overlap test: all parenthesizations of u_k u_j u_i agree, and the
        square relations interact correctly with every exchange.

        Only the tests whose largest generator is at least `top` run.  A
        relation value lies strictly between its indices, so the tests below
        `top` are those of the presentation on u_1 ... u_{top-1} with the
        restricted table: `build_Uw` passes top = k when its memo certifies
        that presentation, and gets the same outcome and witness as a full
        check."""
        try:
            for j in range(top, self.k + 1):
                uj = self.generator(j)
                for i in range(1, j):
                    ui = self.generator(i)
                    ji = self.mul(uj, ui)
                    if self.mul(ji, ui) != uj:
                        self._set_witness(f"(u{j} u{i}) u{i} != u{j}")
                        return False
                    if self.mul(uj, self.mul(ui, ui)) != uj:
                        self._set_witness(f"u{j} (u{i} u{i}) != u{j}")
                        return False
                    if self.mul(self.mul(uj, uj), ui) != self.mul(uj, ji):
                        self._set_witness(f"(u{j} u{j}) u{i} != u{j} (u{j} u{i})")
                        return False
            for kk in range(top, self.k + 1):
                uk = self.generator(kk)
                for j in range(1, kk):
                    uj = self.generator(j)
                    kj = self.mul(uk, uj)
                    for i in range(1, j):
                        ui = self.generator(i)
                        left = self.mul(kj, ui)
                        right = self.mul(uk, self.mul(uj, ui))
                        if left != right:
                            self._set_witness(
                                f"(u{kk} u{j}) u{i} = {self.word_of(left)} but "
                                f"u{kk} (u{j} u{i}) = {self.word_of(right)}")
                            return False
        except CollectionOverflow as exc:
            self._set_witness(str(exc))
            return False
        self.consistent = True
        return True

    def _set_witness(self, text: str) -> None:
        self.consistent = False
        self.inconsistency_witness = text


# ---------------------------------------------------------------------------
# generator maps


def reflected_positions(G: Gallery, s: int) -> dict[int, int]:
    """{i: position in G of s.G.root(i)} for every crossed root but alpha_s:
    the generator map of tau_s on a gallery of r_J, whose other roots s permutes."""
    alpha_s = simple_root(G.cox, s)
    return {i: G.position(Root(G.cox.reflect(s, root.vec)))
            for i, root in enumerate(G.roots, start=1) if root != alpha_s}


def relation_checks(rel: Mapping[tuple[int, int], Sequence[int]], image: Mapping[int, int],
                    target: PCPres, report: Report, **fields: str) -> None:
    """Check the generator map u_i -> u_image(i) into `target` on every
    relation (i, j) with both ends in `image`, in key order: one check each,
    and a violation carrying `fields` where [u_image(i), u_image(j)] differs
    from the image of the relation value."""
    for (i, j), word in sorted(rel.items()):
        if i in image and j in image:
            report.checks += 1
            lhs = target.comm(target.generator(image[i]), target.generator(image[j]))
            rhs = target.collect([image[x] for x in word])
            if lhs != rhs:
                report.add(Violation(i=i, j=j, expected=str(target.word_of(rhs)),
                                     found=str(target.word_of(lhs)), **fields))


# ---------------------------------------------------------------------------
# construction from a blueprint


def presentation_for_gallery(bp: Blueprint, G: Gallery) -> PCPres:
    return PCPres(len(G), bp.relations(G), gallery=G)


def build_Uw(bp: Blueprint, w: Word, gallery_cap: int = 10_000, *,
             consistent: set[tuple[int, int]] | None = None
             ) -> tuple[PCPres | None, Report]:
    """Group on Phi(w) from the lex-least gallery, cross-checked against the
    relations of every other gallery of w (the executable content of the
    order-2^l axiom).  w must be a normal form (`cox.normal_form`); ball
    words are.  If the gallery count exceeds the cap, only the base gallery
    is certified and the report says so explicitly.

    `consistent` is the memo of the keys (k, table number) of presentations
    found consistent (a fresh one if not given), and gains the base table's
    key when its check passes.  On a key it holds, the overlap test is not
    run again; if w has one gallery, no presentation is built either, and
    None is returned in its place.  On a new key, when the memo holds the
    key of the base gallery's prefix and that prefix table is the
    restriction of the base table, the presentation on u_1 ... u_{k-1} is
    a certified one, and only the overlap tests involving u_k run."""
    consistent = set() if consistent is None else consistent
    cox = bp.cox
    report = Report(f"U_w({bp.name}, w={word_label(w)})")
    try:
        galleries = min_gal(cox, w, gallery_cap)
    except CapExceeded:
        galleries = [get_gallery(cox, w)]  # the normal form is the lex-least word
        report.skip(f"partial: more than {gallery_cap} galleries; "
                    f"cross-checked the base gallery only")
    base = galleries[0]
    report.checks += 1
    k = len(base)
    key = (k, bp.table_no(base))
    hit = key in consistent
    if hit and len(galleries) == 1:
        return None, report
    pres = presentation_for_gallery(bp, base)
    if hit:
        pres.consistent = True
    else:
        top = 1
        if k > 1 and consistent:  # an empty memo certifies no prefix: build no table for it
            prefix = base.prefix(k - 1)
            if ((k - 1, bp.table_no(prefix)) in consistent and bp.relations(prefix)
                    == {(i, j): v for (i, j), v in pres.rel.items() if j < k}):
                top = k
        if not pres.consistency_check(top):
            report.add(Violation(axiom="CB3", w=word_label(w), gallery=base.label(),
                                 expected="consistent collection",
                                 found=pres.inconsistency_witness))
            return pres, report
        consistent.add(key)
    for H in galleries[1:]:
        image = {i: pres.position(root) for i, root in enumerate(H.roots, start=1)}
        relation_checks(bp.relations(H), image, pres, report,
                        axiom="CB3", w=word_label(w), gallery=H.label())
    return pres, report


def validate_cb3(bp: Blueprint, radius: int, cap_galleries: int = 10_000,
                 cap_group_bits: int = 24) -> Report:
    """CB3 on the ball of the given radius: `build_Uw` for every element,
    except those longer than `cap_group_bits`, which are skipped.

    The consistency verdict of U_w is a function of (l(w), base table), so
    one memo of the keys certified so far is kept for the call, and each
    key is checked once; an inconsistent key is checked again at every
    element, so each violation is still reported.  The ball lists normal
    forms by length, and the base gallery of w[:-1] is the prefix of the
    base gallery of w, so the memo already holds the prefix's key when its
    presentation passed: the new keys are certified along the prefix tree."""
    report = Report(f"CB3({bp.name}, r={radius})")
    consistent: set[tuple[int, int]] = set()
    for w in bp.cox.ball(radius):
        if len(w) > cap_group_bits:
            report.skip(f"skipped w={word_label(w)}: exceeds group bit cap")
            continue
        report.merge(build_Uw(bp, w, cap_galleries, consistent=consistent)[1])
    return report


# ---------------------------------------------------------------------------
# subgroups and series


def subgroup_closure(pres: PCPres, gens: Iterable[int],
                     cap: int = 1 << 24) -> set[int]:
    """Subgroup generated by `gens`, as an explicit element set (BFS)."""
    gens = list(gens)
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pres.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > cap:
                        raise CapExceeded(f"subgroup closure cap {cap} exceeded")
        frontier = new
    return seen


def normal_closure(pres: PCPres, seed: Iterable[int],
                   cap: int = 1 << 24) -> set[int]:
    """Smallest normal subgroup containing `seed` (conjugation by the
    presentation generators suffices since they generate)."""
    gens = {x for x in seed if x}
    group_gens = [pres.generator(i) for i in range(1, pres.k + 1)]
    while True:
        closure = subgroup_closure(pres, gens, cap)
        new = {pres.conj(g, x) for x in closure for g in group_gens} - closure
        if not new:
            return closure
        gens |= new


def lower_central_series(pres: PCPres, cap: int = 1 << 24) -> list[Collection[int]]:
    """gamma_1 = U, gamma_{i+1} = [gamma_i, U], until it reaches 1.

    If N is the normal closure of X and U = <Y>, then [N, U] is the normal
    closure of [X, Y].  So each term is the normal closure of the
    commutators of the previous term's generators with u_1 ... u_k, starting
    from X = Y: k commutators per generator, not per element."""
    if pres.order > cap:
        raise CapExceeded(f"group order {pres.order} exceeds cap {cap}")
    group_gens = [pres.generator(i) for i in range(1, pres.k + 1)]
    series: list[Collection[int]] = [range(pres.order)]
    gens: Iterable[int] = group_gens
    while len(series[-1]) > 1:
        gens = {pres.comm(x, g) for x in gens for g in group_gens}
        nxt = normal_closure(pres, gens, cap)
        if len(nxt) == len(series[-1]):
            raise RgdError("lower central series did not terminate; group not nilpotent?")
        series.append(nxt)
    return series
