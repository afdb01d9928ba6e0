"""Minimal galleries from the identity chamber.

A gallery is a reduced word read as a chamber path 1 = c0, c1, ..., ck with
its crossed-root sequence; the index order on crossed roots is the gallery
order used by blueprints. Root positions are 1-based throughout.

Each word is built from a shorter one that is already known.  `get_gallery`,
the one constructor, checks a word against its cached prefix with one
`apply`: w.t is reduced iff w.e_t > 0.  `min_gal` reads the left descents of
w off its point w.x, where they are the negative coordinates: the least one
is w[0], whose reduced words continue with those of w[1:], and only the
other descents are folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

from .coxeter import CoxeterSystem, Word, word_label
from .errors import CapExceeded, RgdError
from .roots import Root, phi_w


@dataclass(frozen=True)
class Gallery:
    """A reduced word and its crossed roots, computed on first use.  Build it
    with `get_gallery`, which checks the word and caches the gallery."""

    cox: CoxeterSystem
    word: Word

    def __len__(self) -> int:
        return len(self.word)

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        # the word is reduced, so no wall is crossed twice
        return tuple(phi_w(self.cox, self.word))

    @cached_property
    def _pos(self) -> dict:
        return {r.vec: i + 1 for i, r in enumerate(self.roots)}

    def root(self, i: int) -> Root:
        """Crossed root at 1-based position i."""
        return self.roots[i - 1]

    def position(self, alpha: Root) -> int:
        p = self._pos.get(alpha.vec)
        if p is None:
            raise RgdError(f"root not crossed by gallery {self.word}")
        return p

    def crosses(self, alpha: Root) -> bool:
        return alpha.vec in self._pos

    def prefix(self, m: int) -> "Gallery":
        return get_gallery(self.cox, self.word[:m])

    def label(self) -> str:
        return word_label(self.word)


def get_gallery(cox: CoxeterSystem, word: Word) -> Gallery:
    """Gallery for a reduced word, cached per system; an unreduced word is
    refused.  When the gallery of word[:-1] is cached, word is reduced iff
    word[:-1] . e_t > 0 for its last letter t; otherwise `is_reduced` decides."""
    cache = cox._gallery_cache
    g = cache.get(word)
    if g is None:
        prefix = word[:-1]
        if word and prefix in cache:
            reduced = cox.vec_sign(cox.apply(prefix, cox.basis[word[-1]])) > 0
        else:
            reduced = cox.is_reduced(word)
        if not reduced:
            raise RgdError(f"gallery type {word} is not reduced")
        g = cache[word] = Gallery(cox, word)
    return g


def rj_gallery(cox: CoxeterSystem, first: int, second: int) -> Gallery:
    """The gallery of r_J, the longest element of J = {first, second}, that
    starts with `first`: the alternating word of length m."""
    m = cox.matrix.m(first, second)
    if m == inf:
        raise RgdError("spherical pair required")
    return get_gallery(cox, tuple(first if k % 2 == 0 else second for k in range(int(m))))


def oriented_gallery(cox: CoxeterSystem, s: int, t: int) -> Gallery:
    """The gallery of r_J that anchors the rank-2 Moufang tables: it starts at
    the smaller generator, or for m = 6 at the target of the directed edge."""
    first = min(s, t)
    for (a, b) in cox.matrix.directed6:
        if {a, b} == {s, t}:
            first = b
    return rj_gallery(cox, first, s + t - first)


def min_gal(cox: CoxeterSystem, w: Word, cap: int = 10_000) -> list[Gallery]:
    """All minimal galleries for w (one per reduced word), lex order.

    w must be a normal form (`cox.normal_form`); ball words are."""
    words = _reduced_words(cox, w, cap)
    return [get_gallery(cox, word) for word in words]


def _reduced_words(cox: CoxeterSystem, w: Word, cap: int) -> tuple[Word, ...]:
    """Reduced words of w in lex order, memoized for every element met on the
    way; an explicit stack keeps the Python call depth independent of l(w).

    Every element on the stack is a normal form u.  Its left descents are the
    s with z_s < 0 on the point u.x; the least is u[0], and u[1:] is the
    normal form of u[0].u, so only the other descents fold their point."""
    cache = cox._min_gal_cache
    below: dict[Word, list[tuple[int, Word]]] = {}
    stack = [w]
    while stack:
        u = stack[-1]
        if u in cache:
            stack.pop()
            continue
        steps = below.get(u)
        if steps is None:
            z = cox.point(u)
            steps = below[u] = [
                (s, u[1:] if s == u[0] else cox.fold(cox.cross(s, z), len(u) - 1)[0])
                for s in range(cox.rank) if z[s] < 0]
            pending = [v for _, v in steps if v not in cache]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        if not u:
            cache[u] = ((),)
            continue
        acc: list[Word] = []
        for s, v in steps:
            for tail in cache[v]:
                acc.append((s,) + tail)
                if len(acc) > cap:
                    raise CapExceeded(f"gallery cap {cap} exceeded for {word_label(u)}")
        cache[u] = tuple(acc)
    out = cache[w]
    if len(out) > cap:
        raise CapExceeded(f"gallery cap {cap} exceeded for {word_label(w)}")
    return out


def min_gal_s(cox: CoxeterSystem, w: Word, s: int, cap: int = 10_000) -> list[Gallery]:
    """Min_s(w): galleries starting with s if s is a left descent, else Min(w);
    w a normal form, as for `min_gal`.

    s is a left descent of w iff some reduced word of w starts with s."""
    gals = min_gal(cox, w, cap)
    return [G for G in gals if G.word[:1] == (s,)] or gals


def shift(G: Gallery, s: int) -> Gallery:
    """The gallery sG: drop the leading s (descent) or prepend s (ascent).

    A descent gallery that does not start with s has no sG: prepending s
    gives an unreduced word, which `get_gallery` refuses."""
    if G.word[:1] == (s,):
        return get_gallery(G.cox, G.word[1:])
    return get_gallery(G.cox, (s,) + G.word)
