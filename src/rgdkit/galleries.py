"""Minimal galleries from the identity chamber.

A gallery is a reduced word read as a chamber path 1 = c0, c1, ..., ck with
its crossed-root sequence; the index order on crossed roots is the gallery
order used by blueprints. Root positions are 1-based throughout.

A gallery is its prefix gallery plus one root.  The word v.t crosses the
root v.e_t last, and v.t is reduced iff v is and v.e_t > 0, so one vector
is both the reducedness test and the last crossed root.  Galleries grow on
the left: if s.v and v.t are reduced, s.v.t is reduced iff s.(v.e_t) > 0,
and that vector is one reflection of the root the gallery of v.t crosses
last.  `get_gallery`, the one constructor, keeps that vector on the gallery
with a link to the prefix gallery, and `Gallery.roots` reads the crossed
roots off those links.  `min_gal` builds an element's galleries once, from
those of the elements below its left descents, which `ball` has recorded.
"""

from __future__ import annotations

from functools import cached_property
from math import inf

from .coxeter import CoxeterSystem, Vector, Word, word_label
from .errors import CapExceeded, RgdError
from .roots import Root


class Gallery:
    """A reduced word, its prefix gallery `head` (None for the identity) and
    `last`, the root vector its last letter crosses.  `get_gallery` makes one
    gallery per word, so galleries compare by identity."""

    def __init__(self, cox: CoxeterSystem, word: Word, head: Gallery | None, last: Vector | None):
        self.cox, self.word, self.head, self.last = cox, word, head, last

    def __len__(self) -> int:
        return len(self.word)

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        # the roots of the nearest linked gallery that knows them, then one per link
        chain, g = [], self
        while g.head is not None and "roots" not in g.__dict__:
            chain.append(g)
            g = g.head
        return g.__dict__.get("roots", ()) + tuple(
            Root(h.last, (h.head.word, h.word[-1])) for h in reversed(chain))

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
    """Gallery for a reduced word, cached per system: its prefix gallery
    plus the root its last letter crosses; the word is refused iff that
    root is negative.

    Warm step: with the galleries of s.v and v.t cached, s.v.t crosses
    (s.v).e_t = s.(v.e_t) last, one reflection of the tail's last root (e_t
    for a one-letter word); since s.v is reduced, s.v.t is iff that root is
    positive.  Otherwise one pass from the identity checks every prefix, and
    only then are the missing prefix galleries cached, each under the tuple
    that is its word."""
    cache = cox._gallery_cache
    g = cache.get(word)
    if g is not None:
        return g
    head, tail = cache.get(word[:-1]), cache.get(word[1:])
    if word and head is not None and tail is not None:
        last = cox.reflect(word[0], tail.last) if tail.word else cox.basis[word[0]]
        if cox.vec_sign(last) < 0:
            raise RgdError(f"gallery type {word} is not reduced")
        g = cache[word] = Gallery(cox, word, head, last)
        return g
    lasts = cox.prefix_root_vectors(word)
    if -1 in map(cox.vec_sign, lasts):
        raise RgdError(f"gallery type {word} is not reduced")
    head = None
    for k in range(len(word) + 1):
        prefix = word if k == len(word) else word[:k]
        g = cache.get(prefix)
        if g is None:
            g = cache[prefix] = Gallery(cox, prefix, head, lasts[k - 1] if k else None)
        head = g
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


def min_gal(cox: CoxeterSystem, w: Word, cap: int = 10_000) -> tuple[Gallery, ...]:
    """All minimal galleries for w (one per reduced word), lex order, built
    once and memoized for every element met on the way; an explicit stack
    keeps the Python call depth independent of l(w).

    w must be a normal form (`cox.normal_form`); ball words are, and so is
    every u on the stack.  For each left descent s of u, s followed by the
    reduced words of su gives reduced words of u.  The descents are the s
    with z_s < 0 on the point u.x; the least is u[0], and u[1:] is the normal
    form of u[0].u.  Only a ball word in `_ball_descents`, or one past the
    ball, computes its point, and only its other descents fold it."""
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
            if len(u) < len(cox._ball_layers) and u not in cox._ball_descents:
                steps = below[u] = [(s, u[1:]) for s in u[:1]]
            else:
                z = cox.point(u)
                steps = below[u] = [
                    (s, u[1:] if s == u[0] else cox.fold(cox.cross(s, z), len(u) - 1)[0])
                    for s in range(cox.rank) if z[s] < 0]
            pending = [v for _, v in steps if v not in cache]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        acc: list[Gallery] = []
        for s, v in steps:
            for G in cache[v]:
                acc.append(get_gallery(cox, (s,) + G.word))
                if len(acc) > cap:
                    raise CapExceeded(f"gallery cap {cap} exceeded for {word_label(u)}")
        cache[u] = tuple(acc) if u else (get_gallery(cox, u),)
    out = cache[w]
    if len(out) > cap:
        raise CapExceeded(f"gallery cap {cap} exceeded for {word_label(w)}")
    return out


def min_gal_s(cox: CoxeterSystem, w: Word, s: int,
              cap: int = 10_000) -> list[Gallery] | tuple[Gallery, ...]:
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
