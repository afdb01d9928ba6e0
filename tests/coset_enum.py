"""Todd-Coxeter coset enumeration over the trivial subgroup.

Independent brute-force oracle for the order of a finitely presented group
with involutive generators, the test suite's cross-check of the
collection-based consistency test.  Generators are 1-based ints; relators
are words.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from rgdkit.errors import CapExceeded


def relators(pres) -> list[tuple[int, ...]]:
    """All defining relators [u_i, u_j] * (M-word)^-1 of a `PCPres`.

    The squares u_i^2 are implicit in the oracle's involutive generators."""
    out = []
    for i in range(1, pres.k + 1):
        for j in range(i + 1, pres.k + 1):
            m_word = pres.rel.get((i, j), ())
            out.append((i, j, i, j) + tuple(reversed(m_word)))
    return out


class _Cosets:
    def __init__(self, ngens: int):
        self.ngens = ngens
        self.table: list[list[int | None]] = []
        self.parent: list[int] = []
        self.new()

    def new(self) -> int:
        idx = len(self.table)
        self.table.append([None] * self.ngens)
        self.parent.append(idx)
        return idx

    def find(self, c: int) -> int:
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def get(self, c: int, g: int) -> int | None:
        val = self.table[self.find(c)][g]
        return None if val is None else self.find(val)

    def set_edge(self, c: int, g: int, d: int, pending: list[tuple[int, int]]) -> None:
        """Record c.g = d (and d.g = c: generators are involutions)."""
        for a, b in ((c, d), (d, c)):
            a, b = self.find(a), self.find(b)
            cur = self.table[a][g]
            if cur is None:
                self.table[a][g] = b
            elif self.find(cur) != self.find(b):
                pending.append((self.find(cur), self.find(b)))

    def unify(self, a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.parent[y] = x
            row = self.table[y]
            self.table[y] = [None] * self.ngens
            for g, val in enumerate(row):
                if val is not None:
                    self.set_edge(x, g, self.find(val), pending)

    def live(self) -> list[int]:
        return [i for i in range(len(self.table)) if self.find(i) == i]


def group_order(ngens: int, relators: Iterable[Sequence[int]], cap: int = 1 << 16) -> int:
    """Order of <x_1..x_n | x_i^2, relators> by coset enumeration.

    Only terminates for finite groups; every power-commutator style table
    with values inside open ranges presents a group of order <= 2^n, so the
    enumeration always closes here.
    """
    rels = [tuple(x - 1 for x in rel) for rel in relators if len(rel)]
    rels += [(g, g) for g in range(ngens)]
    cosets = _Cosets(ngens)

    def scan(c: int, rel: Sequence[int]) -> bool:
        """Trace the relator cycle at c; returns True if anything changed."""
        front = cosets.find(c)
        fi = 0
        while fi < len(rel):
            nxt = cosets.get(front, rel[fi])
            if nxt is None:
                break
            front = nxt
            fi += 1
        back = cosets.find(c)
        bi = len(rel)
        while bi > fi:
            prv = cosets.get(back, rel[bi - 1])
            if prv is None:
                break
            back = prv
            bi -= 1
        if fi == bi:
            if front != back:
                cosets.unify(front, back)
                return True
            return False
        if bi == fi + 1:
            pending: list[tuple[int, int]] = []
            cosets.set_edge(front, rel[fi], back, pending)
            for a, b in pending:
                cosets.unify(a, b)
            return True
        return False

    while True:
        changed = True
        while changed:
            changed = False
            for c in cosets.live():
                if cosets.find(c) != c:
                    continue
                for rel in rels:
                    if scan(c, rel):
                        changed = True
        hole = None
        for c in cosets.live():
            for g in range(ngens):
                if cosets.get(c, g) is None:
                    hole = (c, g)
                    break
            if hole:
                break
        if hole is None:
            return len(cosets.live())
        c, g = hole
        d = cosets.new()
        if len(cosets.table) > cap:
            raise CapExceeded(f"coset enumeration cap {cap} exceeded")
        pending: list[tuple[int, int]] = []
        cosets.set_edge(c, g, d, pending)
        for a, b in pending:
            cosets.unify(a, b)
