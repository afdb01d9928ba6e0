"""Exact integer Coxeter group engine.

Generators are 0-based ints; words are tuples of generators read left to
right, with the leftmost letter applied last (w = s1...sk acts on the left).
Every allowed label is crystallographic, so the group is the Weyl group of
an integer generalized Cartan matrix (Kac, Infinite-dimensional Lie
algebras, Prop. 3.13).  Element computations act on the root lattice with
integer vectors in the simple-root basis; the action is faithful, real roots
have integer coordinates of one sign (Lemma 3.11 there), and so machine
integers decide lengths, descents and equality exactly.

Canonical words come from one fold in the dual action on the Tits cone.
With z_j = <alpha_j, w.x> for x in a face F_J of the fundamental chamber,
s is a left descent of w iff z_s < 0 (Lemma 3.11 and Prop. 3.12 there), so
crossing the least negative wall until none is left spells the lex-least
reduced word of w (`normal_form`) or of the minimal element of w<J>
(`coset_gate`), and folds a fixed point onto its face (`roots.common_residue`).
Read backwards, the same rule grows the ball one layer at a time with no
fold at all (`ball`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import mul
from typing import Iterator

from .errors import CapExceeded, InternalConsistencyError, NotSpherical, RgdError

Word = tuple[int, ...]
Vector = tuple[int, ...]

ALLOWED_LABELS = (2, 3, 4, 6, inf)

# label -> (a_ij, a_ji) for i < j; a_ij * a_ji = 4 cos^2(pi/m), or 4 for inf
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), inf: (-2, -2)}


def word_label(w: Word) -> str:
    """1-based dotted label of a word, `e` for the identity."""
    return ".".join(str(x + 1) for x in w) if w else "e"


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric Coxeter matrix with labels in {2,3,4,6,inf}, plus a direction
    (t, s) for every edge labeled 6."""

    rank: int
    entries: tuple[tuple[float, ...], ...]
    directed6: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.rank < 1:
            raise RgdError("rank must be positive")
        n = self.rank
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise RgdError("entries must be a rank x rank matrix")
        directed = set(self.directed6)
        for i in range(n):
            if self.entries[i][i] != 1:
                raise RgdError("diagonal entries must be 1")
            for j in range(n):
                if i == j:
                    continue
                m = self.entries[i][j]
                if m != self.entries[j][i]:
                    raise RgdError("matrix must be symmetric")
                if m not in ALLOWED_LABELS:
                    raise RgdError(f"label m({i},{j}) = {m} not in {{2,3,4,6,inf}}")
                if m == 6 and i < j:
                    dirs = directed & {(i, j), (j, i)}
                    if len(dirs) != 1:
                        raise RgdError(f"6-edge {{{i},{j}}} needs exactly one direction")
        for (t, s) in directed:
            if self.m(t, s) != 6:
                raise RgdError(f"direction ({t},{s}) on an edge not labeled 6")

    def m(self, s: int, t: int) -> float:
        return self.entries[s][t]

    @staticmethod
    def from_dict(rank: int, labels: dict[tuple[int, int], float],
                  directed6: frozenset[tuple[int, int]] = frozenset()) -> "CoxeterMatrix":
        rows = [[1 if i == j else 0.0 for j in range(rank)] for i in range(rank)]
        for (i, j), m in labels.items():
            rows[i][j] = m
            rows[j][i] = m
        return CoxeterMatrix(rank, tuple(tuple(r) for r in rows), directed6)

    @staticmethod
    def universal(rank: int) -> "CoxeterMatrix":
        labels = {(i, j): inf for i in range(rank) for j in range(i + 1, rank)}
        return CoxeterMatrix.from_dict(rank, labels)

    @staticmethod
    def dihedral(m: float, direction: tuple[int, int] | None = None) -> "CoxeterMatrix":
        directed = frozenset() if direction is None else frozenset({direction})
        return CoxeterMatrix.from_dict(2, {(0, 1): m}, directed)


class CoxeterSystem:
    """Word arithmetic and the Tits-cone fold for one Coxeter matrix."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.rank = matrix.rank
        # cartan[i][j] = <alpha_j, alpha_i^vee>
        self.cartan = tuple(
            tuple(2 if i == j else _CARTAN[matrix.m(i, j)][0 if i < j else 1]
                  for j in range(self.rank))
            for i in range(self.rank)
        )
        self.basis: tuple[Vector, ...] = tuple(
            tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        self._append_cache: dict[tuple[Word, int], Word] = {}
        self._ball_layers: list[list[Word]] = [[()]]
        self._min_gal_cache: dict[Word, tuple[Word, ...]] = {}
        self._gallery_cache: dict[Word, object] = {}

    # ---- root lattice representation ----------------------------------

    def pairing(self, s: int, v: Vector) -> int:
        """Coroot pairing <v, alpha_s^vee>."""
        return sum(map(mul, self.cartan[s], v))

    def reflect(self, s: int, v: Vector) -> Vector:
        """Simple reflection sigma_s(v) = v - <v, alpha_s^vee> alpha_s."""
        coeff = sum(map(mul, self.cartan[s], v))
        if not coeff:
            return v
        out = list(v)
        out[s] -= coeff
        return tuple(out)

    def apply(self, word: Word, v: Vector) -> Vector:
        """Act by the group element of `word` (rightmost letter first)."""
        for s in reversed(word):
            v = self.reflect(s, v)
        return v

    def apply_inv(self, word: Word, v: Vector) -> Vector:
        for s in word:
            v = self.reflect(s, v)
        return v

    @staticmethod
    def vec_sign(v: Vector) -> int:
        """+1 for a positive vector, -1 for negative; mixed signs are an error."""
        pos = neg = False
        for coord in v:
            if coord > 0:
                pos = True
            elif coord < 0:
                neg = True
        if pos and neg:
            raise RgdError(f"mixed-sign vector is not a root image: {v}")
        if not pos and not neg:
            raise RgdError("zero vector has no sign")
        return 1 if pos else -1

    def prefix_lengths(self, word: Word) -> Iterator[int]:
        """l(w[:k]) for k = 1 .. len(word), one rank x rank update per letter.

        Keeps cols[j] = w.e_j for the prefix w read so far: l(wt) = l(w) + 1
        iff w.e_t > 0, and wt.e_j = w.e_j - <alpha_j, alpha_t^vee> w.e_t."""
        cols = self.basis
        length = 0
        for t in word:
            ct = cols[t]
            length += self.vec_sign(ct)
            cols = tuple(tuple(x - a * y for x, y in zip(col, ct)) if a else col
                         for col, a in zip(cols, self.cartan[t]))
            yield length

    # ---- length and reduction -----------------------------------------

    def prefix_root_vectors(self, word: Word) -> list[Vector]:
        """Crossed-root vectors beta_i = s1...s_{i-1} . e_{s_i} of a reduced word."""
        out = []
        for i, s in enumerate(word):
            out.append(self.apply(word[:i], self.basis[s]))
        return out

    def right_mult(self, word: Word, t: int) -> Word:
        """Reduced word for w*t given a reduced word for w (exchange condition)."""
        v = self.apply(word, self.basis[t])
        if self.vec_sign(v) > 0:
            return word + (t,)
        return self._exchange(word, tuple(-c for c in v))

    def left_mult(self, s: int, word: Word) -> Word:
        """Reduced word for s*w given a reduced word for w."""
        e_s = self.basis[s]
        if self.vec_sign(self.apply_inv(word, e_s)) > 0:
            return (s,) + word
        return self._exchange(word, e_s)

    def _exchange(self, word: Word, target: Vector) -> Word:
        """Delete the letter word[i] whose crossed root word[:i] . e_{word[i]}
        is `target`, carrying u = word[:i]^-1 . target along: one reflection
        per letter."""
        u = target
        for i, s in enumerate(word):
            if u == self.basis[s]:
                return word[:i] + word[i + 1:]
            u = self.reflect(s, u)
        raise RgdError("exchange condition failed; input word not reduced?")

    def reduce_word(self, word: Word) -> Word:
        """Deterministic reduced word for the same element."""
        return self.normal_form(word)

    def is_reduced(self, word: Word) -> bool:
        return len(self.reduce_word(word)) == len(word)

    # ---- the Tits cone: canonical words by folding -------------------

    def point(self, word: Word, face: tuple[int, ...] = ()) -> list[int]:
        """Coordinates z_j = <alpha_j, w.x> of the point w.x, where x has
        z_j = 0 on `face` and 1 elsewhere (rightmost letter first)."""
        z = [0 if j in face else 1 for j in range(self.rank)]
        cartan = self.cartan
        for s in reversed(word):
            zs = z[s]
            if zs:
                z = [zj - a * zs for zj, a in zip(z, cartan[s])]
        return z

    def cross(self, s: int, z: list[int]) -> list[int]:
        """The point s.z: z reflected in the wall of s, so z_s changes sign."""
        zs = z[s]
        return [zj - a * zs for zj, a in zip(z, self.cartan[s])]

    def fold(self, z: list[int], limit: int) -> tuple[Word, list[int]]:
        """Cross the wall of the least s with z_s < 0 until no z_s is negative.

        Returns the recorded word and the final point, which lies in the
        closed fundamental chamber.  For w.x with x in the face F_J, the
        negative coordinates are the left descents s of the minimal element
        of w<J> (<alpha_s, w.x> < 0 iff w^-1 alpha_s < 0 off <J>), so the
        recorded word is that element's lex-least reduced word.  This is the
        least-descent rule: the lex-least reduced word of v is
        (min D_L(v)) followed by the lex-least reduced word of min D_L(v).v,
        which `ball` runs backwards.
        """
        cartan = self.cartan
        word: list[int] = []
        while True:
            for s, zs in enumerate(z):
                if zs < 0:
                    break
            else:
                return tuple(word), z
            if len(word) >= limit:
                raise InternalConsistencyError(f"fold did not end within {limit} steps")
            z = [zj - a * zs for zj, a in zip(z, cartan[s])]
            word.append(s)

    def normal_form(self, word: Word) -> Word:
        """Lex-least reduced word: the fold of w.x for x in the open chamber."""
        return self.fold(self.point(word), len(word))[0]

    def nf_append(self, word: Word, t: int) -> Word:
        """normal_form(w * t), memoized."""
        key = (word, t)
        out = self._append_cache.get(key)
        if out is None:
            out = self._append_cache[key] = self.normal_form(word + (t,))
        return out

    # ---- enumeration ---------------------------------------------------

    def ball(self, r: int, cap: int = 200_000) -> list[Word]:
        """Normal forms of all elements of length <= r, each exactly once,
        layer by layer in lex order.

        Layer n + 1 comes from layer n by left multiplication.  For w in
        layer n and s with z_s > 0 on the point w.x of the open chamber,
        s.w.x = `cross(s, w.x)` is the point of sw, of length n + 1, and
        (s,) + w is kept exactly when s is the least t with z_t < 0 there:
        by the least-descent rule of `fold` it is then the lex-least reduced
        word of sw, and each sw has one least left descent, so each element
        is met once and nothing is folded.  Taking s in the outer loop keeps
        the layer sorted.
        """
        if r < 0:
            raise RgdError("radius must be >= 0")
        layers = self._ball_layers
        # refuse once the running count passes the cap: no partial layer is cached
        total = sum(map(len, layers))
        points = [self.point(w) for w in layers[-1]] if len(layers) <= r else []
        while len(layers) <= r:
            words, nxt = [], []
            for s in range(self.rank):
                for w, z in zip(layers[-1], points):
                    if z[s] <= 0:
                        continue
                    y = self.cross(s, z)
                    if s and min(y[:s]) < 0:
                        continue
                    words.append((s,) + w)
                    nxt.append(y)
                    if total + len(words) > cap:
                        raise CapExceeded(f"ball cap {cap} exceeded at radius {len(layers)}")
            total += len(words)
            layers.append(words)
            points = nxt
        out: list[Word] = []
        for layer in layers[: r + 1]:
            out.extend(layer)
        if len(out) > cap:
            raise CapExceeded(f"ball cap {cap} exceeded")
        return out

    def longest_element(self, J: tuple[int, ...]) -> Word:
        """Normal form of the longest element of a spherical rank<=2 parabolic."""
        if not J:
            raise NotSpherical("only rank <= 2 standard parabolics are supported")
        return self.parabolic_elements(J)[-1]

    def coset_gate(self, word: Word, J: tuple[int, ...]) -> Word:
        """Lex-least reduced word of the minimal-length element of w<J>."""
        return self.fold(self.point(word, J), len(word))[0]

    def parabolic_elements(self, J: tuple[int, ...]) -> list[Word]:
        """Normal forms of the spherical standard parabolic <J>, |J| <= 2, by
        length and then lexicographically: for J = {s < t} of order m, the
        alternating words shorter than m from s and from t, then the longest
        element, whose lex-least reduced word starts with s."""
        J = tuple(sorted(set(J)))
        if len(J) > 2:
            raise NotSpherical("only rank <= 2 standard parabolics are supported")
        if len(J) < 2:
            return [(), J] if J else [()]
        s, t = J
        if self.matrix.m(s, t) == inf:
            raise NotSpherical(f"parabolic {{{s},{t}}} is infinite")
        m = int(self.matrix.m(s, t))

        def alternating(a: int, b: int, n: int) -> Word:
            return tuple((a, b)[i % 2] for i in range(n))
        return [(), *(alternating(a, b, n) for n in range(1, m) for a, b in ((s, t), (t, s))),
                alternating(s, t, m)]
