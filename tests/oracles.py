"""Brute-force half-space oracles for root computations.

Chamber membership, prenilpotency and closed root intervals, each read off
its definition by scanning the chambers of a ball.  The engine computes
intervals by the cone and wall-nesting criteria of `roots.interval` and
never needs the other two; these definitions are the tests' independent
cross-checks.  `residue_roots` lists the walls of a rank-2 residue from its
gate, against which the residue groups' galleries are checked.
"""

from __future__ import annotations

from math import inf
from weakref import WeakKeyDictionary

from rgdkit.coxeter import CoxeterSystem, Vector, Word
from rgdkit.errors import InternalConsistencyError, RgdError
from rgdkit.roots import Residue2, Root, depth, pair_order

# system -> radius -> root vector -> membership bitmask over ball(radius)
MASKS: WeakKeyDictionary[CoxeterSystem, dict[int, dict[Vector, int]]] = WeakKeyDictionary()


def member(cox: CoxeterSystem, w: Word, alpha: Root) -> bool:
    """Chamber membership: w in alpha iff w^-1 . vec is positive."""
    return cox.vec_sign(cox.apply_inv(w, alpha.vec)) > 0


def prenilpotent(cox: CoxeterSystem, alpha: Root, beta: Root,
                 radius: int | None = None) -> bool:
    """Both positive: true iff some chamber lies outside both half-spaces.

    Finite pair order settles it immediately; otherwise a bounded chamber
    search over ball(dp(alpha) + dp(beta) + 2) looks for a witness.
    """
    if cox.vec_sign(alpha.vec) <= 0 or cox.vec_sign(beta.vec) <= 0:
        raise RgdError("prenilpotent is defined for positive roots")
    if alpha == beta:
        return True
    if pair_order(cox, alpha, beta) != inf:
        return True
    if radius is None:
        radius = depth(cox, alpha) + depth(cox, beta) + 2
    for w in cox.ball(radius):
        if not member(cox, w, alpha) and not member(cox, w, beta):
            return True
    return False


def interval_oracle(cox: CoxeterSystem, alpha: Root, beta: Root, r: int) -> set[Root]:
    """Brute-force [alpha, beta] from the half-space definition over ball(r).

    Candidates are the crossed roots of all chambers in ball(r); gamma
    qualifies iff every ball chamber in alpha^beta lies in gamma and every
    ball chamber in (-alpha)^(-beta) lies outside gamma.
    """
    chambers = cox.ball(r)
    masks = membership_masks(cox, r)
    am, bm = masks[alpha.vec], masks[beta.vec]
    full = (1 << len(chambers)) - 1
    both = am & bm
    neither = full & ~am & ~bm
    out: set[Root] = set()
    for vec, gm in masks.items():
        if both & ~gm:
            continue
        if neither & gm:
            continue
        out.add(Root(vec))
    return out


def membership_masks(cox: CoxeterSystem, r: int) -> dict[Vector, int]:
    """vec -> bitmask over ball(r) chambers of the half-space w in alpha,
    memoized per system in `MASKS`."""
    per_radius = MASKS.setdefault(cox, {})
    cached = per_radius.get(r)
    if cached is not None:
        return cached
    chambers = cox.ball(r)
    index = {w: i for i, w in enumerate(chambers)}
    vecs: set[Vector] = set()
    for w in chambers:
        for v in cox.prefix_root_vectors(w):
            vecs.add(v)
    masks: dict[Vector, int] = {}
    for vec in vecs:
        # BFS propagation: value at chamber w is w^-1 . vec
        carried: dict[Word, Vector] = {(): vec}
        mask = 0
        for w in chambers:  # ball() is ordered by length, so prefixes come first
            if w:
                prev = carried[w[:-1]]
                cur = cox.reflect(w[-1], prev)
                carried[w] = cur
            else:
                cur = vec
            if cox.vec_sign(cur) > 0:
                mask |= 1 << index[w]
        masks[vec] = mask
    per_radius[r] = masks
    return masks


def residue_roots(cox: CoxeterSystem, R: Residue2) -> list[Root]:
    """Phi(R): the m positive roots whose walls run through the residue."""
    s, t = R.J
    m = int(cox.matrix.m(s, t))
    g = R.base
    word = tuple(s if i % 2 == 0 else t for i in range(m))
    out = []
    for i in range(m):
        vec = cox.apply(g + word[:i], cox.basis[word[i]])
        out.append(Root(vec, (cox.normal_form(g + word[:i]), word[i])))
    if len({r.vec for r in out}) != m:
        raise InternalConsistencyError("residue walls are not distinct")
    return out
