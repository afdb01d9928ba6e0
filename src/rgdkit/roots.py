"""Roots as half-spaces of a Coxeter system.

A root is stored as its integer vector in the root lattice of the system's
generalized Cartan matrix plus a provenance expression (w, s) with
alpha = w . alpha_s.  Positivity, reflections, reflection orders, intervals
and rank-2 residues are all derived from the vector and, through the
expression, from the coroot alpha^vee = w . alpha_s^vee.  A root built from
a vector alone (to look up its position in a gallery) has no expression,
and asking for one is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import mul

from .coxeter import CoxeterSystem, Vector, Word, word_label
from .errors import InternalConsistencyError, RgdError
# the retired Q(sqrt2, sqrt3) realization stays loaded as the engine's
# differential oracle; perfbench/tracing.py patches its operators by module
from . import qf24  # noqa: F401


@dataclass(frozen=True)
class Root:
    """Half-space root; equality and hashing are by exact vector."""

    vec: Vector
    expr: tuple[Word, int] | None = field(default=None, compare=False, hash=False)

    def describe(self) -> str:
        coords = "[" + ",".join(repr(c) for c in self.vec) + "]"
        if self.expr is None:
            return coords
        word, s = self.expr
        return f"({word_label(word)}|{s + 1}){coords}"


def simple_root(cox: CoxeterSystem, s: int) -> Root:
    return Root(cox.basis[s], ((), s))


def expression(cox: CoxeterSystem, alpha: Root) -> tuple[Word, int]:
    if alpha.expr is None:
        raise InternalConsistencyError(f"root {alpha.describe()} has no provenance expression")
    return alpha.expr


def act(cox: CoxeterSystem, word: Word, alpha: Root) -> Root:
    """w . alpha with provenance carried along."""
    vec = cox.apply(word, alpha.vec)
    w, s = expression(cox, alpha)
    return Root(vec, (cox.normal_form(word + w), s))


def reflection_word(cox: CoxeterSystem, alpha: Root) -> Word:
    """Normal form of the reflection r_alpha = w s w^-1."""
    word, s = expression(cox, alpha)
    return cox.normal_form(word + (s,) + tuple(reversed(word)))


def depth(cox: CoxeterSystem, alpha: Root) -> int:
    """Depth of a positive root: (l(r_alpha) + 1) / 2."""
    return (len(reflection_word(cox, alpha)) + 1) // 2


def phi_w(cox: CoxeterSystem, w: Word) -> list[Root]:
    """Crossed roots of the reduced word w, in gallery order."""
    return [Root(vec, (w[:i], w[i])) for i, vec in enumerate(cox.prefix_root_vectors(w))]


def coroot_pairing(cox: CoxeterSystem, alpha: Root, beta: Root) -> int:
    """<alpha, beta^vee> = <w^-1 . alpha, alpha_t^vee> for beta = w . alpha_t."""
    w, t = expression(cox, beta)
    return cox.pairing(t, cox.apply_inv(w, alpha.vec))


def _pairing_product(cox: CoxeterSystem, alpha: Root, beta: Root) -> int:
    """<alpha, beta^vee><beta, alpha^vee>: 4 cos^2(pi/m) for order m, >= 4 if infinite."""
    return coroot_pairing(cox, alpha, beta) * coroot_pairing(cox, beta, alpha)


_ORDER_OF_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def pair_order(cox: CoxeterSystem, alpha: Root, beta: Root) -> float:
    """Order of r_alpha r_beta, read off the pairing product."""
    if alpha == beta or alpha.vec == tuple(-c for c in beta.vec):
        raise RgdError("pair_order requires alpha != +-beta")
    p = _pairing_product(cox, alpha, beta)
    if p >= 4:
        return inf
    order = _ORDER_OF_PRODUCT.get(p)
    if order is None:
        raise InternalConsistencyError(f"unexpected pairing product {p} for a finite pair")
    return order


def _solve_cone(alpha: Vector, beta: Vector, gamma: Vector) -> tuple[int, int, int] | None:
    """Solve det*gamma = a*alpha + b*beta by Cramer's rule; (a, b, det), or
    None if gamma is outside the span."""
    n = len(gamma)
    piv = None
    for p in range(n):
        for q in range(p + 1, n):
            det = alpha[p] * beta[q] - alpha[q] * beta[p]
            if det:
                piv = (p, q, det)
                break
        if piv:
            break
    if piv is None:
        raise RgdError("cone solve needs independent roots")
    p, q, det = piv
    a = gamma[p] * beta[q] - gamma[q] * beta[p]
    b = alpha[p] * gamma[q] - alpha[q] * gamma[p]
    for i in range(n):
        if a * alpha[i] + b * beta[i] != det * gamma[i]:
            return None
    return a, b, det


def _noncrossing(cox: CoxeterSystem, alpha: Root, beta: Root) -> bool:
    """The two walls do not cross: r_alpha r_beta has infinite order."""
    return _pairing_product(cox, alpha, beta) >= 4


def interval(cox: CoxeterSystem, alpha: Root, beta: Root, gallery) -> list[Root]:
    """Closed interval [alpha, beta] inside Phi(G), ordered by the gallery.

    Finite reflection order: the cone criterion (gamma = a*alpha + b*beta,
    a, b >= 0; both walls lie in one rank-2 residue, so the interval spans
    their plane).  Infinite order: the pair is nested with the earlier root
    inside the later one (two non-crossing walls crossed by one minimal
    gallery leave exactly one empty sector, which must be alpha ^ -gamma),
    so gamma lies in the interval iff its wall crosses neither endpoint
    wall.  The tests cross-check this computation against the half-space
    definition, scanned over a ball (`interval_oracle` in tests/oracles.py).
    """
    if not (gallery.crosses(alpha) and gallery.crosses(beta)):
        raise RgdError("interval endpoints must be crossed by the gallery")
    if alpha == beta:
        return [alpha]
    i, j = gallery.position(alpha), gallery.position(beta)
    if i > j:
        raise RgdError("interval endpoints must be in gallery order")
    out = [alpha]
    if pair_order(cox, alpha, beta) != inf:
        for gamma in gallery.roots[i:j - 1]:
            sol = _solve_cone(alpha.vec, beta.vec, gamma.vec)
            if sol is None:
                continue
            a, b, det = sol
            if a * det >= 0 and b * det >= 0:
                out.append(gamma)
    else:
        for gamma in gallery.roots[i:j - 1]:
            if _noncrossing(cox, alpha, gamma) and _noncrossing(cox, gamma, beta):
                out.append(gamma)
    out.append(beta)
    return out


def open_interval(cox: CoxeterSystem, alpha: Root, beta: Root, gallery) -> list[Root]:
    return [g for g in interval(cox, alpha, beta, gallery) if g != alpha and g != beta]


@dataclass(frozen=True)
class Residue2:
    """Spherical rank-2 residue, named by its gate (minimal chamber) and type."""

    base: Word
    J: tuple[int, int]

    def label(self) -> str:
        return f"R{{{self.J[0] + 1},{self.J[1] + 1}}}({word_label(self.base)})"


def residue_at(cox: CoxeterSystem, w: Word, J: tuple[int, int]) -> Residue2:
    s, t = sorted(J)
    if cox.matrix.m(s, t) == inf:
        raise RgdError("residue type must be spherical")
    return Residue2(cox.coset_gate(w, (s, t)), (s, t))


def stabilizes_residue(cox: CoxeterSystem, refl: Word, R: Residue2) -> bool:
    """r . R = R iff gate^-1 r gate lies in the parabolic <J>."""
    g = R.base
    conj = cox.normal_form(tuple(reversed(g)) + refl + g)
    return set(conj) <= set(R.J)


def common_residue(cox: CoxeterSystem, alpha: Root, beta: Root) -> Residue2:
    """The spherical rank-2 residue whose walls include those of alpha and beta.

    Summing the point (1, ..., 1) of the fundamental chamber over the 2m
    elements of <r_alpha, r_beta> gives a functional z fixed by both
    reflections.  The stabilizer of a point of the Tits cone is
    gate <J> gate^-1 for the face gate . F_J that holds it (Abramenko-Brown,
    Buildings, GTM 248), so folding z into the fundamental chamber records
    the gate, and the coordinates that vanish there are the type J.  In a
    finite parabolic of rank >= 3 the sum projects onto the fixed space of
    both reflections, and for this symmetric point it can vanish or land on
    a face of larger type; then the less symmetric interior points (3^j)
    and (3^(n-j)) are tried, and if none gives |J| = 2 the call fails.
    """
    m = pair_order(cox, alpha, beta)
    if m == inf:
        raise RgdError("common_residue needs reflections of finite product order")

    def reflection(gamma: Root):
        # r_gamma z = z - <gamma, z> gamma^vee, in coordinates z_j = <alpha_j, z>
        co = [coroot_pairing(cox, simple_root(cox, j), gamma) for j in range(cox.rank)]

        def reflect(z: list[int]) -> list[int]:
            c = sum(map(mul, gamma.vec, z))
            return [zj - c * cj for zj, cj in zip(z, co)]
        return reflect

    r_a, r_b = reflection(alpha), reflection(beta)
    n = cox.rank
    for point in ([1] * n, [3 ** j for j in range(n)], [3 ** (n - j) for j in range(n)]):
        z = [0] * n
        for _ in range(int(m)):  # the group is {(r_b r_a)^k, r_a (r_b r_a)^k : k < m}
            mirrored = r_a(point)
            z = [a + b + c for a, b, c in zip(z, point, mirrored)]
            point = r_b(mirrored)
        gate, z = cox.fold(z, 10_000)
        J = tuple(s for s in range(n) if z[s] == 0)
        if len(J) == 2:
            break
    else:
        raise InternalConsistencyError(
            f"fixed point of {alpha.describe()}, {beta.describe()} lies on a face of type {J}")
    R = residue_at(cox, gate, J)
    for gamma in (alpha, beta):
        if not stabilizes_residue(cox, reflection_word(cox, gamma), R):
            raise InternalConsistencyError(
                f"{R.label()} is not stabilized by the reflection of {gamma.describe()}")
    return R
