"""Exact arithmetic in the field Q(sqrt2, sqrt3).

Every scalar is a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational a, b, c, d.
Since {1, sqrt2, sqrt3, sqrt6} is a Q-basis, a value is zero iff all four
coefficients are zero; signs of nonzero values are certified by rational
interval arithmetic at increasing precision.

The engine (`coxeter`, `roots`) computes in an integer root realization and
uses none of this.  The scalars stay in the package because
`perfbench/tracing.py` patches `QF24`'s operators by module; the Tits
representation over them, the engine's differential oracle, is
`GeometricRealization` in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class QF24:
    """a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6) with exact rational coefficients."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    @staticmethod
    def of(a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0) -> "QF24":
        return QF24(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, other: "QF24") -> "QF24":
        if not (other.a or other.b or other.c or other.d):
            return self
        if not (self.a or self.b or self.c or self.d):
            return other
        return QF24(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "QF24") -> "QF24":
        if not (other.a or other.b or other.c or other.d):
            return self
        return QF24(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "QF24":
        return QF24(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "QF24") -> "QF24":
        # rational fast paths cover most scalars in crystallographic types
        if not (self.b or self.c or self.d):
            a = self.a
            if not a:
                return _ZERO
            if a == 1:
                return other
            return QF24(a * other.a, a * other.b, a * other.c, a * other.d)
        if not (other.b or other.c or other.d):
            e = other.a
            if not e:
                return _ZERO
            if e == 1:
                return self
            return QF24(self.a * e, self.b * e, self.c * e, self.d * e)
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return QF24(
            a * e + 2 * b * f + 3 * c * g + 6 * d * h,
            a * f + b * e + 3 * (c * h + d * g),
            a * g + c * e + 2 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
        )

    def scale(self, r: Rat) -> "QF24":
        r = Fraction(r)
        return QF24(self.a * r, self.b * r, self.c * r, self.d * r)

    def conj_sqrt2(self) -> "QF24":
        return QF24(self.a, -self.b, self.c, -self.d)

    def conj_sqrt3(self) -> "QF24":
        return QF24(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "QF24":
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("QF24 division by zero")
        p = self.conj_sqrt2() * self.conj_sqrt3() * self.conj_sqrt2().conj_sqrt3()
        norm = (self * p).a  # rational: the full Galois norm
        return p.scale(Fraction(1, 1) / norm)

    def __truediv__(self, other: "QF24") -> "QF24":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Zero is decided algebraically; otherwise rational intervals around
        sqrt2/sqrt3/sqrt6 are refined (starting at 128 fractional bits,
        doubling) until the enclosure excludes zero.
        """
        if self.is_zero():
            return 0
        if self.is_rational():
            return -1 if self.a < 0 else 1
        prec = 128
        while True:
            lo, hi = self._interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _interval(self, prec: int) -> tuple[Fraction, Fraction]:
        scale = 1 << prec
        lo = Fraction(self.a)
        hi = Fraction(self.a)
        for coeff, n in ((self.b, 2), (self.c, 3), (self.d, 6)):
            if not coeff:
                continue
            r = isqrt(n * scale * scale)
            root_lo = Fraction(r, scale)
            root_hi = Fraction(r + 1, scale)
            if coeff > 0:
                lo += coeff * root_lo
                hi += coeff * root_hi
            else:
                lo += coeff * root_hi
                hi += coeff * root_lo
        return lo, hi

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5 + float(self.c) * 3 ** 0.5 + float(self.d) * 6 ** 0.5

    def __repr__(self) -> str:
        return f"QF24({self.a}, {self.b}, {self.c}, {self.d})"


_ZERO = QF24(Fraction(0), Fraction(0), Fraction(0), Fraction(0))

ZERO = _ZERO
ONE = QF24.of(1)
