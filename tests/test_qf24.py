"""Exact scalar arithmetic and certified signs."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from rgdkit.qf24 import ONE, QF24, ZERO

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=32)
scalars = st.builds(QF24, rationals, rationals, rationals, rationals)


def test_sign_zero():
    assert QF24.of(0, 0, 0, 0).sign() == 0


def test_sign_sqrt2_minus_one():
    # sqrt2 > 1
    assert QF24.of(-1, 1, 0, 0).sign() == 1


def test_sign_two_sqrt6_minus_five():
    # oracle: compare squares, (2*sqrt6)^2 = 24 < 25 = 5^2
    assert (2 * 2 * 6) < 5 * 5
    assert QF24.of(-5, 0, 0, 2).sign() == -1


def test_sign_needs_refinement():
    # sqrt2 + sqrt3 - sqrt6 * 99/70 is tiny but nonzero (99/70 ~ sqrt2)
    q = QF24.of(0, 1, 1, Fraction(-99, 70))
    assert q.sign() == math.copysign(1, float(q))


def test_mul_table():
    # (sqrt2 * sqrt3) = sqrt6, sqrt2^2 = 2, sqrt3^2 = 3, sqrt6^2 = 6
    s2, s3, s6 = QF24.of(0, 1), QF24.of(0, 0, 1), QF24.of(0, 0, 0, 1)
    assert s2 * s3 == s6
    assert s2 * s2 == QF24.of(2)
    assert s3 * s3 == QF24.of(3)
    assert s6 * s6 == QF24.of(6)
    assert s2 * s6 == QF24.of(0, 0, 2)
    assert s3 * s6 == QF24.of(0, 3)


def test_inverse():
    q = QF24.of(1, 1, 0, 0)  # 1 + sqrt2
    assert q * q.inverse() == ONE
    # classic: 1/(1+sqrt2) = sqrt2 - 1
    assert q.inverse() == QF24.of(-1, 1)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == ZERO


@given(scalars)
def test_sign_consistency(x):
    s = x.sign()
    assert (-x).sign() == -s
    assert (s == 0) == x.is_zero()
    f = float(x)
    if abs(f) > 1e-6:
        assert s == math.copysign(1, f)


@given(scalars, scalars)
def test_division(x, y):
    if y.is_zero():
        return
    assert (x / y) * y == x
