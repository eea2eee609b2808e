from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpoint.exact import isqrt_exact, rational_roots_cubic, rational_sqrt


def test_isqrt_exact_basics():
    assert isqrt_exact(0) == (0, True)
    assert isqrt_exact(1) == (1, True)
    assert isqrt_exact(49) == (7, True)
    assert isqrt_exact(50) == (7, False)
    assert isqrt_exact(10**40) == (10**20, True)


def test_isqrt_exact_rejects_negative():
    with pytest.raises(ValueError):
        isqrt_exact(-4)


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_exact_floor_invariant(n):
    r, exact = isqrt_exact(n)
    assert r * r <= n < (r + 1) * (r + 1)
    assert exact == (r * r == n)


def test_rational_sqrt_values():
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(4, 18)) is None  # 2/9 reduces, 2 not a square
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(8, 18)) == Fraction(2, 3)  # reduces to 4/9


@given(st.fractions(max_denominator=10**6))
def test_rational_sqrt_inverts_squaring(q):
    r = rational_sqrt(q * q)
    assert r == abs(q)


@given(st.fractions(max_denominator=10**4))
def test_rational_sqrt_result_squares_back(q):
    r = rational_sqrt(q)
    if r is not None:
        assert r * r == q and r >= 0


def test_cubic_roots_split_curve():
    # x^3 - 36x: the zero root comes first, then the quadratic pair
    roots = rational_roots_cubic(Fraction(0), Fraction(-36), Fraction(0))
    assert roots == [0, 6, -6]


def test_cubic_no_rational_roots():
    assert rational_roots_cubic(Fraction(0), Fraction(0), Fraction(-2)) == []
    assert rational_roots_cubic(Fraction(0), Fraction(1), Fraction(1)) == []
    assert rational_roots_cubic(Fraction(0), Fraction(17), Fraction(71)) == []


def test_cubic_single_rational_root():
    # (x - 3)(x^2 + 1)
    assert rational_roots_cubic(Fraction(-3), Fraction(1), Fraction(-3)) == [3]


def test_cubic_repeated_root_collapses():
    # (x - 1)^2 (x - 2): distinct roots only
    roots = rational_roots_cubic(Fraction(-4), Fraction(5), Fraction(-2))
    assert sorted(roots) == [1, 2]
    # x (x - 1)^2: the c0 = 0 branch, whose quadratic has the double root
    assert rational_roots_cubic(-2, 1, 0) == [0, 1]


def test_cubic_fractional_roots():
    e = (Fraction(1, 2), Fraction(1, 3), Fraction(-5))
    c2 = -sum(e)
    c1 = e[0] * e[1] + e[1] * e[2] + e[2] * e[0]
    c0 = -e[0] * e[1] * e[2]
    assert sorted(rational_roots_cubic(c2, c1, c0)) == sorted(e)


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30),
       st.fractions(max_denominator=30))
def test_cubic_recovers_vieta_roots(a, b, c):
    c2, c1, c0 = -(a + b + c), a * b + b * c + c * a, -a * b * c
    roots = rational_roots_cubic(c2, c1, c0)
    assert set(roots) == {a, b, c}


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
def test_cubic_roots_satisfy_equation(c2, c1, c0):
    for r in rational_roots_cubic(c2, c1, c0):
        assert r**3 + c2 * r**2 + c1 * r + c0 == 0
