import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpoint.complexcheck import ComplexBackend
from halfpoint.curves import (
    INFINITY,
    Curve,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    depress_shift,
    two_torsion,
)
from halfpoint.primefield import PrimeField

E36 = Curve(0, -36, 0)  # y^2 = x^3 - 36x, fully split over Q


def test_validate_rejects_singular():
    with pytest.raises(SingularCurveError):
        Curve(0, 0, 0).validate()
    with pytest.raises(SingularCurveError):
        Curve(0, -3, 2).validate()  # (x-1)^2 (x+2)
    E36.validate()


def test_form_classification():
    assert E36.form == "A46"
    assert Curve(3, -2, 0).form == "A24"
    assert Curve(1, 1, 3).form == "general"


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_discriminant_of_split_cubic(e0, e1, e2):
    c2 = -(e0 + e1 + e2)
    c1 = e0 * e1 + e1 * e2 + e2 * e0
    c0 = -e0 * e1 * e2
    want = ((e0 - e1) * (e1 - e2) * (e2 - e0)) ** 2
    assert Curve(c2, c1, c0).discriminant() == want


def test_contains_and_require():
    assert E36.contains(Point(-3, 9))
    assert E36.contains(INFINITY)
    assert not E36.contains(Point(1, 1))
    with pytest.raises(PointNotOnCurveError):
        E36.require_point(Point(1, 1))


def test_double_reference_points():
    assert E36.double(Point(-3, 9)) == Point(Fraction(25, 4), Fraction(-35, 8))
    # a different half of the same point doubles to the same place
    assert E36.double(Point(18, -72)) == Point(Fraction(25, 4), Fraction(-35, 8))
    # doubling a point of order 2 lands at infinity
    assert E36.double(Point(6, 0)) is INFINITY


def test_int_coordinates_stay_exact():
    Q = E36.double(Point(18, -72))
    assert isinstance(Q.x, Fraction) and isinstance(Q.y, Fraction)


def test_add_identity_and_inverse():
    P = Point(-3, 9)
    assert E36.add(INFINITY, P) == P
    assert E36.add(P, INFINITY) == P
    assert E36.add(INFINITY, INFINITY) is INFINITY
    assert E36.add(P, E36.neg(P)) is INFINITY


def test_add_off_curve_rejected():
    with pytest.raises(PointNotOnCurveError):
        E36.add(Point(1, 1), Point(-3, 9))


@given(st.integers(1, 30), st.integers(-20, 20), st.integers(-20, 20))
def test_a24_doubling_closed_form(x, y, a2):
    # put a curve y^2 = x^3 + a2 x^2 + a4 x through (x, y), then check the
    # textbook duplication formula for the a6 = 0 shape
    x, y = Fraction(x), Fraction(y)
    a4 = (y * y - x**3 - a2 * x * x) / x
    curve = Curve(a2, a4, 0)
    if not curve.discriminant() or y == 0:
        return
    D = curve.double(Point(x, y))
    denom = 4 * x * (x * x + a2 * x + a4)
    assert denom == 4 * y * y / x * x  # sanity: denom = 4 y^2
    assert D.x == (x * x - a4) ** 2 / denom


def _points_mod(p, curve, limit):
    fp = PrimeField(p)
    out = []
    for x in range(p):
        for y in range(p):
            if fp(y) * fp(y) == curve.rhs(fp(x)):
                out.append(Point(fp(x), fp(y)))
                if len(out) >= limit:
                    return out
    return out


def test_group_law_axioms_mod_p():
    p = 61
    fp = PrimeField(p)
    curve = Curve(fp(2), fp(3), fp(7)).validate()
    pts = _points_mod(p, curve, 12) + [INFINITY]
    for P in pts:
        for Q in pts:
            assert curve.add(P, Q) == curve.add(Q, P)
    for P in pts[:6]:
        for Q in pts[:6]:
            for R in pts[:6]:
                lhs = curve.add(curve.add(P, Q), R)
                assert lhs == curve.add(P, curve.add(Q, R))


def test_scalar_mul_matches_repeated_addition():
    acc = INFINITY
    P = Point(-3, 9)
    for n in range(8):
        assert E36.scalar_mul(n, P) == acc
        acc = E36.add(acc, P)
    assert E36.scalar_mul(-3, P) == E36.neg(E36.scalar_mul(3, P))


def test_two_torsion_over_q():
    assert two_torsion(E36) == [Point(-6, 0), Point(0, 0), Point(6, 0)]
    assert two_torsion(Curve(0, 17, 71)) == []


def test_two_torsion_mod_p():
    fp = PrimeField(11)
    pts = two_torsion(Curve(fp(0), fp(1), fp(0)))  # x^3 + x = x(x^2 + 1)
    assert pts == [Point(fp(0), fp(0))]
    for T in pts:
        assert Curve(fp(0), fp(1), fp(0)).double(T) is INFINITY


def test_depress_shift_moves_root_to_zero():
    curve = Curve(-6, 11, -6)  # roots 1, 2, 3
    shifted, s = depress_shift(curve)
    assert s == 1
    assert (shifted.a2, shifted.a4, shifted.a6) == (-3, 2, 0)
    # x -> x + s as a polynomial identity, checked at more points than the degree
    for x in map(Fraction, (-2, 0, 1, 7, Fraction(5, 3))):
        assert curve.rhs(x) == shifted.rhs(x - s)


def test_depress_shift_without_rational_root():
    curve = Curve(1, 0, 2)  # x^3 + x^2 + 2 has no rational roots
    shifted, s = depress_shift(curve)
    assert s == Fraction(-1, 3)
    assert shifted.a2 == 0
    for x in map(Fraction, (-1, 0, 2, 5)):
        assert curve.rhs(x) == shifted.rhs(x - s)


def test_depress_shift_keeps_supported_forms():
    for curve in (E36, Curve(3, -2, 0)):
        shifted, s = depress_shift(curve)
        assert s == 0 and shifted == curve


def test_complex_contains_is_tolerant():
    curve = Curve(0.0, -36.0, 0.0)
    assert not curve.exact
    assert curve.contains(Point(6.25, -4.375 + 1e-12))
    assert not curve.contains(Point(6.25, -4.2))


def _cubic_through(roots):
    # coefficients of (x - r0)(x - r1)(x - r2), complex unless the roots
    # are real or a conjugate pair with a real third
    r0, r1, r2 = roots
    coeffs = (-(r0 + r1 + r2), r0 * r1 + r1 * r2 + r2 * r0, -(r0 * r1 * r2))
    if all(abs(c.imag) == 0 for c in map(complex, coeffs)):
        coeffs = tuple(complex(c).real for c in coeffs)
    return Curve(*coeffs)


def _assert_same_roots(got, want, rel=1e-12):
    # multisets: sorting by (real, imag) puts tied real parts in either order
    scale = max(1.0, *(abs(w) for w in want))
    left = list(got)
    assert len(left) == len(want)
    for w in want:
        nearest = min(left, key=lambda g: abs(g - w))
        assert abs(nearest - w) <= rel * scale, (got, want)
        left.remove(nearest)


def test_two_torsion_over_c_recovers_known_roots():
    cases = [
        (2.0, 1 + 3j, 1 - 3j),  # conjugate pair: real coefficients
        (-6.0, 0.0, 6.0),
        (1 + 2j, -0.5 + 1j, 3 - 4j),
        (1e3, -2e3j, 5.0),
        (0.25j, -0.25j, 0.5),  # conjugate pair, tied real parts
    ]
    rng = random.Random(11)
    for _ in range(200):
        r0 = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        r1 = complex(rng.uniform(-20, 20), rng.uniform(0.5, 20))
        cases.append((r0, r1, r1.conjugate()) if rng.random() < 0.5 else
                     (r0, r1, complex(rng.uniform(-20, 20), rng.uniform(-20, 20))))
    for roots in cases:
        curve = _cubic_through(roots)
        pts = two_torsion(curve)
        assert all(T.y == 0 for T in pts)
        _assert_same_roots([T.x for T in pts], roots)
        # the promised order: ascending real part, then imaginary part
        xs = [T.x for T in pts]
        assert all(a.real <= b.real for a, b in zip(xs, xs[1:]))


def test_depress_shift_general_complex_curve():
    curve = Curve(1 + 2j, 3 - 1j, 2 + 0.5j)
    shifted, s = depress_shift(curve)
    assert abs(curve.rhs(s)) <= 1e-12 * (1 + abs(s) ** 3)
    assert abs(shifted.a6) <= 1e-12 * (1 + abs(s) ** 3)
    assert abs(shifted.a2 - (curve.a2 + 3 * s)) <= 1e-12 * (1 + abs(s))
    for x in (0, 1.5, -2 + 1j, 3j, 4 - 4j):
        assert abs(curve.rhs(x) - shifted.rhs(x - s)) <= 1e-12 * (1 + abs(x) ** 3 + abs(s) ** 3)


@pytest.mark.parametrize("curve", [Curve(1 + 2j, 3 - 1j, 2 + 0.5j), Curve(-6.0, 11.0, -6.0)])
def test_depress_shift_over_c_reaches_a24(curve):
    # the shift s is a root, so the shifted a6 is exactly zero
    shifted, s = depress_shift(curve)
    assert shifted.a6 == 0 and shifted.form == "A24"
    roots = ComplexBackend.root_triple(shifted)
    for e in (roots.e0, roots.e1, roots.e2):
        x = e + s
        scale = abs(x) ** 3 + abs(curve.a2 * x * x) + abs(curve.a4 * x) + abs(curve.a6)
        assert abs(curve.rhs(x)) <= 1e-12 * scale
