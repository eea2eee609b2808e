import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpoint import curves
from halfpoint.curves import (
    INFINITY,
    Curve,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
)
from halfpoint.halving_fp import FpHalvingField
from halfpoint.halving_q import SplitCurveQ
from halfpoint.primefield import PrimeField

E36 = Curve(0, -36, 0)  # y^2 = x^3 - 36x, fully split over Q


def test_validate_rejects_singular():
    with pytest.raises(SingularCurveError):
        Curve(0, 0, 0).validate()
    with pytest.raises(SingularCurveError):
        Curve(0, -3, 2).validate()  # (x-1)^2 (x+2)
    E36.validate()


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
    # the order-2 points come from the halving context; the group law
    # sends each to infinity
    split = SplitCurveQ.from_coefficients(0, -36, 0)
    assert split.two_torsion() == [Point(-6, 0), Point(0, 0), Point(6, 0)]
    for T in split.two_torsion():
        assert E36.double(T) is INFINITY
    with pytest.raises(ValueError):
        SplitCurveQ.from_coefficients(0, 17, 71)  # x^3 + 17x + 71 has no rational root


def test_two_torsion_mod_p():
    fp = PrimeField(11)
    curve = Curve(fp(0), fp(1), fp(0))  # x^3 + x = x(x^2 + 1)
    pts = FpHalvingField(11, curve).two_torsion()
    assert pts == [Point(fp(0), fp(0))]
    for T in pts:
        assert curve.double(T) is INFINITY


def test_complex_contains_is_tolerant():
    curve = Curve(0.0, -36.0, 0.0)
    assert not curve.exact
    assert curve.contains(Point(6.25, -4.375 + 1e-12))
    assert not curve.contains(Point(6.25, -4.2))


def test_curves_imports_no_halfpoint_module():
    # the group law finds no roots, so it needs no other module of the package
    for node in ast.walk(ast.parse(Path(curves.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert not node.level and not node.module.startswith("halfpoint"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("halfpoint") for a in node.names), ast.unparse(node)
