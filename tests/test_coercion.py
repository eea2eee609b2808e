"""One coercion path: a curve's coefficients and a point's coordinates
pass through the curve's ``field``, and ``PrimeField.__call__`` is the one
way into F_p."""

from fractions import Fraction

import pytest

from halfpoint.curves import Curve, Point
from halfpoint.extfield import ExtField
from halfpoint.halving_fp import FpHalvingField, enumerate_points
from halfpoint.primefield import PrimeField

F7 = PrimeField(7)


def test_prime_field_takes_ints_and_integral_fractions():
    for value in (3, 10, -4, Fraction(3), Fraction(-11), Fraction(14, 2), True):
        e = F7(value)
        assert type(e.value) is int and e.value == int(value) % 7
    e = F7(5)
    assert F7(e) is e
    assert PrimeField(7)(e) is e  # another instance of the same field


@pytest.mark.parametrize("value", [Fraction(1, 2), 2.5, 3.0, "3", 3 + 0j, None, PrimeField(11)(3)])
def test_prime_field_refuses_everything_else(value):
    with pytest.raises(ValueError):
        F7(value)


def test_curve_field_rule():
    assert Curve(0, 1, Fraction(1, 2)).field is Fraction
    assert Curve(F7(0), 1, 1).field is F7
    assert Curve(0, F7(1), 1).field is F7
    assert Curve(0.0, 1, Fraction(1, 2)).field is float
    assert Curve(0.0, 1j, 1).field is complex
    K = ExtField(F7, [1, 0, 1])
    assert Curve(0, K.gen(), 1).field is K
    assert Curve(1, 2, 3).exact and Curve(F7(1), 2, 3).exact
    assert not Curve(1.0, 2, 3).exact and not Curve(1j, 2, 3).exact


def test_curve_coefficients_live_in_one_field():
    curve = Curve(F7(0), 1, Fraction(3))
    assert all(c.field is F7 for c in (curve.a2, curve.a4, curve.a6))
    assert (curve.a2, curve.a4, curve.a6) == (0, 1, 3)
    with pytest.raises(ValueError):
        Curve(F7(0), 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        Curve(F7(0), 1, 0.5)
    curve = Curve(0.0, -36, Fraction(1, 2))
    assert all(type(c) is float for c in (curve.a2, curve.a4, curve.a6))
    assert curve.a6 == 0.5
    curve = Curve(0j, -36.0, 1)
    assert all(type(c) is complex for c in (curve.a2, curve.a4, curve.a6))


def test_curve_points_pass_through_the_field():
    curve = Curve(F7(0), 1, 1)  # y^2 = x^3 + x + 1: (0, 1) lies on it
    D = curve.double(Point(Fraction(0), Fraction(8)))
    assert D == curve.double(Point(0, 1)) == curve.double(Point(F7(0), F7(1)))
    with pytest.raises(ValueError):
        curve.double(Point(Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        curve.add(Point(0, 1), Point(PrimeField(11)(0), 1))


def test_ext_field_list_coefficients_go_through_the_base_field():
    K = ExtField(F7, [1, 0, 1])
    assert K([Fraction(8), -1]) == K([1, 6]) == K([F7(1), F7(6)])
    with pytest.raises(ValueError):
        K([Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        K([1, 0.5])


def test_halve_takes_integral_fraction_coordinates():
    ctx = FpHalvingField(11, Curve(0, 1, 2))
    for P in enumerate_points(11, ctx.curve)[1:]:
        x, y = int(P.x), int(P.y)
        assert ctx.halve(Point(Fraction(x), Fraction(y))) == ctx.halve(Point(x, y))
        assert ctx.halve(Point(Fraction(x + 11), y - 22)) == ctx.halve(Point(x, y))


@pytest.mark.parametrize("P", [Point(0.5, 1), Point(Fraction(1, 2), 1), Point(0, "1")])
def test_halve_refuses_coordinates_outside_fp(P):
    ctx = FpHalvingField(7, Curve(0, 1, 1))
    with pytest.raises(ValueError):
        ctx.halve(P)


def test_fp_context_shares_the_curve_field():
    curve = Curve(F7(0), F7(1), F7(1))
    ctx = FpHalvingField(7, curve)
    assert ctx.fp is ctx.curve.field is F7
    assert FpHalvingField(7, Curve(0, 1, 1)).curve == curve


def test_ext_field_scalars_go_through_the_base_field():
    K = ExtField(F7, [1, 0, 1])
    assert K(Fraction(3)) == K(Fraction(10)) == K(3) == K(F7(3))
    assert K(Fraction(-14, 2)) == K(0)
    for value in (Fraction(1, 2), 0.5, 3.0, 3 + 0j, None, PrimeField(11)(3)):
        with pytest.raises(ValueError):
            K(value)


def test_ext_curve_coordinates_pass_through_the_base_field():
    K = ExtField(F7, [1, 0, 1])
    curve = Curve(0, K.gen(), 1)  # y^2 = x^3 + Xx + 1: (0, 1) lies on it
    assert curve.double(Point(Fraction(0), Fraction(8))) == curve.double(Point(0, 1))
    with pytest.raises(ValueError):
        curve.double(Point(0.5, 1))
