"""One coercion path: a curve's coefficients and a point's coordinates
pass through the curve's ``field``, ``PrimeField.__call__`` is the one
way into F_p, and the field elements share one rule for mixed operands."""

import operator
from fractions import Fraction

import pytest

from halfpoint.curves import Curve, Point
from halfpoint.extfield import ExtElem, ExtField, TowerElem
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


@pytest.mark.parametrize("curve", [Curve(0, 1, Fraction(1, 2)), Curve(0.0, 1, 2)], ids=["Fraction", "float"])
def test_real_curves_refuse_complex_coordinates_with_value_error(curve):
    with pytest.raises(ValueError):
        curve.double(Point(1j, 1))
    with pytest.raises(ValueError):
        curve.add(Point(0, 1), Point(1, 1j))
    with pytest.raises(ValueError):
        curve.scalar_mul(3, Point(1j, 1))


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


# -- mixed operands ------------------------------------------------------------
#
# Every pair among int, F_p, F_{p^2}, F_{p^3} and the towers over the last
# two, on both sides of +, -, *, / and ==.  An operand of a lower type enters
# the other's field; the result has the higher type and the value of the
# same operation on both operands lifted there by hand.

K2 = ExtField(F7, [1, 0, 1])  # X^2 + 1, -1 a non-residue mod 7
K3 = ExtField(F7, [1, 1, 0, 1])  # X^3 + X + 1, no root mod 7
T2 = K2.quadratic_tower()
T3 = K3.quadratic_tower()

SAMPLES = {
    "int": 5,
    "fp": F7(3),
    "ext2": K2([2, 3]),
    "ext3": K3([4, 0, 6]),
    "tower2": T2((K2([1, 2]), K2([0, 5]))),
    "tower3": T3((K3([1, 2, 3]), K3([6, 0, 1]))),
}
FIELDS = {"fp": F7, "ext2": K2, "ext3": K3, "tower2": T2, "tower3": T3}
LEVEL = {"int": 0, "fp": 1, "ext2": 2, "ext3": 2, "tower2": 3, "tower3": 3}
BELOW = {
    "int": set(),
    "fp": {"int"},
    "ext2": {"int", "fp"},
    "ext3": {"int", "fp"},
    "tower2": {"int", "fp", "ext2"},
    "tower3": {"int", "fp", "ext3"},
}
ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
PAIRS = [(a, b) for a in SAMPLES for b in SAMPLES if (a, b) != ("int", "int")]


def _rep(x):
    if isinstance(x, TowerElem):
        return (x.u.coeffs, x.v.coeffs)
    if isinstance(x, ExtElem):
        return x.coeffs
    return x.value


def _operands(ka, kb):
    a, b = SAMPLES[ka], SAMPLES[kb]
    if ka == kb:
        b = b + 1  # a second, nonzero element of the same field
    return a, b


@pytest.mark.parametrize("ka, kb", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
@pytest.mark.parametrize("op", ARITHMETIC, ids=lambda op: op.__name__)
def test_mixed_operand_arithmetic(ka, kb, op):
    a, b = _operands(ka, kb)
    if ka == kb or ka in BELOW[kb] or kb in BELOW[ka]:
        top = FIELDS[ka if LEVEL[ka] >= LEVEL[kb] else kb]
        expected = op(top(a), top(b))
        result = op(a, b)
        assert type(result) is type(expected) is type(top(1))
        assert result.field == top
        assert _rep(result) == _rep(expected)
    else:
        with pytest.raises(ValueError):
            op(a, b)


@pytest.mark.parametrize("ka, kb", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
def test_mixed_operand_equality(ka, kb):
    a, b = _operands(ka, kb)
    assert (a == b) is False and (a != b) is True
    if ka == kb or ka in BELOW[kb] or kb in BELOW[ka]:
        if LEVEL[ka] < LEVEL[kb]:
            lifted = FIELDS[kb](a)
            assert (a == lifted) is True and (lifted == a) is True
            assert (a != lifted) is False and (lifted != a) is False
            assert (a == lifted + 1) is False and (lifted + 1 == a) is False
            if ka != "int":  # an int equals every representative of its residue
                assert hash(a) == hash(lifted) and a in {lifted} and lifted in {a}


def test_mixed_operand_values_by_hand():
    assert _rep(5 - F7(3)) == 2 and _rep(F7(3) / 5) == 2 and _rep(5 / F7(3)) == 4
    assert _rep(F7(3) - K2([2, 3])) == (1, 4) and _rep(K2([2, 3]) - 5) == (4, 3)
    assert _rep(K2([2, 3]) * F7(3)) == (6, 2) and _rep(2 * K3([4, 0, 6])) == (1, 0, 5)
    x = T2((K2([1, 2]), K2([0, 5])))
    assert _rep(K2([2, 3]) + x) == ((3, 5), (0, 5)) and _rep(x - F7(3)) == ((5, 2), (0, 5))
    assert F7(3) == 10 and 10 == F7(3) and K2(3) == F7(10) and T3(4) == K3(-3) == 11


F11 = PrimeField(11)
# elements of another modulus or another field, and the sample kinds each
# one cannot meet (the tower over another F_49 does not take K2 either)
FOREIGN = [
    ("F11", F11(3), {"fp", "ext2", "ext3", "tower2", "tower3"}),
    ("F121", ExtField(F11, [1, 0, 1])([1, 1]), {"fp", "ext2", "ext3", "tower2", "tower3"}),
    ("other-F49", ExtField(F7, [3, 1, 1])([1, 1]), {"ext2", "ext3", "tower2", "tower3"}),
    ("other-tower", ExtField(F7, [3, 1, 1]).quadratic_tower()((1, 1)), {"ext2", "ext3", "tower2", "tower3"}),
]
FOREIGN_CASES = [(name, f, k) for name, f, kinds in FOREIGN for k in sorted(kinds)]


@pytest.mark.parametrize(
    "name, foreign, kind", FOREIGN_CASES, ids=[f"{n}-{k}" for n, _, k in FOREIGN_CASES]
)
def test_elements_of_another_field_do_not_mix(name, foreign, kind):
    x = SAMPLES[kind]
    for op in ARITHMETIC:
        with pytest.raises(ValueError):
            op(x, foreign)
        with pytest.raises(ValueError):
            op(foreign, x)
    assert (x == foreign) is False and (foreign == x) is False
    assert x != foreign and foreign != x


@pytest.mark.parametrize("kind", [k for k in SAMPLES if k != "int"])
@pytest.mark.parametrize("other", [1.5, 1 + 2j, "3"], ids=["float", "complex", "str"])
def test_foreign_python_values_raise_type_error(kind, other):
    x = SAMPLES[kind]
    for op in ARITHMETIC:
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert (x == other) is False and (other == x) is False
