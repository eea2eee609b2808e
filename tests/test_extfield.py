import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpoint import extfield
from halfpoint.extfield import (
    NONRESIDUE_DRAWS,
    ExtElem,
    ExtField,
    TowerElem,
    TowerField,
    choose_nonresidue,
    ext_sqrt,
    frobenius,
    in_base_field,
    project_to_fp,
    sqrt_in_tower,
)
from halfpoint.primefield import PrimeField, _pmod, _pmul, legendre, tonelli_shanks

F7 = PrimeField(7)
F11 = PrimeField(11)
K2 = ExtField(F11, [9, 0, 1])  # X^2 - 2, 2 a non-residue mod 11
K3 = ExtField(F7, [5, 0, 0, 1])  # X^3 - 2, 2 not a cube mod 7


def test_construction_rejects_reducible():
    with pytest.raises(ValueError):
        ExtField(F11, [10, 0, 1])  # X^2 - 1 = (X-1)(X+1)
    with pytest.raises(ValueError):
        ExtField(F7, [6, 0, 0, 1])  # X^3 - 1 has the root 1
    with pytest.raises(ValueError):
        ExtField(F7, [1, 1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        ExtField(F7, [1, 0, 0, 0, 1])  # degree 4 unsupported


def test_call_coerces_ints_fp_and_lists():
    assert K2(13) == K2([2])
    assert K2(F11(4)) == K2([4, 0])
    assert K2([1, 2]) + K2([3, 4]) == K2([4, 6])
    with pytest.raises(ValueError):
        K2([1, 2, 3])
    with pytest.raises(ValueError):
        K2(PrimeField(13)(1))


def test_quadratic_multiplication_by_hand():
    # (a + bX)(c + dX) = ac + 2bd + (ad + bc)X when X^2 = 2
    a, b, c, d = 3, 5, 4, 9
    prod = K2([a, b]) * K2([c, d])
    assert prod == K2([(a * c + 2 * b * d) % 11, (a * d + b * c) % 11])


def test_pow_and_inverse():
    x = K3([1, 2, 3])
    assert x ** 0 == K3.one()
    assert x ** 5 == x * x * x * x * x
    assert x * x.inverse() == K3.one()
    assert x ** -2 == (x * x).inverse()
    assert x ** (K3.order - 1) == K3.one()  # Lagrange
    with pytest.raises(ZeroDivisionError):
        K3.zero().inverse()


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
       st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_field_axioms_quadratic(a0, a1, b0, b1, c0, c1):
    a, b, c = K2([a0, a1]), K2([b0, b1]), K2([c0, c1])
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    if a:
        assert (b / a) * a == b


def test_frobenius_is_a_field_automorphism():
    a, b = K3([1, 2, 3]), K3([6, 0, 4])
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)
    # order of the automorphism is the extension degree
    assert frobenius(frobenius(frobenius(a))) == a
    assert frobenius(frobenius(K2([3, 8]))) == K2([3, 8])


def test_frobenius_fixed_field_is_the_base():
    for c in range(11):
        assert in_base_field(K2(c))
    assert not in_base_field(K2.gen())
    assert not in_base_field(K3([0, 1, 1]))


def test_project_to_fp():
    assert project_to_fp(K2(9)) == F11(9)
    assert project_to_fp(K2.gen()) is None
    assert project_to_fp(F11(3)) == F11(3)
    tower = K2.quadratic_tower()
    assert project_to_fp(tower(K2(5))) == F11(5)
    assert project_to_fp(tower.gen()) is None
    # structural test agrees with the Frobenius one on every small element
    for c0, c1 in itertools.product(range(11), repeat=2):
        a = K2([c0, c1])
        assert (project_to_fp(a) is not None) == in_base_field(a)


def test_choose_nonresidue_is_a_nonresidue():
    for field in (K2, K3, K2.quadratic_tower()):
        ns = choose_nonresidue(field)
        q = field.order
        assert ns ** ((q - 1) // 2) != field.one()
        assert choose_nonresidue(field) == ns  # deterministic


def _all_elements(field):
    p, d = field.p, field.degree
    for coeffs in itertools.product(range(p), repeat=d):
        yield field(list(coeffs))


def test_ext_sqrt_exhaustive_quadratic():
    # q = 121 = 1 mod 4: the Tonelli-Shanks path
    squares = {}
    for a in _all_elements(K2):
        squares.setdefault(a * a, a)
    found = 0
    for a in _all_elements(K2):
        r = ext_sqrt(a)
        if a in squares:
            assert r * r == a
            assert r.coeffs <= (-r).coeffs  # canonical: lex-min of the pair
            found += 1
        else:
            assert r is None
    assert found == (121 - 1) // 2 + 1


def test_ext_sqrt_exhaustive_cubic_3mod4():
    # q = 27 = 3 mod 4: the single-exponentiation path
    F3 = PrimeField(3)
    K = ExtField(F3, [1, 2, 0, 1])  # X^3 + 2X + 1, irreducible mod 3
    squares = {a * a for a in _all_elements(K)}
    for a in _all_elements(K):
        r = ext_sqrt(a)
        if a in squares:
            assert r * r == a
        else:
            assert r is None


def test_sqrt_in_tower_is_total():
    tower = K2.quadratic_tower()
    for a in _all_elements(K2):
        s = sqrt_in_tower(a)
        assert isinstance(s, TowerElem)
        assert s * s == tower(a)


def test_tower_arithmetic_and_inverse():
    tower = K3.quadratic_tower()
    y = tower.gen()
    assert y * y == tower(tower.ns)
    a = tower((K3([1, 2, 3]), K3([4, 5, 6])))
    b = tower((K3([6, 1, 0]), K3([0, 2, 5])))
    assert a * (b + 1) == a * b + a
    assert a * a.inverse() == tower(1)
    assert a ** 3 == a * a * a
    assert frobenius(a) != a and a ** tower.order == a  # q-th power fixes all


def test_degree_one_wrapper_roundtrip():
    K1 = ExtField(F11, [0, 1])
    assert K1.degree == 1 and K1.order == 11
    a = K1(7)
    assert project_to_fp(a) == F11(7)
    assert in_base_field(a)
    assert ext_sqrt(K1(3)) is not None  # 3 = 5^2 mod 11


# -- the generic formulas the fast paths replaced, kept as their reference ----


def _ref_mul(a, b):
    # schoolbook product, then the remainder by the modulus, on lists
    field = a.field
    p, d = field.p, field.degree
    prod = _pmod(_pmul(list(a.coeffs), list(b.coeffs), p), list(field.modulus), p)
    return ExtElem(field, tuple(prod + [0] * (d - len(prod))))


def _ref_pow(a, e):
    result, base = a.field.one(), a
    while e:
        if e & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        e >>= 1
    return result


def _euler_choose_nonresidue(field):
    # the full scan, constants included in every degree, with Euler's
    # criterion a^((q-1)/2) per candidate
    q, one = field.order, field.one()

    def is_nonresidue(a):
        return bool(a) and a ** ((q - 1) // 2) != one

    for c in range(2, min(field.p, 258)):
        if is_nonresidue(field(c)):
            return field(c)
    if isinstance(field, TowerField):
        small = [field((c, 1)) for c in range(0, min(field.p, 258))]
    elif field.degree >= 2:
        small = [field([c, 1]) for c in range(0, min(field.p, 258))]
    else:
        small = []
    return next(a for a in small if is_nonresidue(a))


def _canonical(r):
    key = (lambda x: x.u.coeffs + x.v.coeffs) if isinstance(r, TowerElem) else (lambda x: x.coeffs)
    return min(r, -r, key=key)


def _first_irreducible(p, degree):
    # X^D + bX + c for the first (c, b) that is irreducible, b != 0 so that
    # the D = 2 root exercises the shift by b
    if degree == 1:
        return ExtField(p, [0, 1])
    for c in range(1, p):
        for b in range(1, p):
            try:
                return ExtField(p, [c, b] + [0] * (degree - 2) + [1])
            except ValueError:
                pass
    raise ValueError("no irreducible modulus found")


# p = 3 mod 4 and p = 1 mod 4, 2-adicity up to 12 (12289), then the
# benchmark primes: 54-bit (3 mod 4), Goldilocks (2-adicity 32), 2^127 - 1
# (its D = 2 field has 2-adicity 128) and 2^255 - 19
DIFF_PRIMES = (3, 5, 7, 13, 257, 12289, 17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1, 2**255 - 19)
DIFF_FIELDS = [_first_irreducible(p, d) for p in DIFF_PRIMES for d in (1, 2, 3)]
DIFF_IDS = [f"{f.p.bit_length()}bit.p{f.p % 4}mod4.d{f.degree}" for f in DIFF_FIELDS]
differential = pytest.mark.parametrize("field", DIFF_FIELDS, ids=DIFF_IDS)
few = settings(max_examples=8, deadline=None)


def _draw(data, field):
    coeffs = data.draw(st.lists(st.integers(0, field.p - 1), min_size=field.degree, max_size=field.degree))
    return field(coeffs)


def _draw_tower(data, field):
    tower = field.quadratic_tower()
    return tower((_draw(data, field), _draw(data, field)))


@differential
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_straight_line_mul_matches_generic_reduction(field, data):
    a, b = _draw(data, field), _draw(data, field)
    assert a * b == _ref_mul(a, b)
    assert a * a == _ref_mul(a, a)
    assert a ** 5 == _ref_pow(a, 5)


@differential
@few
@given(data=st.data())
def test_frobenius_matrix_matches_pth_power(field, data):
    a, t = _draw(data, field), _draw_tower(data, field)
    assert frobenius(a) == _ref_pow(a, field.p)
    assert frobenius(t) == t ** field.p


@differential
@few
@given(data=st.data())
def test_norm_gate_matches_euler_criterion(field, data):
    for a in (_draw(data, field), _draw_tower(data, field)):
        q = a.field.order
        euler = a ** ((q - 1) // 2) if isinstance(a, TowerElem) else _ref_pow(a, (q - 1) // 2)
        assert extfield._is_square(a) == (not a or euler == a.field.one())
        assert (ext_sqrt(a) is not None) == extfield._is_square(a)


@differential
@few
@given(data=st.data())
def test_norm_inverse_matches_fermat(field, data):
    a = _draw(data, field)
    if a:
        assert a.inverse() == _ref_pow(a, field.order - 2)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@differential
@few
@given(data=st.data())
def test_roots_match_tonelli_shanks(field, data):
    # every branch of ext_sqrt against Tonelli-Shanks in the element's own field
    for x in (_draw(data, field), _draw_tower(data, field)):
        a = x * x
        r = ext_sqrt(a)
        if not a:
            assert r == a
            continue
        ref = tonelli_shanks(a, a.field.order, a.field.nonresidue())
        assert r == _canonical(ref)


def test_choose_nonresidue_matches_the_euler_scan():
    wide = _first_irreducible(2**127 - 1, 2)
    for field in (K2, K3, K2.quadratic_tower(), K3.quadratic_tower(), wide, ExtField(2**127 - 1, [1, 0, 1])):
        assert choose_nonresidue(field) == _euler_choose_nonresidue(field)


def test_choose_nonresidue_gives_up_after_capped_draws(monkeypatch):
    towers = [K2.quadratic_tower(), K3.quadratic_tower()]
    calls = []

    def always_square(a):
        calls.append(a)
        return True

    monkeypatch.setattr(extfield, "_is_square", always_square)
    for field in [K2, K3] + towers:
        calls.clear()
        with pytest.raises(ArithmeticError, match="non-residue"):
            choose_nonresidue(field)
        assert len(calls) <= 2 * 258 + NONRESIDUE_DRAWS


# D = 2 and D = 3 over 5, 13 (both 5 mod 8), 10007 (3 mod 4) and the benchmark primes,
# with their towers
GATE_PRIMES = (5, 13, 10007, 17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1, 2**255 - 19)
GATE_FIELDS = [_first_irreducible(p, d) for p in GATE_PRIMES for d in (2, 3)]
GATE_IDS = [f"{f.p.bit_length()}bit.d{f.degree}" for f in GATE_FIELDS]


@pytest.mark.parametrize("field", GATE_FIELDS, ids=GATE_IDS)
@few
@given(data=st.data())
def test_ext_sqrt_is_none_exactly_on_non_squares(field, data):
    # ext_sqrt has no residuosity gate of its own: its None must still match
    # the norm criterion, on random elements, squares and non-squares
    for x in (_draw(data, field), _draw_tower(data, field)):
        ns = x.field.nonresidue()
        for a in (x, x * x, x * x * ns):
            r = ext_sqrt(a)
            assert (r is None) == (not extfield._is_square(a))
            if r is not None:
                assert r * r == a and r == _canonical(r)
        if x:
            assert ext_sqrt(x * x * ns) is None


def _residue_first_sqrt_in_tower(a):
    # the former order: the root in the field itself, then the root of a/ns
    tower = a.field.quadratic_tower()
    s = ext_sqrt(a)
    if s is not None:
        return tower(s)
    return TowerElem(tower, a.field.zero(), ext_sqrt(a / tower.ns))


@pytest.mark.parametrize("field", GATE_FIELDS, ids=GATE_IDS)
@few
@given(data=st.data())
def test_sqrt_in_tower_order_keeps_its_roots(field, data):
    # the root of a/ns is tried first now; residues, non-residues and zero
    # get the same root, representation included
    x = _draw(data, field)
    ns = field.nonresidue()
    for a in (field.zero(), x, x * x, x * x * ns):
        r = sqrt_in_tower(a)
        ref = _residue_first_sqrt_in_tower(a)
        assert (r.u.coeffs, r.v.coeffs) == (ref.u.coeffs, ref.v.coeffs)
        assert r * r == a.field.quadratic_tower()(a)


def _tower_pow_reference(a, e):
    # square-and-multiply on tower elements, the inverse first for e < 0
    if e < 0:
        a, e = a.inverse(), -e
    result, base = a.field.one(), a
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def _tower_key(r):
    return (r.u.coeffs, r.v.coeffs)


POW_TOWERS = [_first_irreducible(p, d).quadratic_tower() for p in (10007, 2**127 - 1) for d in (1, 2, 3)]


def _tower_exponents(tower):
    # both sides of the 24-, 80- and 240-bit window thresholds, the order
    ks = (23, 24, 25, 79, 80, 81, 239, 240, 241)
    plus = {0, 1, 2, tower.order, *(1 << k for k in ks), *((1 << k) - 1 for k in ks)}
    return sorted(plus) + [-1, -2, -(1 << 24) + 1, -(1 << 80), -tower.order]


@pytest.mark.parametrize(
    "tower", POW_TOWERS, ids=[f"{t.p.bit_length()}bit.d{t.ext.degree}" for t in POW_TOWERS]
)
def test_tower_pow_matches_square_and_multiply(tower):
    ext, d = tower.ext, tower.ext.degree
    a = tower((ext([3, 1, 4][:d]), ext([1, 5, 9][:d])))
    b = tower((ext([2, 7, 1][:d]), ext.zero()))  # in the field below
    for x in (a, b):
        for e in _tower_exponents(tower):
            r = x ** e
            assert type(r) is TowerElem and r.field is tower
            assert _tower_key(r) == _tower_key(_tower_pow_reference(x, e)), e
        assert x ** tower.order == x and x ** 0 == 1
    assert tower.zero() ** 5 == 0 and tower.zero() ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        tower.zero() ** -1
