"""Cubic factoring on the straight-line residue arithmetic, against the
list-polynomial route it replaced, plus the windowed exponentiation and
ExtField's irreducibility check built on the same X^p."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpoint import extfield, primefield
from halfpoint.extfield import ExtField
from halfpoint.primefield import PrimeField, _mul_fn, _pow_coeffs, cubic_roots_fp, legendre

BENCH_PRIMES = (17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1, 2**255 - 19)


# -- the list-polynomial route, kept as the reference --------------------------


def _ppowmod(base, e, mod, p):
    result = [1]
    base = primefield._pmod(base, mod, p)
    while e:
        if e & 1:
            result = primefield._pmod(primefield._pmul(result, base, p), mod, p)
        base = primefield._pmod(primefield._pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _ref_cubic_roots_fp(c2, c1, c0, seed=0):
    field = c2.field
    p = field.p
    f = [c0.value, c1.value, c2.value, 1]
    psub, pgcd, quadratic = primefield._psub, primefield._pgcd, primefield._quadratic_roots_fp

    xp = _ppowmod([0, 1], p, f, p)
    linear_part = pgcd(psub(xp, [0, 1], p), f, p)

    roots = []
    deg = len(linear_part) - 1 if linear_part else 0
    if deg == 1:
        roots = [field(-linear_part[0])]
    elif deg == 2:
        roots = quadratic(field(linear_part[1]), field(linear_part[0]))
    elif deg == 3:
        rng = random.Random(seed)
        g = linear_part
        for _ in range(primefield._SPLIT_DRAWS):
            h = _ppowmod([rng.randrange(p), 1], (p - 1) // 2, g, p)
            u = pgcd(psub(h, [1], p), g, p)
            if 1 <= len(u) - 1 <= 2:
                break
        else:
            raise ArithmeticError(
                f"no splitting of the cubic in {primefield._SPLIT_DRAWS} random draws; is the modulus prime?"
            )
        if len(u) - 1 == 1:
            r0 = field(-u[0])
        else:
            split = quadratic(field(u[1]), field(u[0]))
            if not split:
                raise ArithmeticError("split-off quadratic has no roots; is the modulus prime?")
            r0 = split[0]
        b = field(g[2]) + r0
        c = field(g[1]) + r0 * b
        roots = [r0] + quadratic(b, c)

    roots = sorted(set(roots), key=int)
    mult_total = 0
    rem = f
    for r in roots:
        while True:
            quot, acc = [], 0
            for coef in reversed(rem):
                acc = (acc * r.value + coef) % p
                quot.append(acc)
            if quot[-1] != 0:
                break
            rem = list(reversed(quot[:-1]))
            mult_total += 1
    if mult_total == 2:
        raise ArithmeticError("degree-1 cofactor escaped the root scan")
    degrees = tuple(sorted([1] * mult_total + ([3 - mult_total] if mult_total < 3 else [])))
    return roots, degrees


def _outcome(fn, coeffs, seed):
    # the result as ints, or the error as (type, message)
    try:
        roots, degrees = fn(*coeffs, seed=seed)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [int(r) for r in roots], degrees


def _draw_cubic(data, p):
    # a random cubic, or one built from drawn roots so that every shape,
    # the full split and double roots included, is reached at every size
    F = PrimeField(p)
    if data.draw(st.booleans()):
        return tuple(F(data.draw(st.integers(0, p - 1))) for _ in range(3))
    r1, r2, r3 = (F(data.draw(st.integers(0, p - 1))) for _ in range(3))
    if data.draw(st.booleans()):
        r3 = r2
    return -(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -(r1 * r2 * r3)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((5, 7, 13, 10007) + BENCH_PRIMES), seed=st.integers(0, 5), data=st.data())
def test_cubic_roots_match_list_polynomial_route(p, seed, data):
    coeffs = _draw_cubic(data, p)
    assert _outcome(cubic_roots_fp, coeffs, seed) == _outcome(_ref_cubic_roots_fp, coeffs, seed)


def test_cubic_roots_match_list_polynomial_route_on_every_small_cubic():
    for p in (5, 7):
        F = PrimeField(p)
        for coeffs in itertools.product(range(p), repeat=3):
            cubic = tuple(F(c) for c in coeffs)
            for seed in (0, 1):
                assert _outcome(cubic_roots_fp, cubic, seed) == _outcome(_ref_cubic_roots_fp, cubic, seed)


COMPOSITES = (9, 15, 21, 25, 33, 35, 45, 49, 55, 63, 77, 91, 1001)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(COMPOSITES), seed=st.integers(0, 5), data=st.data())
def test_cubic_roots_errors_match_on_composite_moduli(p, seed, data):
    # on a composite modulus both routes return the same thing or fail the
    # same way: the same exception type with the same message
    coeffs = _draw_cubic(data, p)
    assert _outcome(cubic_roots_fp, coeffs, seed) == _outcome(_ref_cubic_roots_fp, coeffs, seed)


@pytest.mark.parametrize("p, coeffs", [(25, (7, 7, 24)), (55, (0, 0, 1))])
def test_composite_examples_fail_alike(p, coeffs):
    # the split-off check (mod 25) and the square-root postcondition (mod 55)
    F = PrimeField(p)
    cubic = tuple(F(c) for c in coeffs)
    outcome = _outcome(cubic_roots_fp, cubic, 0)
    assert outcome == _outcome(_ref_cubic_roots_fp, cubic, 0)
    assert outcome[0] is ArithmeticError


# -- ExtField: one X^p decides irreducibility --------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_ext_field_accepts_exactly_the_irreducible_cubics(p):
    F = PrimeField(p)
    accepted = 0
    for c0, c1, c2 in itertools.product(range(p), repeat=3):
        _, degrees = cubic_roots_fp(F(c2), F(c1), F(c0))
        try:
            ExtField(F, [c0, c1, c2, 1])
        except ValueError:
            assert degrees != (3,), (c0, c1, c2)
        else:
            assert degrees == (3,), (c0, c1, c2)
            accepted += 1
    assert accepted == (p**3 - p) // 3  # the monic irreducible cubics over F_p


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ext_field_accepts_exactly_the_irreducible_quadratics(p):
    # X^2 + bX + c is irreducible iff its discriminant is a non-residue
    F = PrimeField(p)
    accepted = 0
    for c0, c1 in itertools.product(range(p), repeat=2):
        irreducible = legendre(F(c1) * c1 - 4 * c0) == -1
        try:
            ExtField(F, [c0, c1, 1])
        except ValueError:
            assert not irreducible, (c0, c1)
        else:
            assert irreducible, (c0, c1)
            accepted += 1
    assert accepted == (p**2 - p) // 2


def test_ext_field_does_not_factor_its_modulus(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ExtField called cubic_roots_fp")

    monkeypatch.setattr(primefield, "cubic_roots_fp", refuse)
    monkeypatch.setattr(extfield, "cubic_roots_fp", refuse)
    assert ExtField(7, [5, 0, 0, 1]).degree == 3
    with pytest.raises(ValueError, match="reducible"):
        ExtField(7, [6, 0, 0, 1])


# -- windowed exponentiation against square-and-multiply ------------------------


def _plain_pow(mul, one, base, e):
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def _exponents(p):
    ks = (1, 2, 5, 23, 24, 25, 79, 80, 126, 127, 239, 240, 255, 256)
    return sorted({0, 1, 2, p, (p + 1) // 2, *(1 << k for k in ks), *((1 << k) - 1 for k in ks)})


@pytest.mark.parametrize("p", (10007,) + BENCH_PRIMES, ids=lambda p: f"{p.bit_length()}bit")
@pytest.mark.parametrize("degree", [1, 2, 3])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_windowed_pow_matches_square_and_multiply(p, degree, data):
    # any monic modulus: the arithmetic does not need it irreducible
    draw = lambda: data.draw(st.integers(0, p - 1))
    modulus = [draw() for _ in range(degree)] + [1]
    base = tuple(draw() for _ in range(degree))
    mul, sqr = _mul_fn(p, modulus)
    one = (1,) + (0,) * (degree - 1)
    assert sqr(base) == mul(base, base)
    for e in _exponents(p):
        assert _pow_coeffs(mul, sqr, one, base, e) == _plain_pow(mul, one, base, e), e
