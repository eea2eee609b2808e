import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpoint.primefield import (
    FpElem,
    PrimeField,
    cubic_roots_fp,
    first_nonresidue,
    fp_sqrt,
    legendre,
    tonelli_shanks,
)


def test_field_rejects_bad_modulus():
    for bad in (2, 4, 9**0 - 1, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_element_arithmetic_and_coercion():
    F = PrimeField(11)
    a, b = F(7), F(9)
    assert a + b == F(5)
    assert a - b == F(9)  # -2 mod 11
    assert a * b == F(8)  # 63 mod 11
    assert a / b == a * b ** -1
    assert (a / b) * b == a
    assert 3 + a == F(10) and 3 * a == F(10) and 3 - a == F(7)
    assert 1 / a == a.inverse()
    assert -a == F(4)
    assert int(F(-2)) == 9


def test_pow_and_zero_division():
    F = PrimeField(13)
    assert F(2) ** 12 == F(1)  # Fermat
    assert F(5) ** -2 == (F(5) ** 2).inverse()
    with pytest.raises(ZeroDivisionError):
        F(0).inverse()
    with pytest.raises(ZeroDivisionError):
        F(3) / F(0)


def test_cross_modulus_is_unequal_not_an_error():
    assert PrimeField(11)(3) != PrimeField(13)(3)
    with pytest.raises(ValueError):
        PrimeField(11)(3) + PrimeField(13)(3)


@given(st.integers(), st.integers(), st.integers())
def test_field_axioms_match_int_arithmetic(a, b, c):
    F = PrimeField(10007)
    fa, fb, fc = F(a), F(b), F(c)
    assert (fa + fb) * fc == fa * fc + fb * fc
    assert fa * (fb * fc) == (fa * fb) * fc
    assert int(fa + fb) == (a + b) % 10007
    assert int(fa * fb) == (a * b) % 10007


@pytest.mark.parametrize("p", [11, 13, 17, 10007])
def test_legendre_against_square_table(p):
    F = PrimeField(p)
    squares = {x * x % p for x in range(1, p)}
    assert legendre(F(0)) == 0
    for a in range(1, min(p, 300)):
        assert legendre(F(a)) == (1 if a in squares else -1)


@pytest.mark.parametrize("p", [11, 13, 17, 41, 10007, 10009])
def test_fp_sqrt_exhaustive_small(p):
    # p = 3 mod 4 exercises the single-pow path, p = 1 mod 4 Tonelli-Shanks
    F = PrimeField(p)
    squares = {x * x % p for x in range(p)}
    for a in range(min(p, 500)):
        r = fp_sqrt(F(a))
        if a in squares:
            assert r * r == F(a)
            assert int(r) <= p - int(r)  # canonical: the smaller residue
        else:
            assert r is None


def test_fp_sqrt_canonical_choice():
    # both 3 and 4 square to 2 mod 7; the smaller one wins
    assert fp_sqrt(PrimeField(7)(2)) == 3


def test_fp_sqrt_zero():
    F = PrimeField(11)
    assert fp_sqrt(F(0)) == F(0)


@pytest.mark.parametrize("p", [2**61 - 1, 10**9 + 9])
def test_fp_sqrt_large(p):
    F = PrimeField(p)
    for base in (2, 123456789, p - 5):
        a = F(base) * F(base)
        r = fp_sqrt(a)
        assert r * r == a and int(r) <= p - int(r)


def test_tonelli_shanks_direct():
    p = 41  # p - 1 = 8 * 5, a genuinely 2-adic case
    F = PrimeField(p)
    ns = first_nonresidue(F)
    assert legendre(ns) == -1
    for a in range(1, p):
        if legendre(F(a)) == 1:
            r = tonelli_shanks(F(a), p, ns)
            assert r * r == F(a)


@pytest.mark.parametrize("p", [7, 13, 41, 257, 2**64 - 2**32 + 1])
def test_tonelli_shanks_rejects_nonresidue(p):
    # 2-adicity 1 (p = 7) up to 32 (Goldilocks)
    F = PrimeField(p)
    ns = first_nonresidue(F)
    for a in (ns, ns * 4, ns * 9):
        with pytest.raises(ValueError, match="not a quadratic residue"):
            tonelli_shanks(a, p, ns)


def _scanned_nonresidue(p):
    # the uncached scan: smallest c >= 2 with Euler's criterion -1
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", [73, 257, 7681, 13, 29, 10037, 2**64 - 2**32 + 1])
def test_first_nonresidue_cached_matches_scan(p):
    # p = 1 mod 8 (73, 257, 7681), p = 5 mod 8 (13, 29, 10037) and Goldilocks
    F = PrimeField(p)
    ns = first_nonresidue(F)
    assert int(ns) == _scanned_nonresidue(p)
    assert first_nonresidue(F) is ns  # later calls reuse the kept element
    assert first_nonresidue(PrimeField(p)) == ns  # a fresh field scans again
    fp_sqrt(F(4))
    assert first_nonresidue(F) is ns


@given(st.sampled_from([2**64 - 2**32 + 1, 998244353, 469762049, 7681]), st.integers())
def test_fp_sqrt_canonical_at_high_two_adicity(p, x):
    # 2-adicity 32, 23, 26 and 9: long Tonelli-Shanks loops on the cached
    # non-residue; the canonical root is the smaller of x and -x
    F = PrimeField(p)
    for _ in range(2):
        r = fp_sqrt(F(x) * F(x))
        assert int(r) == min(x % p, -x % p)


def test_tonelli_shanks_terminates_on_composite_modulus():
    # mod 21, b = 2^5 = 11 squares to 16, 4, 16, 4, ...: never to 1
    F = PrimeField(21)
    with pytest.raises(ValueError, match="not a quadratic residue"):
        tonelli_shanks(F(2), 21, F(2))


def _brute_cubic(p, c2, c1, c0):
    # distinct roots and factor degrees straight from the definition
    def ev(x):
        return ((x + c2) * x + c1) * x + c0

    roots = [x for x in range(p) if ev(x) % p == 0]
    coeffs = [c0, c1, c2, 1]
    mult = 0
    for r in roots:
        while True:
            acc, quot = 0, []
            for cf in reversed(coeffs):
                acc = (acc * r + cf) % p
                quot.append(acc)
            if quot[-1] != 0:
                break
            coeffs = list(reversed(quot[:-1]))
            mult += 1
    degrees = tuple(sorted([1] * mult + ([3 - mult] if mult < 3 else [])))
    return roots, degrees


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cubic_roots_exhaustive(p):
    F = PrimeField(p)
    for c2 in range(p):
        for c1 in range(p):
            for c0 in range(p):
                roots, degrees = cubic_roots_fp(F(c2), F(c1), F(c0))
                want_roots, want_degrees = _brute_cubic(p, c2, c1, c0)
                assert [int(r) for r in roots] == want_roots
                assert degrees == want_degrees


def test_cubic_roots_seed_independent():
    F = PrimeField(31)
    # (x-3)(x-10)(x-22) mod 31
    c2, c1, c0 = F(-35), F(3 * 10 + 10 * 22 + 22 * 3), F(-3 * 10 * 22)
    expect = None
    for seed in range(6):
        roots, degrees = cubic_roots_fp(c2, c1, c0, seed=seed)
        assert degrees == (1, 1, 1)
        if expect is None:
            expect = roots
        assert roots == expect
    assert sorted(int(r) for r in expect) == [3, 10, 22]


def test_cubic_roots_large_prime():
    p = 17000000000000071
    F = PrimeField(p)
    # the right-hand side of the big reference curve has no roots mod p
    roots, degrees = cubic_roots_fp(F(0), F(17), F(71))
    assert roots == [] and degrees == (3,)
