import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpoint import primefield
from halfpoint.extfield import ExtField
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


def test_cubic_roots_large_prime():
    p = 17000000000000071
    F = PrimeField(p)
    # the right-hand side of the big reference curve has no roots mod p
    roots, degrees = cubic_roots_fp(F(0), F(17), F(71))
    assert roots == [] and degrees == (3,)


# -- the single-exponentiation square root against the route it replaced -----

SQRT_3MOD4 = (7, 11, 10007, 2**61 - 1, 17000000000000071, 2**127 - 1)
SQRT_5MOD8 = (5, 13, 29, 10037, 2**255 - 19)
# p = 1 mod 8: the smallest k * 2^e + 1, k odd, for each 2-adicity e = 9..32,
# and Goldilocks (2-adicity 32)
SQRT_1MOD8 = (
    7681, 13313, 18433, 12289, 40961, 114689, 163841, 65537, 1179649, 786433,
    5767169, 7340033, 23068673, 104857601, 377487361, 754974721, 167772161,
    469762049, 2013265921, 3489660929, 12348030977, 3221225473, 75161927681,
    184683593729, 2**64 - 2**32 + 1,
)
SQRT_PRIMES = SQRT_3MOD4 + SQRT_5MOD8 + SQRT_1MOD8


def _two_exponentiation_sqrt(a):
    # Euler's criterion a^((p-1)/2) first, then a second exponentiation:
    # a^((p+1)/4), or the generic Tonelli-Shanks loop (run on a degree-1
    # extension field, which never takes the int branch)
    field = a.field
    p = field.p
    if not a:
        return a
    if pow(a.value, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = a ** ((p + 1) // 4)
    else:
        K1 = ExtField(field, [0, 1])
        r = field(tonelli_shanks(K1(a.value), p, K1(first_nonresidue(field).value)).coeffs[0])
    return r if r.value <= p - r.value else -r


@pytest.mark.parametrize("primes", [SQRT_3MOD4, SQRT_5MOD8, SQRT_1MOD8], ids=["3mod4", "5mod8", "1mod8"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fp_sqrt_matches_two_exponentiation_route(primes, data):
    p = data.draw(st.sampled_from(primes))
    x = data.draw(st.integers(0, p - 1))
    F = PrimeField(p)
    ns = first_nonresidue(F)
    assert fp_sqrt(F(0)) == F(0)
    for a in (F(x), F(x) * F(x), ns * F(x) * F(x)):
        r = fp_sqrt(a)
        assert r == _two_exponentiation_sqrt(a)
        assert (r is None) == (legendre(a) == -1)
    assert int(fp_sqrt(F(x) * F(x))) == min(x, p - x)  # the canonical sign
    if x:
        assert fp_sqrt(ns * F(x) * F(x)) is None


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(SQRT_PRIMES), x=st.integers(min_value=0), y=st.integers(min_value=1))
def test_tonelli_shanks_int_branch_matches_generic_loop(p, x, y):
    # two non-residues on one field: the kept powers of z^s follow z
    F = PrimeField(p)
    K1 = ExtField(F, [0, 1])
    ns = first_nonresidue(F)
    other = ns * F(y) * F(y) or ns
    for z in (ns, other, ns):
        for a in (F(x) * F(x), ns * F(x) * F(x), F(x)):
            try:
                want = tonelli_shanks(K1(a.value), p, K1(z.value)).coeffs[0]
            except ValueError:
                with pytest.raises(ValueError, match="not a quadratic residue"):
                    tonelli_shanks(a, p, z)
            else:
                r = tonelli_shanks(a, p, z)
                assert isinstance(r, FpElem) and r.value == want


# -- cubic_roots_fp: bounded splitting, typed errors on composite moduli -------


class _FixedDraws:
    """Stands in for the random module: every draw returns the same t."""

    def __init__(self, t):
        self.t = t
        self.draws = 0

    def Random(self, seed):
        return self

    def randrange(self, n):
        self.draws += 1
        return self.t


def test_cubic_roots_splitting_gives_up_after_capped_draws(monkeypatch):
    # (x-1)(x-2)(x-3) mod 13; t + 1, t + 2, t + 3 of one quadratic
    # character never split it
    p = 13
    F = PrimeField(p)
    t = next(t for t in range(p) if len({legendre(F(t + r)) for r in (1, 2, 3)}) == 1)
    draws = _FixedDraws(t)
    monkeypatch.setattr(primefield, "random", draws)
    with pytest.raises(ArithmeticError, match="random draws"):
        cubic_roots_fp(F(-6), F(11), F(-6))
    assert draws.draws == primefield._SPLIT_DRAWS


@pytest.mark.parametrize("p, coeffs", [(25, (7, 7, 24)), (55, (0, 0, 1))])
def test_cubic_roots_composite_modulus_raises_arithmetic_error(p, coeffs):
    # mod 25 the split-off quadratic has no roots (before: a bare
    # IndexError); mod 55, x^3 + 1 fails a square-root postcondition
    F = PrimeField(p)
    with pytest.raises(ArithmeticError):
        cubic_roots_fp(*(F(c) for c in coeffs))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((10007, 12289, 10037, 17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1)),
    rs=st.lists(st.integers(min_value=0), min_size=3, max_size=3),
)
def test_cubic_roots_prime_modulus_unchanged(p, rs):
    # every cubic with its roots in F_p, double roots included, over
    # p = 3 mod 4, 5 mod 8 and 1 mod 8: the roots and the shape are exact
    F = PrimeField(p)
    r1, r2, r3 = (F(r) for r in rs)
    c2, c1, c0 = -(r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1, -(r1 * r2 * r3)
    roots, degrees = cubic_roots_fp(c2, c1, c0)
    assert [int(r) for r in roots] == sorted({r % p for r in rs})
    assert degrees == (1, 1, 1)
