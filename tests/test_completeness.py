"""Completeness: ``halve`` finds every half, not only sound ones.

Every returned half is checked by doubling, so a missing half is the one
fault the library cannot see for itself.  Two oracles that share no code
with the halving engine look for one: at p = 3 and 5, the scan of every
point of every curve; at benchmark sizes, the division quartic.

If 2Q = P = (x0, y0), the x of Q is a root of
X^4 - 2a4X^2 - 8a6X + a4^2 - 4a2a6 - 4x0 rhs(X), the numerator of
x(2Q) - x0.  Its roots x in F_p are those of g = gcd(X^p - X, quartic),
and (x, +-y) lie in E(F_p) when rhs(x) is a nonzero square, i.e. x is a
root of rhs(X)^((p-1)/2) - 1.  Both points double to (x0, +-y0): one of
them is a half of P, both are when y0 = 0.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpoint.curves import INFINITY, Curve, Point
from halfpoint.halving_fp import FpHalvingField, brute_force_halves, enumerate_points
from halfpoint.primefield import PrimeField, fp_sqrt

# 64, 127 and 255 bits, each with p = 1 and p = 3 mod 4
PRIMES = (
    2**64 - 2**32 + 1, 2**64 - 189,
    2**127 - 39, 2**127 - 1,
    2**255 - 19, 2**255 - 765,
)


# -- polynomials over F_p as ascending int lists --------------------------------


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _polymod(f, g, p):
    f = list(f)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % p
        _trim(f)
    return f


def _polymulmod(f, h, g, p):
    out = [0] * (len(f) + len(h))
    for i, a in enumerate(f):
        for j, b in enumerate(h):
            out[i + j] = (out[i + j] + a * b) % p
    return _polymod(_trim(out), g, p)


def _polypowmod(f, e, g, p):
    result, f = [1], _polymod(f, g, p)
    while e:
        if e & 1:
            result = _polymulmod(result, f, g, p)
        f = _polymulmod(f, f, g, p)
        e >>= 1
    return result


def _polysub(f, h, p):
    n = max(len(f), len(h))
    f, h = f + [0] * (n - len(f)), h + [0] * (n - len(h))
    return _trim([(a - b) % p for a, b in zip(f, h)])


def _polygcd(f, g, p):
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        f, g = g, _polymod(f, g, p)
    return f


def expected_half_count(p, a2, a4, a6, x0, y0):
    """The number of halves of (x0, y0) in E(F_p), from the division quartic."""
    rhs = [a6, a4, a2, 1]
    quartic = _polysub([(a4 * a4 - 4 * a2 * a6) % p, -8 * a6 % p, -2 * a4 % p, 0, 1],
                       [4 * x0 * c % p for c in rhs], p)
    g = _polygcd(_polysub(_polypowmod([0, 1], p, quartic, p), [0, 1], p), quartic, p)
    if len(g) < 2:
        return 0
    square = _polysub(_polypowmod(rhs, (p - 1) // 2, g, p), [1], p)
    count = len(_polygcd(g, square, p)) - 1
    return count if y0 % p else 2 * count


# -- the oracle against halve ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _context(p, degree):
    """A context whose cubic splits over F_{p^degree}; for degree 0, one
    whose cubic x(x + s^2)(x + t^2) gives (0, 0) a half of order 4."""
    rng = random.Random(p * 8 + degree)
    fp = PrimeField(p)
    while True:
        if degree:
            a2, a4, a6 = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        else:
            s2, t2 = rng.randrange(p) ** 2, rng.randrange(p) ** 2
            a2, a4, a6 = s2 + t2, s2 * t2, 0
        if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
            continue
        ctx = FpHalvingField(p, Curve(a2, a4, a6))
        if ctx.extension_degree == max(degree, 1):
            return ctx


def _check(ctx, P):
    halves = ctx.halve(P)
    a2, a4, a6 = (int(c) for c in (ctx.curve.a2, ctx.curve.a4, ctx.curve.a6))
    assert len(halves) == len(set(halves))
    assert len(halves) == expected_half_count(ctx.p, a2, a4, a6, int(P.x), int(P.y)), P
    return halves


def _a_point(ctx, x):
    fp = ctx.fp
    for i in range(128):
        y = fp_sqrt(ctx.curve.rhs(fp(x + i)))
        if y is not None:
            return Point(fp(x + i), y)
    raise AssertionError("no point among 128 consecutive x")


@settings(max_examples=36, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from((1, 2, 3)), st.integers(0, 2**255))
def test_half_count_matches_the_division_quartic(p, degree, x):
    ctx = _context(p, degree)
    R = _a_point(ctx, x)
    for P in (R, ctx.curve.neg(R), ctx.curve.double(R)):
        _check(ctx, P)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("degree", (0, 1, 2))
def test_half_count_of_order_two_and_four_targets(p, degree):
    # D = 3 has no point of order 2 over F_p
    ctx = _context(p, degree)
    order_four = []
    for T in ctx.two_torsion():
        order_four += _check(ctx, T)
    for Q in order_four:
        assert ctx.curve.double(ctx.curve.double(Q)) is INFINITY
        _check(ctx, Q)
    if not degree:
        assert len(order_four) >= 4  # (0, 0) has four halves


# -- every point of every curve at p = 3 and 5 -------------------------------------


@pytest.mark.parametrize("p, points", [(3, 72), (5, 600)])
def test_halve_equals_brute_force_on_every_curve(p, points):
    fp = PrimeField(p)
    seen = 0
    for a2 in range(p):
        for a4 in range(p):
            for a6 in range(p):
                if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
                    continue
                ctx = FpHalvingField(p, Curve(a2, a4, a6))
                for P in enumerate_points(p, ctx.curve):
                    halves = ctx.halve(P)
                    want = brute_force_halves(p, ctx.curve, P)
                    assert len(halves) == len(set(halves)) and set(halves) == set(want), P
                    seen += 1
    assert seen == points
