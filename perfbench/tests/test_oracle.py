"""The benchmark's independent check, compared with halfpoint's brute force."""

import random

import pytest

from halfpoint.curves import Curve, Point
from halfpoint.halving_fp import FpHalvingField, brute_force_halves
from perfbench import oracle

# both classes mod 4, and 97, 193 and 257 with 2-adicity 5, 6 and 8
SMALL_PRIMES = (5, 7, 11, 13, 97, 103, 193, 257)


def _affine_points(curve):
    p = curve.p
    return [(x, y) for x in range(p) for y in range(p) if (y * y - curve.rhs(x)) % p == 0]


@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_expected_counts_and_doubling_match_brute_force(p, degree):
    rng = random.Random(f"{p}:{degree}")
    curve = oracle.make_curve(rng, p, degree)
    lib_curve = Curve(curve.a2, curve.a4, curve.a6)
    points = _affine_points(curve)
    for P in points:
        if P[1] == 0:
            continue
        brute = brute_force_halves(p, lib_curve, Point(*P))
        brute = sorted((int(h.x), int(h.y)) for h in brute)
        own = sorted(Q for Q in points if oracle.double_fp(curve, *Q) == P)
        assert own == brute
        assert oracle.expected_half_count(curve, P[0]) == len(brute)
        assert oracle.check_fp_halves(curve, P, brute)


@pytest.mark.parametrize("p", (101, 2 ** 64 - 2 ** 32 + 1, 2 ** 127 - 1))
def test_generated_curves_have_the_intended_degree(p):
    rng = random.Random(p)
    for degree in (1, 2, 3):
        curve = oracle.make_curve(rng, p, degree)
        ctx = FpHalvingField(p, Curve(curve.a2, curve.a4, curve.a6))
        assert ctx.extension_degree == degree
        assert sorted(int(r) for r in ctx.fp_roots) == sorted(curve.roots)


@pytest.mark.parametrize("p", (2 ** 64 - 2 ** 32 + 1, 2 ** 255 - 19, 10007))
def test_sqrt_mod(p):
    rng = random.Random(p)
    for _ in range(20):
        a = rng.randrange(1, p) ** 2 % p
        r = oracle.sqrt_mod(a, p)
        assert r * r % p == a


def test_check_fp_halves_rejects_wrong_outputs():
    rng = random.Random(3)
    curve = oracle.make_curve(rng, 1009, 1)
    while True:
        P, Q = oracle.halvable_point(rng, curve)
        if oracle.expected_half_count(curve, P[0]) == 4:
            break
    lib_curve = Curve(curve.a2, curve.a4, curve.a6)
    halves = sorted((int(h.x), int(h.y)) for h in brute_force_halves(1009, lib_curve, Point(*P)))
    assert oracle.check_fp_halves(curve, P, halves, Q)
    assert not oracle.check_fp_halves(curve, P, halves[1:])
    assert not oracle.check_fp_halves(curve, P, halves + [halves[0]])
    x, y = halves[0]
    assert not oracle.check_fp_halves(curve, P, [(x, (y + 1) % 1009)] + halves[1:])
    assert not oracle.check_fp_halves(curve, P, [], None)
    assert not oracle.check_fp_halves(curve, P, halves, (Q[0], -Q[1] % 1009))


def test_check_q_halves():
    from halfpoint.halving_q import congruent_curve, rational_halves

    n = 6
    chain = oracle.doubling_chain(n, (-3, 9), 3)
    split = congruent_curve(n)
    for k in (1, 2, 3):
        assert split.curve.double(Point(*chain[k - 1])) == Point(*chain[k])
        halves = [tuple(h) for h in rational_halves(split, Point(*chain[k]))]
        assert oracle.check_q_halves(n, chain[k], halves, chain[k - 1])
        assert not oracle.check_q_halves(n, chain[k], halves[:3], chain[k - 1])
        assert not oracle.check_q_halves(n, chain[k], halves, chain[k])
        x, y = halves[0]
        assert not oracle.check_q_halves(n, chain[k], [(x, -y)] + halves[1:], chain[k - 1])
