import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfpoint.curves import INFINITY, Curve, Point, SingularCurveError
from halfpoint.extfield import ext_sqrt, project_to_fp, sqrt_in_tower
from halfpoint.halving import (
    candidate_xs,
    candidate_xs_products,
    halve_point,
    recover_y,
    sqrt_triple,
)
from halfpoint import halving_fp
from halfpoint.halving_fp import (
    BRUTE_FORCE_LIMIT,
    FpHalvingField,
    brute_force_halves,
    enumerate_points,
    group_order_bf,
    halve_over_fp,
    halve_via_order,
)
from halfpoint.primefield import PrimeField, fp_sqrt


def test_coerce_rejects_bad_curves():
    with pytest.raises(ValueError):
        FpHalvingField(11, Curve(0, Fraction(1, 2), 1))
    fp13 = PrimeField(13)
    with pytest.raises(ValueError):
        FpHalvingField(11, Curve(fp13(0), fp13(1), fp13(1)))


def test_fully_split_fixture():
    # x^3 + x + 2 = (x-1)(x-3)(x-7)... fully split mod 11
    ctx = FpHalvingField(11, Curve(0, 1, 2))
    assert ctx.factor_degrees == (1, 1, 1) and ctx.extension_degree == 1
    halves, info = ctx.halve_with_info(Point(8, 4))
    assert {(int(Q.x), int(Q.y)) for Q in halves} == {(9, 5), (2, 1), (6, 2), (4, 2)}
    assert info["candidates_in_base"] == 4
    # a point whose differences are non-residues: no candidates are formed
    halves, info = ctx.halve_with_info(Point(1, 2))
    assert halves == [] and info["candidates_in_base"] is None


def test_one_root_fixture():
    # x^3 + 1 = (x+1)(x^2 - x + 1) with the quadratic irreducible mod 11
    ctx = FpHalvingField(11, Curve(0, 0, 1))
    assert ctx.factor_degrees == (1, 2) and ctx.extension_degree == 2
    halves, info = ctx.halve_with_info(Point(0, 1))
    assert {(int(Q.x), int(Q.y)) for Q in halves} == {(2, 3), (0, 10)}
    assert info["candidates_in_base"] == 2
    halves, info = ctx.halve_with_info(Point(5, 4))
    assert halves == [] and info["candidates_in_base"] is None


def test_irreducible_fixture_unique_half():
    # x^3 + x + 4 is irreducible mod 11: odd group order, halving is unique
    ctx = FpHalvingField(11, Curve(0, 1, 4))
    assert ctx.factor_degrees == (3,) and ctx.extension_degree == 3
    halves = ctx.halve(Point(0, 2))
    assert [(int(Q.x), int(Q.y)) for Q in halves] == [(2, 5)]


def test_irreducible_cubic_never_needs_the_tower():
    # the three differences are Frobenius conjugates, so they share their
    # quadratic character, and their product is y0^2; hence all are squares
    ctx = FpHalvingField(11, Curve(0, 1, 4))
    for P in enumerate_points(11, Curve(0, 1, 4)):
        if P is INFINITY:
            continue
        halves, info = ctx.halve_with_info(P)
        assert info["candidates_in_base"] is not None
        assert len(halves) == 1


def test_halve_of_infinity_lists_two_torsion():
    ctx = FpHalvingField(11, Curve(0, 1, 2))
    halves = ctx.halve(INFINITY)
    assert halves[0] is INFINITY
    assert sorted(int(T.x) for T in halves[1:]) == sorted(
        int(T.x) for T in ctx.two_torsion())
    assert set(halves) == set(brute_force_halves(11, Curve(0, 1, 2), INFINITY))


def test_oracle_equivalence_random_curves():
    rng = random.Random(7)
    for p in (7, 11, 13):
        built = 0
        while built < 4:
            a2, a4, a6 = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            curve = Curve(a2, a4, a6)
            fp = PrimeField(p)
            if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
                continue
            built += 1
            ctx = FpHalvingField(p, curve)
            for P in enumerate_points(p, curve):
                want = set(brute_force_halves(p, curve, P))
                got = ctx.halve(P)
                assert len(got) == len(set(got))  # no duplicates
                assert set(got) == want
                assert len(want) in (0, 1, 2, 4)
                for Q in got:
                    if Q is not INFINITY:
                        doubled = ctx.curve.double(Q)
                        assert doubled == P or (doubled is INFINITY and P is INFINITY)


def test_reference_curve_big_prime():
    p = 17000000000000071
    ctx = FpHalvingField(p, Curve(0, 17, 71))
    assert ctx.factor_degrees == (3,)
    P = Point(17071, 4145148307074498)
    halves, info = ctx.halve_with_info(P)
    assert [(int(Q.x), int(Q.y)) for Q in halves] == [
        (4631223433830370, 13664114850453464)]
    assert info["candidates_in_base"] == 1
    assert ctx.curve.double(halves[0]) == ctx.curve._norm(P)


def test_reference_curve_product_route_values():
    # canonical square roots of the product intermediates, frozen: ascending
    # coefficient tuples in F_p[X]/(X^3 + 17X + 71)
    p = 17000000000000071
    ctx = FpHalvingField(p, Curve(0, 17, 71))
    x0 = ctx.lift(ctx.fp(17071))
    cands, data = candidate_xs_products(x0, ctx.roots, ext_sqrt)
    assert data.t.coeffs == (291419058, 17071, 1)
    assert data.w.coeffs == (7788921359847751, 6554553633085449, 14551045313109763)
    assert data.w1.coeffs == (3157697926034452, 6554553633085449, 14551045313109763)
    assert data.w2.coeffs == (400519205575709, 13847596327312889, 5535339929903762)
    retracted = [ctx.retract(c) for c in cands]
    assert [x for x in retracted if x is not None] == [ctx.fp(4631223433830370)]


def test_halve_via_order_routes():
    curve = Curve(0, 1, 4)
    fp = PrimeField(11)
    m = group_order_bf(11, curve)
    assert m % 2 == 1  # no 2-torsion, odd order
    ctx = FpHalvingField(11, curve)
    for P in enumerate_points(11, curve):
        if P is INFINITY:
            continue
        assert halve_via_order(ctx.curve, P, m) == ctx.halve(P)[0]
    with pytest.raises(ValueError):
        halve_via_order(ctx.curve, Point(0, 2), 2 * m)
    with pytest.raises(ValueError):
        halve_via_order(ctx.curve, Point(0, 2), m + 2)


def test_group_order_matches_enumeration_and_hasse():
    for p, a4, a6 in [(101, 3, 7), (103, 1, 1), (97, 5, 0)]:
        curve = Curve(0, a4, a6)
        m = group_order_bf(p, curve)
        assert m == len(enumerate_points(p, curve))
        assert abs(m - p - 1) <= 2 * math.isqrt(p) + 1


def test_budget_guards():
    assert BRUTE_FORCE_LIMIT == 10**4
    big = Curve(0, 1, 1)
    with pytest.raises(ValueError):
        enumerate_points(10007, big)
    with pytest.raises(ValueError):
        group_order_bf(10007, big)


# -- one square root per Frobenius orbit --------------------------------------
#
# In D = 2 and D = 3 the context derives beta (and alpha) as canonical
# Frobenius images of the root before; the three-root route, sqrt_triple
# with no conjugates, must give the same triple, candidates and halves.

ORBIT_PRIMES = (
    5, 7, 11, 13, 10007,
    17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1, 2**255 - 19,
)


@functools.lru_cache(maxsize=None)
def _orbit_contexts(p, degree):
    """A context whose cubic splits over F_{p^degree}, and its twin that
    takes all three square roots."""
    rng = random.Random(p * 4 + degree)
    fp = PrimeField(p)
    while True:
        a2, a4, a6 = (rng.randrange(p) for _ in range(3))
        if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
            continue
        ctx = FpHalvingField(p, Curve(a2, a4, a6))
        if ctx.extension_degree == degree:
            twin = FpHalvingField(p, Curve(a2, a4, a6))
            twin._conjugates = (None, None)
            return ctx, twin


def _needs_tower(ctx, x):
    # gamma's difference is a square in F_{p^D}; the tower is climbed iff
    # alpha's is not
    return ext_sqrt(ctx.lift(x) - ctx.roots.e1) is None


def _stops_with_no_half(ctx, P, got):
    """P needs a root from the tower: both routes stop at the first
    difference with no root in F_{p^D}, and P has no half."""
    x0 = ctx.lift(P.x)
    assert sqrt_triple(x0, ctx.roots, ctx.sqrt_total, ctx._conjugates, ctx.lift(P.y)) is None
    assert sqrt_triple(x0, ctx.roots, ctx.sqrt_total) is None
    assert got == ([], {
        "factor_degrees": ctx.factor_degrees,
        "extension_degree": ctx.extension_degree,
        "candidates_in_base": None,
    })


def _orbit_matches_three_roots(ctx, twin, P):
    x0 = ctx.lift(P.x)
    orbit = sqrt_triple(x0, ctx.roots, ctx.sqrt_total, ctx._conjugates)
    three = sqrt_triple(x0, ctx.roots, ctx.sqrt_total)
    assert orbit == three
    got, want = ctx.halve_with_info(P), twin.halve_with_info(P)
    if _needs_tower(ctx, P.x):
        _stops_with_no_half(ctx, P, got)
        _stops_with_no_half(twin, P, want)
    else:
        assert [type(r) for r in vars(orbit).values()] == [type(r) for r in vars(three).values()]
    stopped = got[1]["candidates_in_base"] is None
    assert stopped == (want[1]["candidates_in_base"] is None) == _needs_tower(ctx, P.x)
    assert got == want
    assert halve_point(ctx, P)[1] == halve_point(twin, P)[1]
    return stopped


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORBIT_PRIMES), st.sampled_from((2, 3)), st.integers(0, 2**255), st.booleans())
def test_orbit_roots_match_three_square_roots(p, degree, x, tower):
    # D = 3 never needs the tower: the differences are conjugates whose
    # product is y0^2
    ctx, twin = _orbit_contexts(p, degree)
    tower = tower and degree == 2
    fp = ctx.fp
    for i in range(min(p, 64)):
        xi = fp(x + i)
        y = fp_sqrt(ctx.curve.rhs(xi))
        if y is not None and _needs_tower(ctx, xi) == tower:
            break
    else:
        assume(False)
    assert _orbit_matches_three_roots(ctx, twin, Point(xi, y)) == tower


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_orbit_roots_exhaustive_small_primes(p):
    climbed = 0
    for degree in (2, 3):
        ctx, twin = _orbit_contexts(p, degree)
        for P in enumerate_points(p, ctx.curve):
            if P is not INFINITY:
                climbed += _orbit_matches_three_roots(ctx, twin, P)
    assert climbed  # some D = 2 point took its alpha and beta in the tower


# -- the F_p loop that halving.halve_point replaced ------------------------------


def _halve_with_info_reference(ctx, P):
    """The former ``FpHalvingField.halve_with_info`` loop, its tower flag
    kept in a local instead of on the context and each y taken as the
    ``fp_sqrt`` of rhs(x).  Returns (halves, info), the candidates' x in
    F_p (None outside it) and whether a root came from the tower."""
    tower_used = False

    def sqrt_total(x):
        nonlocal tower_used
        s = ext_sqrt(x)
        if s is not None:
            return s
        tower_used = True
        return sqrt_in_tower(x)

    info = {
        "factor_degrees": ctx.factor_degrees,
        "extension_degree": ctx.extension_degree,
    }
    if P is INFINITY:
        pts = [INFINITY] + ctx.two_torsion()
        info.update(candidates_in_base=None)
        return (pts, info), None, False
    P = ctx.curve._norm(P)
    ctx.curve.require_point(P)
    x0 = ctx.lift(P.x)
    sq = sqrt_triple(x0, ctx.roots, sqrt_total, ctx._conjugates)
    cands = candidate_xs(x0, sq)
    in_base = [project_to_fp(xc) for xc in cands]
    halves, seen = [], set()
    for xt in in_base:
        if xt is None or xt in seen:
            continue
        seen.add(xt)
        y = fp_sqrt(ctx.curve.rhs(xt))
        if y is not None:
            halves += recover_y(ctx.curve, xt, P, y)
    halves = list(dict.fromkeys(halves))
    info.update(candidates_in_base=sum(x is not None for x in in_base))
    return (halves, info), tuple(in_base), tower_used


def _matches_reference(ctx, P):
    got = ctx.halve_with_info(P)
    want, base_xs, tower_used = _halve_with_info_reference(ctx, P)
    if tower_used:
        # the former loop found no half over the tower; the engine stops
        # before it
        assert want[0] == []
        _stops_with_no_half(ctx, P, got)
    else:
        assert got == want
        assert halve_point(ctx, P)[1] == base_xs
    return tower_used


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_halve_with_info_matches_former_loop_on_every_point(p):
    for degree in (1, 2, 3):
        ctx, _ = _orbit_contexts(p, degree)
        for P in enumerate_points(p, ctx.curve):
            _matches_reference(ctx, P)


@pytest.mark.parametrize("p", ORBIT_PRIMES[-4:])
def test_halve_with_info_matches_former_loop_at_benchmark_primes(p):
    rng = random.Random(p)
    climbed = 0
    for degree in (1, 2, 3):
        ctx, _ = _orbit_contexts(p, degree)
        fp, curve = ctx.fp, ctx.curve
        found = 0
        while found < 6:
            x = fp(rng.randrange(p))
            y = fp_sqrt(curve.rhs(x))
            if y is None:
                continue
            found += 1
            R = Point(x, y)
            climbed += _matches_reference(ctx, R)
            _matches_reference(ctx, curve.double(R))  # halvable by construction
        _matches_reference(ctx, INFINITY)
    assert climbed


def test_halving_leaves_the_context_unchanged():
    # D = 1 over F_11: (8, 4) halves without the tower, (1, 2) climbs it
    ctx = FpHalvingField(11, Curve(0, 1, 2))
    before = dict(vars(ctx))
    assert not _matches_reference(ctx, Point(8, 4))
    assert vars(ctx) == before
    assert _matches_reference(ctx, Point(1, 2))
    assert vars(ctx) == before
    assert not hasattr(ctx, "tower_used")


def test_singular_curve_mod_p_is_refused():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2) is singular over every field; (2, 2)
    # satisfies it mod 11
    curve = Curve(0, -3, 2)
    with pytest.raises(SingularCurveError):
        FpHalvingField(11, curve)
    with pytest.raises(SingularCurveError):
        halve_over_fp(11, curve, Point(2, 2))


# -- the quadratic tower never yields an F_p half --------------------------------
#
# If Q in E(F_p) and 2Q = P != O, then x0 - e_i equals
# [((x_Q - e_i)^2 - (e_i - e_j)(e_i - e_k)) / 2y_Q]^2, a square in F_{p^D}.
# So a point that would need a root from the tower has no half, and (by the
# halving criterion, checked here) a point with no half needs one: the
# engine forms no candidates exactly for the finite points with no half.


def _tower_iff_no_half(ctx, P):
    halves, info = ctx.halve_with_info(P)
    assert set(info) == {"factor_degrees", "extension_degree", "candidates_in_base"}
    no_candidates = info["candidates_in_base"] is None
    if P is INFINITY:
        assert no_candidates and halves[0] is INFINITY
        return False
    assert no_candidates == (halves == []), P
    return no_candidates


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_tower_used_exactly_when_no_half_on_every_point(p):
    fp = PrimeField(p)
    climbed = 0
    for a2 in (0, 1):
        for a4 in range(p):
            for a6 in range(p):
                if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
                    continue
                ctx = FpHalvingField(p, Curve(a2, a4, a6))
                for P in enumerate_points(p, ctx.curve):
                    climbed += _tower_iff_no_half(ctx, P)
    assert climbed


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_halving_never_climbs_the_tower(p, monkeypatch):
    def refuse(x):
        raise AssertionError("the halving path called sqrt_in_tower")

    monkeypatch.setattr(halving_fp, "sqrt_in_tower", refuse)
    fp = PrimeField(p)
    no_half = {1: 0, 2: 0}
    for a2 in (0, 1):
        for a4 in range(p):
            for a6 in range(p):
                if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
                    continue
                ctx = FpHalvingField(p, Curve(a2, a4, a6))
                if ctx.extension_degree == 3:
                    continue
                for P in enumerate_points(p, ctx.curve):
                    halves = ctx.halve(P)
                    want = brute_force_halves(p, ctx.curve, P)
                    assert len(halves) == len(set(halves)) and set(halves) == set(want), P
                    no_half[ctx.extension_degree] += not halves
                assert ctx.extension._tower is None
    assert all(no_half.values())  # both degrees met points that would climb


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORBIT_PRIMES[-4:]), st.sampled_from((1, 2, 3)), st.integers(0, 2**255))
def test_tower_used_exactly_when_no_half_at_benchmark_primes(p, degree, x):
    ctx, _ = _orbit_contexts(p, degree)
    fp, curve = ctx.fp, ctx.curve
    for i in range(64):
        xi = fp(x + i)
        y = fp_sqrt(curve.rhs(xi))
        if y is not None:
            break
    else:
        assume(False)
    R = Point(xi, y)
    _tower_iff_no_half(ctx, R)
    assert not _tower_iff_no_half(ctx, curve.double(R))

