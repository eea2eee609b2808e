"""The whole half from the square-root triple.

``halve_point`` takes each half's y as (x - e0)(alpha +- beta) and hands
``sqrt_triple`` the point's y, from which the last root it takes gets the
root of its norm.  These tests keep the route that took one more square
root per candidate as the reference: halves, their order and the triple
must come out the same.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpoint.curves import INFINITY, Curve, Point
from halfpoint.exact import rational_sqrt
from halfpoint.extfield import ExtField, _norm, choose_nonresidue, ext_sqrt, project_to_fp
from halfpoint.halving import candidate_xs, recover_y, sqrt_triple
from halfpoint.halving_fp import FpHalvingField, enumerate_points
from halfpoint.halving_q import SplitCurveQ, congruent_curve, rational_halves
from halfpoint.primefield import PrimeField, fp_sqrt

# small primes of both classes mod 4, then the benchmark primes
PRIMES = (11, 13, 17000000000000071, 2**64 - 2**32 + 1, 2**127 - 1, 2**255 - 19)


# -- over Q, against the recover_y route -----------------------------------------


def _rational_halves_reference(split, P):
    """The former loop: a rational square root of rhs(x) per candidate,
    taken here and handed to ``recover_y`` as y."""
    if P is INFINITY:
        return [INFINITY] + split.two_torsion()
    P = split.curve._norm(P)
    sq = sqrt_triple(P.x, split.roots, rational_sqrt)
    if sq is None:
        return []
    halves, seen = [], set()
    for x in candidate_xs(P.x, sq):
        if x not in seen:
            seen.add(x)
            y = rational_sqrt(split.curve.rhs(x))
            if y is not None:
                halves += recover_y(split.curve, x, P, y)
    return list(dict.fromkeys(halves))


def _targets(curve, G):
    chain = [G]
    for _ in range(4):
        chain.append(curve.double(chain[-1]))
    return chain + [curve.neg(P) for P in chain] + [INFINITY]


def test_rational_halves_match_the_recover_y_route():
    # congruent curves y^2 = x^3 - n^2 x with a point G of infinite order:
    # 2^k G for k <= 4, their negatives, the order-2 points and infinity
    checked = 0
    for n, G in ((5, Point(Fraction(-4), Fraction(6))), (6, Point(Fraction(-3), Fraction(9))),
                 (7, Point(Fraction(25), Fraction(120)))):
        split = congruent_curve(n)
        targets = _targets(split.curve, G) + split.two_torsion()
        for P in targets:
            halves = rational_halves(split, P)
            assert halves == _rational_halves_reference(split, P), (n, P)
            checked += len(halves)
    assert checked > 40


def test_rational_halves_of_order_two_targets_keep_their_order():
    # y^2 = x(x + 1)(x + 4): (0, 0) has the four halves (2, +-6), (-2, +-2),
    # which are halved in turn
    split = SplitCurveQ(0, -1, -4)
    P = Point(Fraction(0), Fraction(0))
    halves = rational_halves(split, P)
    assert halves == _rational_halves_reference(split, P)
    assert halves == [Point(2, 6), Point(2, -6), Point(-2, 2), Point(-2, -2)]
    for Q in halves:
        assert rational_halves(split, Q) == _rational_halves_reference(split, Q)


# -- over F_p: the triple itself, and y^2 = rhs(x) -------------------------------


@functools.lru_cache(maxsize=None)
def _context(p, degree):
    rng = random.Random(p * 4 + degree + 1)
    fp = PrimeField(p)
    while True:
        a2, a4, a6 = (rng.randrange(p) for _ in range(3))
        if not Curve(fp(a2), fp(a4), fp(a6)).discriminant():
            continue
        ctx = FpHalvingField(p, Curve(a2, a4, a6))
        if ctx.extension_degree == degree:
            return ctx


def _check_triple(ctx, P):
    """The triple with the point's y equals the triple without it, root types
    included, and each candidate's y from the triple squares to rhs(x).  A
    point with a difference that has no root in F_{p^D} has no half: both
    give None and ``halve_with_info`` reports no candidates."""
    x0 = ctx.lift(P.x)
    hinted = sqrt_triple(x0, ctx.roots, ctx.sqrt_total, ctx._conjugates, ctx.lift(P.y))
    plain = sqrt_triple(x0, ctx.roots, ctx.sqrt_total, ctx._conjugates)
    assert hinted == plain
    if any(ext_sqrt(d) is None for d in ctx.roots.differences(x0)):
        assert hinted is None and plain is None
        halves, info = ctx.halve_with_info(P)
        assert halves == [] and info["candidates_in_base"] is None
        return
    assert [type(r) for r in vars(hinted).values()] == [type(r) for r in vars(plain).values()]
    e0, sq = ctx.roots.e0, hinted
    for i, x in enumerate(candidate_xs(x0, sq)):
        y = (x - e0) * (sq.alpha + sq.beta if i < 2 else sq.alpha - sq.beta)
        assert y * y == ctx.curve.rhs(x)


@pytest.mark.parametrize("p", PRIMES[:2])
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_triple_unchanged_by_the_norm_root_on_every_point(p, degree):
    ctx = _context(p, degree)
    for P in enumerate_points(p, ctx.curve)[1:]:
        _check_triple(ctx, P)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES[2:]), st.sampled_from((1, 2, 3)), st.integers(0, 2**255))
def test_triple_unchanged_by_the_norm_root_at_benchmark_primes(p, degree, x):
    ctx = _context(p, degree)
    fp = ctx.fp
    for i in range(128):
        y = fp_sqrt(ctx.curve.rhs(fp(x + i)))
        if y is not None:
            break
    R = Point(fp(x + i), y)
    for P in (R, ctx.curve.double(R)):
        _check_triple(ctx, P)


# -- ext_sqrt with the root of the norm given ------------------------------------


def _field(p, degree):
    # X^D + X + c for the first irreducible one
    for c in range(1, p):
        try:
            return ExtField(p, [c, 1] + [0] * (degree - 2) + [1])
        except ValueError:
            pass


FIELDS = [ExtField(p, [0, 1]) for p in PRIMES] + [_field(p, d) for p in PRIMES for d in (2, 3)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.p.bit_length()}bit.d{f.degree}")
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_given_norm_root_gives_the_same_root(field, data):
    x = field(data.draw(st.lists(st.integers(1, field.p - 1), min_size=field.degree,
                                 max_size=field.degree)))
    a = x * x
    n = fp_sqrt(_norm(a))
    assert ext_sqrt(a, _norm_root=n) == ext_sqrt(a, _norm_root=-n) == ext_sqrt(a)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.p.bit_length()}bit.d{f.degree}")
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_wrong_norm_root_raises(field, data):
    # a root that does not square to N(a), on squares and non-squares alike;
    # an a in F_p inside F_{p^2} takes its root with no norm, so not there
    x = field(data.draw(st.lists(st.integers(1, field.p - 1), min_size=field.degree,
                                 max_size=field.degree)))
    for a in (x * x, x * x * choose_nonresidue(field)):
        if field.degree == 2 and project_to_fp(a) is not None:
            continue
        norm = _norm(a)
        n = fp_sqrt(norm) or norm  # a non-square norm has no root to start from
        wrong = next(w for w in (n + 1, n + 2, n + 3) if w * w != norm)
        with pytest.raises(ArithmeticError):
            ext_sqrt(a, _norm_root=wrong)
