import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpoint.curves import INFINITY, Curve, Point
from halfpoint.exact import rational_sqrt
from halfpoint.halving import (
    candidate_xs,
    candidate_xs_products,
    meeting_x,
    recover_y,
    root_triple_a24,
    root_triple_a46,
    root_triple_from_roots,
    sqrt_triple,
)
from halfpoint.halving_fp import enumerate_points
from halfpoint.primefield import PrimeField, fp_sqrt

ROOTS36 = root_triple_from_roots(Fraction(0), Fraction(6), Fraction(-6))
X0 = Fraction(25, 4)


def test_root_triple_from_roots_vieta():
    assert (ROOTS36.e0, ROOTS36.e1, ROOTS36.e2) == (0, 6, -6)
    assert ROOTS36.k == 36  # -(a4 + 3 e0^2) with a4 = -36
    assert ROOTS36.differences(X0) == (Fraction(25, 4), Fraction(1, 4), Fraction(49, 4))


def test_root_triple_a46_recovers_the_pair():
    roots = root_triple_a46(Fraction(0), Fraction(-36), rational_sqrt)
    assert (roots.e0, roots.e1, roots.e2, roots.k) == (0, 6, -6, 36)


def test_root_triple_a46_unsplit_quadratic():
    with pytest.raises(ValueError):
        root_triple_a46(Fraction(0), Fraction(1), rational_sqrt)


def test_root_triple_a24():
    # y^2 = x^3 - x^2 - 6x has roots 0, 3, -2
    roots = root_triple_a24(Fraction(-1), Fraction(-6), rational_sqrt)
    assert (roots.e0, roots.e1, roots.e2) == (0, 3, -2)
    assert roots.k == 6  # -a4


def test_sqrt_triple_reference_values():
    sq = sqrt_triple(X0, ROOTS36, rational_sqrt)
    assert (sq.gamma, sq.alpha, sq.beta) == (Fraction(5, 2), Fraction(1, 2), Fraction(7, 2))


def test_sqrt_triple_missing_root():
    assert sqrt_triple(Fraction(-3), ROOTS36, rational_sqrt) is None


def test_candidate_xs_reference_values():
    sq = sqrt_triple(X0, ROOTS36, rational_sqrt)
    assert candidate_xs(X0, sq) == (18, -2, -3, 12)


def test_candidate_xs_products_reference_values():
    cands, data = candidate_xs_products(X0, ROOTS36, rational_sqrt)
    assert (data.t, data.w, data.w1, data.w2) == (
        Fraction(49, 16), Fraction(7, 4), 10, Fraction(15, 2))
    assert set(cands) == {18, -2, -3, 12}
    # the product route preserves the chord pairing, not just the set
    sq = sqrt_triple(X0, ROOTS36, rational_sqrt)
    direct = candidate_xs(X0, sq)
    assert {frozenset(cands[:2]), frozenset(cands[2:])} == {
        frozenset(direct[:2]), frozenset(direct[2:])}


def test_sign_flips_leave_candidate_set_invariant():
    sq = sqrt_triple(X0, ROOTS36, rational_sqrt)
    want_set = frozenset(candidate_xs(X0, sq))
    want_pairs = {frozenset(candidate_xs(X0, sq)[:2]), frozenset(candidate_xs(X0, sq)[2:])}
    for signs in itertools.product((1, -1), repeat=3):
        cands = candidate_xs(X0, sq.flipped(*signs))
        assert frozenset(cands) == want_set
        assert {frozenset(cands[:2]), frozenset(cands[2:])} == want_pairs


def test_meeting_x_reference_value():
    assert meeting_x(X0, ROOTS36) == Fraction(-144, 25)


def test_meeting_x_equals_chord_sums():
    curve = Curve(0, -36, 0)
    pairs = [(Point(18, -72), Point(-2, -8)), (Point(-3, 9), Point(12, 36))]
    for A, B in pairs:
        assert curve.add(A, B).x == meeting_x(X0, ROOTS36)


def test_meeting_x_pole():
    with pytest.raises(ValueError):
        meeting_x(Fraction(0), ROOTS36)


def _recover(curve, x, P, sqrt_fn):
    # recover_y with y = sqrt_fn(rhs(x)); a non-square leaves no point at x
    y = sqrt_fn(curve.rhs(x))
    return [] if y is None else recover_y(curve, x, P, y)


def test_recover_y_reference():
    curve = Curve(0, -36, 0)
    P = Point(X0, Fraction(-35, 8))
    assert _recover(curve, Fraction(18), P, rational_sqrt) == [Point(18, -72)]
    assert _recover(curve, Fraction(-3), P, rational_sqrt) == [Point(-3, 9)]
    # x-value whose rhs is not a rational square
    assert _recover(curve, Fraction(2), P, rational_sqrt) == []


@given(st.fractions(max_denominator=6), st.fractions(max_denominator=6),
       st.fractions(max_denominator=6), st.fractions(max_denominator=6))
def test_candidates_double_back_exactly(x0, g, a, b):
    # build a split curve on which every difference is a square by design:
    # e_i = x0 - (square), so P = (x0, g*a*b) is on the curve and halvable
    e = (x0 - g * g, x0 - a * a, x0 - b * b)
    if len({*e}) < 3:
        return
    roots = root_triple_from_roots(*e)
    curve = Curve(-(e[0] + e[1] + e[2]),
                  e[0] * e[1] + e[1] * e[2] + e[2] * e[0],
                  -e[0] * e[1] * e[2])
    P = Point(x0, g * a * b)
    assert curve.contains(P)
    sq = sqrt_triple(x0, roots, rational_sqrt)
    assert sq is not None
    doubled_back = 0
    for xc in candidate_xs(x0, sq):
        for Q in _recover(curve, xc, P, rational_sqrt):
            assert curve.double(Q) == P
            doubled_back += 1
    if P.y != 0:
        assert doubled_back >= 1


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.fractions(max_denominator=8), st.fractions(max_denominator=8))
def test_product_route_matches_direct_route(x0, g, a, b):
    # same construction, restricted to a2 = 0 by recentering the roots
    e = (x0 - g * g, x0 - a * a, x0 - b * b)
    if len({*e}) < 3:
        return
    shift = (e[0] + e[1] + e[2]) / 3
    e = tuple(ei - shift for ei in e)
    x0 = x0 - shift
    roots = root_triple_from_roots(*e)
    sq = sqrt_triple(x0, roots, rational_sqrt)
    assert sq is not None  # differences are shift-invariant, so still squares
    direct = candidate_xs(x0, sq)
    out = candidate_xs_products(x0, roots, rational_sqrt)
    assert out is not None
    cands, data = out
    assert data.t == (x0 - roots.e1) * (x0 - roots.e2)
    assert set(cands) == set(direct)


# -- one doubling per candidate, against the two-doubling route ----------------


def _two_doubling_recover_y(curve, x_half, P, sqrt_fn):
    # both signs doubled separately, as recover_y did before
    y = sqrt_fn(curve.rhs(x_half))
    if y is None:
        return []
    out = []
    for yc in (y, -y) if y else (y,):
        Q = Point(x_half, yc)
        if curve._add_raw(Q, Q) == P:
            out.append(Q)
    return out


def _assert_same_recovery(curve, xs, targets, sqrt_fn):
    for P in targets:
        for x in xs:
            assert _recover(curve, x, P, sqrt_fn) == _two_doubling_recover_y(curve, x, P, sqrt_fn)


def test_recover_y_matches_two_doublings_over_q():
    # congruent curves y^2 = x^3 - n^2 x with a point G of infinite order;
    # targets 2^k G for k <= 4, their negatives, infinity and the order-2
    # points; x-values the halves' own, G's, the targets' and plain misses
    for n, G in ((5, Point(Fraction(-4), Fraction(6))), (6, Point(Fraction(-3), Fraction(9))),
                 (7, Point(Fraction(25), Fraction(120)))):
        curve = Curve(0, -n * n, 0)
        chain = [G]
        for _ in range(4):
            chain.append(curve.double(chain[-1]))
        order2 = [Point(Fraction(e), Fraction(0)) for e in (0, n, -n)]
        targets = chain[1:] + [curve.neg(P) for P in chain[1:]] + order2 + [INFINITY]
        xs = [P.x for P in chain] + [Fraction(e) for e in (0, n, -n, 1, 2 * n)] + [Fraction(-1, 4)]
        _assert_same_recovery(curve, xs, targets, rational_sqrt)


def test_recover_y_keeps_both_signs_at_order_two():
    # y^2 = x(x + 1)(x + 4): (0, 0) has the halves (2, +-6) and (-2, +-2)
    curve = Curve(5, 4, 0)
    P = Point(Fraction(0), Fraction(0))
    assert recover_y(curve, Fraction(2), P, Fraction(6)) == [Point(2, 6), Point(2, -6)]
    assert recover_y(curve, Fraction(-2), P, Fraction(2)) == [Point(-2, 2), Point(-2, -2)]
    assert recover_y(curve, Fraction(-2), P, Fraction(-2)) == [Point(-2, -2), Point(-2, 2)]
    assert recover_y(curve, Fraction(-1), P, Fraction(0)) == []  # y = 0 doubles to infinity
    assert recover_y(curve, Fraction(-1), INFINITY, Fraction(0)) == [Point(-1, 0)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_recover_y_matches_two_doublings_over_small_prime_fields(p):
    # every curve with a2 in {0, 1}, every point as the target, every x
    fp = PrimeField(p)
    for a2, a4, a6 in itertools.product((0, 1), range(p), range(p)):
        curve = Curve(fp(a2), fp(a4), fp(a6))
        if not curve.discriminant():
            continue
        points = enumerate_points(p, curve)
        _assert_same_recovery(curve, [fp(x) for x in range(p)], points, fp_sqrt)
