"""Core point-halving machinery, generic over a field backend.

Given P = (x0, y0) on y^2 = x^3 + a2*x^2 + a4*x + a6, every Q with
2Q = P is built from the roots e0, e1, e2 of the right-hand cubic and
from square roots of the three differences x0 - e_i, its x and its y
alike.  A backend supplies those roots and square roots (exact over
the rationals, extension-field over F_p); everything in this module is
pure algebra on top of that.  ``halve_point`` is the one loop that turns
them into verified halves, over Q and over F_p alike, and hands back with
them only the candidates' base-field x; each half's y comes from the
square-root triple.  The complex numbers use the formulas directly
(``complexcheck``), since an exact ``2Q == P`` never holds in floating
point.
"""

from dataclasses import dataclass

from .curves import INFINITY, Point


@dataclass(frozen=True)
class RootTriple:
    """Roots of the 2-division cubic, plus the constant k = -(a4 + 3*e0^2).

    e0 is the distinguished root: the curve's order-2 x-coordinate that the
    candidate formulas are anchored to.
    """

    e0: object
    e1: object
    e2: object
    k: object

    def differences(self, x0):
        return x0 - self.e0, x0 - self.e1, x0 - self.e2


@dataclass(frozen=True)
class SqrtTriple:
    """Square roots gamma, alpha, beta of x0-e0, x0-e1, x0-e2."""

    gamma: object
    alpha: object
    beta: object

    def flipped(self, s0, s1, s2):
        """The same triple with signs flipped per the +/-1 pattern given."""
        return SqrtTriple(s0 * self.gamma, s1 * self.alpha, s2 * self.beta)


@dataclass(frozen=True)
class ProductSqrtData:
    """Intermediates of the product route: w^2 = t = (x0-e1)(x0-e2)."""

    t: object
    w: object
    w1: object
    w2: object


def root_triple_from_roots(e0, e1, e2):
    """RootTriple from explicitly known roots; k comes out of Vieta."""
    a4 = e0 * e1 + e1 * e2 + e2 * e0
    return RootTriple(e0, e1, e2, -(a4 + 3 * e0 * e0))


def root_triple_a46(d, a4, sqrt_fn):
    """RootTriple for a curve with a2 = 0, from one known root d.

    The other two roots come from the quadratic formula: their sum is -d
    and their product is a4 + d^2.
    """
    k = -(a4 + 3 * d * d)
    s = sqrt_fn(9 * d * d + 4 * k)
    if s is None:
        raise ValueError("remaining quadratic does not split in this field")
    return RootTriple(d, (-d + s) / 2, (-d - s) / 2, k)


def root_triple_a24(a2, a4, sqrt_fn):
    """RootTriple for a curve with a6 = 0: e0 = 0 is already a root."""
    s = sqrt_fn(a2 * a2 - 4 * a4)
    if s is None:
        raise ValueError("remaining quadratic does not split in this field")
    zero = a2 * 0
    return RootTriple(zero, (-a2 + s) / 2, (-a2 - s) / 2, -a4)


def sqrt_triple(x0, roots, sqrt_fn, conjugates=(None, None), y0=None):
    """Square roots of the three differences, or None at the first missing.

    If a point Q over the base field doubles to P = (x0, y0), every
    x0 - e_i is a square in the roots' field (the duplication formula), so
    a missing root shows that P has no half, and no backend looks for one
    beyond that field.

    ``conjugates`` may replace the square roots of alpha and beta: a map
    given in its place takes the root before it (gamma, resp. alpha) to
    this one.  Over F_p, when e1 = e0^p the difference x0 - e1 is the
    Frobenius image of x0 - e0, so alpha is +/- gamma^p; the map must then
    also apply the sign rule of ``sqrt_fn``.

    ``y0`` is the y of the point at x0, if the caller has it.  The three
    differences multiply to rhs(x0) = y0^2, so when y0 is nonzero the last
    root that ``sqrt_fn`` takes, of the difference d, is taken as
    ``sqrt_fn(d, y0, before)``, ``before`` the roots taken so far.  y0 over
    their product squares to d times the differences whose roots the maps
    take after it: to d alone when no map follows, to d's norm over F_p
    when the maps are Frobenius images.  ``sqrt_fn`` may use that root or
    ignore it.
    """
    to_alpha, to_beta = conjugates
    last = 2 if to_beta is None else 1 if to_alpha is None else 0
    sq = []
    for i, (e, to_root) in enumerate(zip((roots.e0, roots.e1, roots.e2), (None, *conjugates))):
        if to_root is not None:
            r = to_root(sq[-1])
        elif i == last and y0:
            r = sqrt_fn(x0 - e, y0, tuple(sq))
        else:
            r = sqrt_fn(x0 - e)
        if r is None:
            return None
        sq.append(r)
    return SqrtTriple(*sq)


def candidate_xs(x0, sq):
    """The four candidate x-values, ordered as (x11, x12, x21, x22).

    The pairs {x11, x12} and {x21, x22} are meaningful: the chords through
    the corresponding points meet at the meeting point (see meeting_x).
    As a set the four values do not depend on the sign choices in sq.
    """
    ab = sq.alpha * sq.beta
    gs = sq.gamma * (sq.alpha + sq.beta)
    gd = sq.gamma * (sq.alpha - sq.beta)
    return (x0 + ab + gs, x0 + ab - gs, x0 - ab + gd, x0 - ab - gd)


def candidate_xs_products(x0, roots, sqrt_fn):
    """The same four candidates via square roots of products of differences.

    Only valid when a2 = 0 (so e0 + e1 + e2 = 0): then
    t = x0^2 + e0*x0 - 2e0^2 - k equals (x0-e1)(x0-e2), w = sqrt(t) is
    alpha*beta up to sign, and w1, w2 recover gamma*(alpha +/- beta).
    Returns (candidates, ProductSqrtData) or None when a root is missing.
    """
    e0, k = roots.e0, roots.k
    t = x0 * x0 + e0 * x0 - 2 * e0 * e0 - k
    w = sqrt_fn(t)
    if w is None:
        return None
    w1 = sqrt_fn((x0 - e0) * (e0 + 2 * w + 2 * x0))
    if w1 is None:
        return None
    w2 = sqrt_fn((x0 - e0) * (e0 - 2 * w + 2 * x0))
    if w2 is None:
        return None
    cands = (x0 + w + w1, x0 + w - w1, x0 - w + w2, x0 - w - w2)
    return cands, ProductSqrtData(t, w, w1, w2)


def meeting_x(x0, roots):
    """x-coordinate of the point where the two candidate-pair chords meet.

    Equals e0 + k/(e0 - x0), which is also the x-coordinate of the sum of
    either candidate pair under the group law (for curves with a2 = 0; for
    curves with a6 = 0 it reduces to a4/x0).  Undefined at x0 = e0.
    """
    den = roots.e0 - x0
    if not den:
        raise ValueError("meeting point undefined: x0 equals the distinguished root")
    return roots.e0 + roots.k / den


def recover_y(curve, x_half, P, y):
    """All points (x_half, +/-y) that double exactly to P.

    ``y`` is a square root of rhs(x_half) in the base field, of either
    sign.  Zero, one, or two points: a point of order 2 has its halves in
    +/- y pairs that share an x-coordinate, so both signs must be kept, in
    the order of y's sign.  One doubling decides both signs, since
    2(x, -y) = -2(x, y) exactly: (x, y) is kept if its double is P,
    (x, -y) if it is -P.
    """
    Q = Point(x_half, y)
    D = curve._add_raw(Q, Q)
    out = [Q] if D == P else []
    if y and D == curve.neg(P):
        out.append(Point(x_half, -y))
    return out


def halve_point(ctx, P):
    """All Q in the context's target field with 2Q = P, each verified by
    doubling, as ``(halves, base_xs)``.  ``base_xs`` holds the four
    candidates' x in the base field, None for one outside it, and is None
    itself when no candidates were formed.  For P at infinity the halves
    are infinity itself plus the order-2 points.  When a difference
    x0 - e_i has no square root in the roots' field there is no half, and
    the result is ``([], None)``.

    The whole half comes from the square-root triple (gamma, alpha, beta),
    which ``sqrt_triple`` takes with P's y as its y0.  A candidate x has
    x - e0 = (gamma +- alpha)(gamma +- beta), and y = (x - e0)(alpha + beta)
    for x11 and x12, (x - e0)(alpha - beta) for x21 and x22, squares to
    rhs(x): if that y lies in the base field ``recover_y`` takes it, and
    if not there is no half at x.  For P of order 2 the sign decides the
    order of the two halves at x, so there y is the backend's own root of
    rhs(x), ``sqrt_total`` of its lift retracted: over F_p that is
    ``fp_sqrt``'s root, sign included, and None for a non-square.

    The context is a backend for one curve (``SplitCurveQ`` over Q,
    ``FpHalvingField`` over F_p).  It holds ``curve``, nonsingular and
    checked once when the context was built, ``roots``, the root triple
    of its cubic, and ``_conjugates``, the pair passed on to
    ``sqrt_triple``.  It provides ``lift`` (base field -> the roots'
    field), ``retract`` (back, or None), ``sqrt_total`` for the three
    differences and for rhs(x) at order-2 targets (a root in the roots'
    field or None, taking ``sqrt_triple``'s y0 and roots before as
    optional arguments) and ``two_torsion()``, and it writes no state
    during a call.
    """
    if P is INFINITY:
        return [INFINITY] + ctx.two_torsion(), None
    curve = ctx.curve
    P = curve._norm(P)
    curve.require_point(P)
    x0 = ctx.lift(P.x)
    sq = sqrt_triple(x0, ctx.roots, ctx.sqrt_total, ctx._conjugates, ctx.lift(P.y))
    if sq is None:
        return [], None
    xs = candidate_xs(x0, sq)
    base_xs = tuple(map(ctx.retract, xs))
    e0 = ctx.roots.e0
    sums = (sq.alpha + sq.beta, sq.alpha - sq.beta)
    halves = []
    seen = set()
    for i, (x, xt) in enumerate(zip(xs, base_xs)):
        if xt is None or xt in seen:
            continue
        seen.add(xt)
        if P.y:
            y = ctx.retract((x - e0) * sums[i // 2])
        else:
            y = ctx.sqrt_total(ctx.lift(curve.rhs(xt)))
            y = y if y is None else ctx.retract(y)
        if y is not None:
            halves += recover_y(curve, xt, P, y)
    return halves, base_xs
