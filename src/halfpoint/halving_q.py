"""Halving rational points on curves given in split form
y^2 = (x - e0)(x - e1)(x - e2) with rational e_i.

A rational point P = (x0, y0) has a rational half exactly when the three
differences x0 - e_i are all squares of rationals, and in that case the
halves all show up over the rationals at once.  The congruent-number
family y^2 = x^3 - n^2*x is the classic instance.
"""

from dataclasses import dataclass
from fractions import Fraction

from .curves import INFINITY, Curve, Point, SingularCurveError
from .exact import rational_roots_cubic, rational_sqrt
from .halving import SqrtTriple, halve_point, root_triple_from_roots


class SplitCurveQ:
    """A rational curve whose order-2 x-coordinates e0, e1, e2 are all known.

    e0 plays the role of the distinguished root in the halving formulas;
    the coefficient form is recovered through Vieta.  The root triple is
    built once, and the object is the halving engine's backend over Q
    (see ``halving.halve_point``): every square root is a rational one,
    taken by ``sqrt_total``, so nothing is lifted, retracted or taken as
    a conjugate.
    """

    __slots__ = ("e0", "e1", "e2", "curve", "roots")

    _conjugates = (None, None)

    def __init__(self, e0, e1, e2):
        e0, e1, e2 = Fraction(e0), Fraction(e1), Fraction(e2)
        if len({e0, e1, e2}) != 3:
            raise SingularCurveError("order-2 x-coordinates must be pairwise distinct")
        self.e0, self.e1, self.e2 = e0, e1, e2
        self.curve = Curve(
            -(e0 + e1 + e2),
            e0 * e1 + e1 * e2 + e2 * e0,
            -(e0 * e1 * e2),
        )
        self.roots = root_triple_from_roots(e0, e1, e2)

    @classmethod
    def from_coefficients(cls, a2, a4, a6):
        """Split a coefficient-form curve over the rationals, or fail loudly."""
        roots = rational_roots_cubic(Fraction(a2), Fraction(a4), Fraction(a6))
        if len(roots) != 3:
            raise ValueError("the right-hand cubic does not split over the rationals")
        return cls(*roots)

    # -- backend protocol for the halving engine ------------------------------

    @staticmethod
    def sqrt_total(x, *_):
        # nothing beyond the rationals is available here.  sqrt_triple's y0
        # and roots before give beta as y0/(gamma*alpha), but at large
        # heights that Fraction division costs more than rational_sqrt
        return rational_sqrt(x)

    @staticmethod
    def lift(x):
        return x

    retract = lift

    def two_torsion(self):
        return [Point(e, Fraction(0)) for e in sorted((self.e0, self.e1, self.e2))]

    def __repr__(self):
        return f"SplitCurveQ(e0={self.e0}, e1={self.e1}, e2={self.e2})"


@dataclass(frozen=True)
class HalvabilityResult:
    """Outcome of the three-squares test.

    When halvable, ``witness`` holds the square roots of the three
    differences; otherwise ``failing`` is ``(e_i, x0 - e_i)`` for the first
    difference that is not a rational square.
    """

    halvable: bool
    witness: SqrtTriple | None = None
    failing: tuple | None = None

    def __bool__(self):
        return self.halvable


def is_halvable_q(split, P):
    """Decide whether the rational point P is twice a rational point.

    True exactly when all three differences x0 - e_i are rational squares.
    P at infinity is trivially halvable (it is twice itself).
    """
    if P is INFINITY:
        return HalvabilityResult(True)
    P = split.curve._norm(P)
    split.curve.require_point(P)
    sqrts = []
    for e in (split.e0, split.e1, split.e2):
        r = rational_sqrt(P.x - e)
        if r is None:
            return HalvabilityResult(False, failing=(e, P.x - e))
        sqrts.append(r)
    return HalvabilityResult(True, witness=SqrtTriple(*sqrts))


def rational_halves(split, P):
    """All rational points Q with 2Q = P; empty or the complete set.

    For P at infinity this is infinity plus the three order-2 points.
    """
    return halve_point(split, P)[0]


def congruent_curve(n):
    """The curve y^2 = x^3 - n^2*x as a split curve, for a positive integer n.

    n is a congruent number exactly when this curve has a rational point
    with nonzero y; halving connects such points to smaller ones.
    """
    if n < 1:
        raise SingularCurveError("n must be a positive integer")
    return SplitCurveQ(0, n, -n)
