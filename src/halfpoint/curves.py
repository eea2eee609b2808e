"""Elliptic curves y^2 = x^3 + a2*x^2 + a4*x + a6 in affine coordinates,
with the full chord-tangent group law.

The coordinate type is anything whose elements support +, -, *, / and
mixing with small ints: Fraction, FpElem, ExtElem, TowerElem or complex.
The same law therefore serves the exact backends and the numeric one.
"""

from fractions import Fraction
from typing import NamedTuple

from .exact import rational_roots_cubic
from .primefield import PrimeField, cubic_roots_fp


class SingularCurveError(ValueError):
    """The discriminant vanishes; there is no group law to speak of."""


class PointNotOnCurveError(ValueError):
    """A supplied point does not satisfy the curve equation."""


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


#: The identity of the group law (the point at infinity).
INFINITY = _Infinity()


class Point(NamedTuple):
    x: object
    y: object


class Curve:
    """A nonsingular curve in one of three shapes: a2 = 0, a6 = 0, or general.

    ``field`` is the constructor of the one field that the coefficients and
    every point's coordinates live in: the ``.field`` of the first
    coefficient that has one (a ``PrimeField`` or an ``ExtField``), else
    ``complex`` or ``float`` if any coefficient is one, else ``Fraction``.
    All three coefficients pass through it, and so do the coordinates of a
    point given to ``add``, ``double`` or ``scalar_mul``; a value the field
    does not take (1/2 mod p, say) raises there.  ``exact`` is False for
    the floating-point fields.
    """

    __slots__ = ("a2", "a4", "a6", "field", "exact")

    def __init__(self, a2, a4, a6):
        coeffs = (a2, a4, a6)
        field = next((c.field for c in coeffs if hasattr(c, "field")), None)
        if field is None:
            kinds = set(map(type, coeffs))
            field = complex if complex in kinds else float if float in kinds else Fraction
        self.a2, self.a4, self.a6 = map(field, coeffs)
        self.field = field
        self.exact = field not in (complex, float)

    def _norm(self, P):
        # coordinates into the coefficient field, so the chord slope below
        # never falls back to float division or mixes two fields
        if P is INFINITY:
            return P
        try:
            return Point(self.field(P.x), self.field(P.y))
        except TypeError:  # Fraction(1j) or float(1j): refused like any foreign value
            raise ValueError(f"point {P} does not lie in the curve's field") from None

    @property
    def form(self):
        if not self.a2:
            return "A46"
        if not self.a6:
            return "A24"
        return "general"

    def discriminant(self):
        # discriminant of the monic cubic in x (zero iff a repeated root)
        a, b, c = self.a2, self.a4, self.a6
        return 18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c

    def validate(self):
        """Raise SingularCurveError if the right-hand cubic has a repeated root."""
        if not self.discriminant():
            raise SingularCurveError(
                f"singular curve: repeated root in x^3 + {self.a2}*x^2 + {self.a4}*x + {self.a6}"
            )
        return self

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def contains(self, P):
        if P is INFINITY:
            return True
        lhs, rhs = P.y * P.y, self.rhs(P.x)
        if self.exact:
            return lhs == rhs
        scale = 1 + abs(lhs) + abs(rhs)
        return abs(lhs - rhs) <= 1e-9 * scale

    def require_point(self, P):
        if not self.contains(P):
            raise PointNotOnCurveError(f"point {P} is not on the curve")
        return P

    # -- group law -----------------------------------------------------------

    def _add_raw(self, P, Q):
        if P is INFINITY:
            return Q
        if Q is INFINITY:
            return P
        if P.x == Q.x:
            if not (P.y + Q.y):
                # vertical chord, or tangent at a point of order 2
                return INFINITY
            lam = (3 * P.x * P.x + 2 * self.a2 * P.x + self.a4) / (2 * P.y)
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        x3 = lam * lam - self.a2 - P.x - Q.x
        return Point(x3, lam * (P.x - x3) - P.y)

    def add(self, P, Q):
        P, Q = self._norm(P), self._norm(Q)
        self.require_point(P)
        self.require_point(Q)
        return self._add_raw(P, Q)

    def neg(self, P):
        if P is INFINITY:
            return INFINITY
        return Point(P.x, -P.y)

    def double(self, P):
        P = self._norm(P)
        self.require_point(P)
        return self._add_raw(P, P)

    def scalar_mul(self, n, P):
        P = self._norm(P)
        self.require_point(P)
        if n < 0:
            n, P = -n, self.neg(P)
        acc = INFINITY
        while n:
            if n & 1:
                acc = self._add_raw(acc, P)
            P = self._add_raw(P, P)
            n >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and other.a2 == self.a2
            and other.a4 == self.a4
            and other.a6 == self.a6
        )

    def __hash__(self):
        return hash((Curve, self.a2, self.a4, self.a6))

    def __repr__(self):
        return f"Curve(a2={self.a2!r}, a4={self.a4!r}, a6={self.a6!r})"


def _complex_cubic_roots(a2, a4, a6):
    """The three roots of x^3 + a2*x^2 + a4*x + a6 over C, by Durand-Kerner.

    Each sweep moves every estimate z by -f(z) / ((z - u)(z - v)), u and v
    the other two estimates; the start is a circle of the Cauchy bound
    1 + max |a_i|.  Convergence is quadratic at simple roots, so one sweep
    after the steps fall below 1e-12 reaches rounding level.
    """
    c2, c4, c6 = complex(a2), complex(a4), complex(a6)
    radius = 1 + max(abs(c2), abs(c4), abs(c6))
    zs = [radius * (0.4 + 0.9j) ** k for k in range(3)]
    settled = False
    for _ in range(100):  # bounds the linear convergence at a repeated root
        moved = 0.0
        for i in range(3):
            z, u, v = zs[i], zs[i - 1], zs[i - 2]
            step = (((z + c2) * z + c4) * z + c6) / ((z - u) * (z - v))
            zs[i] = z - step
            moved = max(moved, abs(step) / (1 + abs(z)))
        if settled:
            break
        settled = moved <= 1e-12
    return zs


def _cubic_roots_in_field(curve):
    # roots of the right-hand cubic in the curve's own coefficient field
    a2, a4, a6 = curve.a2, curve.a4, curve.a6
    if isinstance(curve.field, PrimeField):
        roots, _ = cubic_roots_fp(a2, a4, a6)
        return sorted(roots, key=int)
    if not curve.exact:
        return sorted(_complex_cubic_roots(a2, a4, a6), key=lambda z: (z.real, z.imag))
    return sorted(rational_roots_cubic(a2, a4, a6))


def two_torsion(curve):
    """All points of order 2: one (e, 0) per root e of the cubic in the field."""
    return [Point(e, e * 0) for e in _cubic_roots_in_field(curve)]


def depress_shift(curve):
    """Move the curve into a supported shape by the substitution x -> x + s.

    Returns ``(shifted, s)``.  A point (x, y) on the original curve
    corresponds to (x - s, y) on the shifted one.  Curves already of a
    supported shape are returned unchanged with s = 0.  When the cubic has
    a root in the field the smallest root is shifted to 0 (a6 becomes 0);
    otherwise s = -a2/3 clears the quadratic term instead.
    """
    a2, a4, a6 = curve.a2, curve.a4, curve.a6
    if not a2 or not a6:
        return curve, a2 * 0
    roots = _cubic_roots_in_field(curve)
    if roots:
        # exactly 0, where rhs(s) of a floating-point root would be ~1e-16
        s, shifted_a6 = roots[0], 0
    else:
        s = -a2 / 3
        shifted_a6 = curve.rhs(s)
    return Curve(a2 + 3 * s, 3 * s * s + 2 * a2 * s + a4, shifted_a6), s
