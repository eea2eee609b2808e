"""The halving formulas over the complex numbers, in double precision:
the closed-form radical construction of a root of the 2-division cubic,
exercised literally, plus a numeric validator that halves a point and
doubles the results back.

This exists to validate the formulas, not to certify results: a half is
judged by a relative residual, never by an exact 2Q == P, so the exact
engine ``halving.halve_point`` is not run over C.  Branch cuts of the
principal square and cube roots are the whole subtlety here.
"""

import cmath

from .curves import INFINITY, Curve, Point, PointNotOnCurveError, SingularCurveError
from .halving import candidate_xs, root_triple_a24, root_triple_a46, sqrt_triple


def _cbrt(z):
    # principal complex cube root
    if z == 0:
        return 0j
    return cmath.exp(cmath.log(z) / 3)


def resolvent_r(a4, a6):
    """r = -9*a6 + sqrt(3)*sqrt(4*a4^3 + 27*a6^2), principal branch.

    When that comes out exactly zero (possible only for a4 = 0) the square
    root's sign is flipped, giving r = -18*a6, which is nonzero on a
    nonsingular curve.
    """
    a4, a6 = complex(a4), complex(a6)
    disc = 4 * a4 ** 3 + 27 * a6 * a6
    if disc == 0:
        raise SingularCurveError("singular curve: 4*a4^3 + 27*a6^2 = 0")
    rt = cmath.sqrt(3) * cmath.sqrt(disc)
    r = -9 * a6 + rt
    if r == 0:
        r = -9 * a6 - rt
    return r


def cardano_d(r, a4, a6=None):
    """A root d of x^3 + a4*x + a6 from the resolvent r.

    With v the principal cube root of r/18, the paired cube root of
    2/(3r) is taken to be 1/(3v), so the two cube roots multiply to
    exactly 1/3; then d = -a4/(3v) + v.  When a6 is supplied the residual
    |d^3 + a4*d + a6| is checked against 1e-9 * (1 + |a4| + |a6|).
    """
    if r == 0:
        raise ValueError("resolvent must be nonzero")
    a4 = complex(a4)
    v = _cbrt(complex(r) / 18)
    d = -a4 / (3 * v) + v
    if a6 is not None:
        residual = abs(d ** 3 + a4 * d + complex(a6))
        if residual > 1e-9 * (1 + abs(a4) + abs(a6)):
            raise ArithmeticError(
                f"cube-root branch pairing failed: residual {residual:.3e}"
            )
    return d


def split_roots_numeric(a4, a6):
    """Numeric root triple for y^2 = x^3 + a4*x + a6 via the radical route."""
    d = cardano_d(resolvent_r(a4, a6), a4, a6)
    return root_triple_a46(d, complex(a4), cmath.sqrt)


class ComplexBackend:
    """The roots of the 2-division cubic over C, for the formulas in ``halving``.

    Only ``root_triple`` is provided: halving over C is the formulas plus a
    residual (``verify_halving_numeric``), not ``halving.halve_point``,
    whose exact check 2Q == P never holds in floating point.
    """

    @staticmethod
    def root_triple(curve):
        if not curve.a2:
            return split_roots_numeric(curve.a4, curve.a6)
        if not curve.a6:
            return root_triple_a24(complex(curve.a2), complex(curve.a4), cmath.sqrt)
        raise ValueError("numeric backend expects a2 = 0 or a6 = 0")


def _rel_residual(Q, P):
    # coordinate-wise deviation of Q from P, relative to P's size
    if Q is INFINITY or P is INFINITY:
        return 0.0 if Q is P else float("inf")
    return max(
        abs(Q.x - P.x) / (1 + abs(P.x)),
        abs(Q.y - P.y) / (1 + abs(P.y)),
    )


def _check_conditioning(a4, a6):
    disc = 4 * a4 ** 3 + 27 * a6 * a6
    scale = 1 + abs(a4) ** 3 + abs(a6) ** 2
    if abs(disc) < 1e-9 * scale:
        raise SingularCurveError(
            f"too close to a singular curve for double precision: |disc| = {abs(disc):.3e}"
        )


def verify_halving_numeric(a4, a6, P):
    """Halve P on y^2 = x^3 + a4*x + a6 numerically and double everything back.

    Returns the largest coordinate-wise relative deviation of 2Q from P
    over the four candidates.  P must satisfy the curve equation to about
    1e-12 relative; inputs too close to the singular locus are refused
    rather than silently mis-validated.
    """
    a4, a6 = complex(a4), complex(a6)
    _check_conditioning(a4, a6)
    curve = Curve(0j, a4, a6)
    x0, y0 = complex(P.x), complex(P.y)
    lhs, rhs = y0 * y0, curve.rhs(x0)
    if abs(lhs - rhs) > 1e-12 * (1 + abs(lhs) + abs(rhs)):
        raise PointNotOnCurveError("point is not on the curve to 1e-12 relative")
    roots = split_roots_numeric(a4, a6)
    sq = sqrt_triple(x0, roots, cmath.sqrt)
    worst = 0.0
    for xc in candidate_xs(x0, sq):
        yc = cmath.sqrt(curve.rhs(xc))
        best = float("inf")
        for y in (yc, -yc):
            Q = Point(xc, y)
            best = min(best, _rel_residual(curve._add_raw(Q, Q), Point(x0, y0)))
        worst = max(worst, best)
    return worst
