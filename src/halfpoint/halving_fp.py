"""End-to-end halving of points on curves over F_p.

The right-hand cubic is factored over F_p; its roots live in an extension
F_{p^D} with D the lcm of the factor degrees (1, 2 or 3).  The halving
engine runs there and keeps exactly the candidates that land back in F_p.
If Q in E(F_p) doubles to P, every difference x0 - e_i is a square in
F_{p^D} (the duplication formula), so a difference with no root there
shows that P has no half and the engine stops at it; the quadratic tower
F_{p^(2D)} of ``extfield`` is never climbed.  An exhaustive oracle and the
odd-order shortcut (P/2 = ((m+1)/2) * P) are provided for cross-checking.
"""

from functools import reduce
from math import lcm
from operator import mul

from .curves import INFINITY, Curve, Point
from .extfield import ExtField, _canon, ext_sqrt, frobenius, project_to_fp
# sqrt_triple, candidate_xs and recover_y are called by halve_point, and
# sqrt_in_tower not at all: perfbench's tracer patches them under this
# module's name as well
from .extfield import sqrt_in_tower
from .halving import (
    candidate_xs,
    halve_point,
    recover_y,
    root_triple_from_roots,
    sqrt_triple,
)
from .primefield import PrimeField, cubic_roots_fp, fp_sqrt, legendre

BRUTE_FORCE_LIMIT = 10 ** 4


def _coerce_curve(p, curve):
    # the curve over F_p, and F_p as its field
    curve = Curve(*map(PrimeField(p), (curve.a2, curve.a4, curve.a6)))
    return curve.field, curve


def _conjugate_root(r):
    # x0 lies in F_p, so (x0 - e)^p = x0 - e^p: the Frobenius image of a
    # root of x0 - e, with ext_sqrt's sign, is the root of x0 - e^p
    return _canon(frobenius(r))


class FpHalvingField:
    """Per-curve working data: cubic factorization and extension field.

    Building one of these is the expensive step; halving individual points
    afterwards reuses it, which is what the decryption loop relies on.
    The curve alone decides it; there is no setting.  As the halving
    engine's backend it takes every square root in F_{p^D}
    (``sqrt_total``), and a root in F_p is one of those retracted.
    """

    def __init__(self, p, curve):
        self.fp, self.curve = _coerce_curve(p, curve)
        self.curve.validate()
        self.p = p
        a2, a4, a6 = self.curve.a2, self.curve.a4, self.curve.a6
        fp_roots, degrees = cubic_roots_fp(a2, a4, a6)
        self.fp_roots = fp_roots
        self.factor_degrees = degrees
        self.extension_degree = lcm(*degrees)

        # one square root per Frobenius orbit of the roots: sqrt_triple
        # takes alpha and beta as conjugates where e1 = e0^p and e2 = e1^p
        if self.extension_degree == 1:
            ext = ExtField(self.fp, [0, 1])
            e0, e1, e2 = (ext(r) for r in fp_roots)
            self._conjugates = (None, None)
        elif self.extension_degree == 2:
            # deflate the cubic by its one rational root; the quotient is the
            # irreducible quadratic that defines the extension
            r = fp_roots[0]
            b = a2 + r
            c = a4 + r * b
            ext = ExtField(self.fp, [c.value, b.value, 1])
            e0 = ext(r)
            e1 = ext.gen()
            e2 = frobenius(e1)
            self._conjugates = (None, _conjugate_root)
        else:
            ext = ExtField(self.fp, [a6.value, a4.value, a2.value, 1])
            e0 = ext.gen()
            e1 = frobenius(e0)
            e2 = frobenius(e1)
            self._conjugates = (_conjugate_root, _conjugate_root)

        self.extension = ext
        self.roots = root_triple_from_roots(e0, e1, e2)
        # Vieta cross-check against the curve coefficients
        if e0 + e1 + e2 != -ext(a2) or e0 * e1 * e2 != -ext(a6):
            raise ArithmeticError("root embedding failed the Vieta identities")

    # -- backend protocol for the halving engine ------------------------------

    def lift(self, x):
        return self.extension(x)

    @staticmethod
    def retract(x):
        return project_to_fp(x)

    @staticmethod
    def sqrt_total(x, y0=None, before=()):
        """Square root of x in F_{p^D}, or None when x has none there.

        With ``sqrt_triple``'s y0 and the roots taken before x's, n = y0
        over their product squares to x times the differences whose roots
        the conjugate maps take after x's.  With this context's own maps
        those are x's conjugates, so n squares to N(x) and is the root of
        N(x) that ``ext_sqrt`` would take.  n lies outside F_p only for
        D = 2, when gamma does: then x0 - e0 is a non-residue in F_p, so is
        N(x) = y0^2 / (x0 - e0), and x has no root in F_{p^2}.
        """
        if y0 is None:
            return ext_sqrt(x)
        n = project_to_fp(y0 / reduce(mul, before) if before else y0)
        return None if n is None else ext_sqrt(x, _norm_root=n)

    def two_torsion(self):
        return [Point(r, self.fp(0)) for r in self.fp_roots]

    # -- halving ---------------------------------------------------------------

    def halve_with_info(self, P):
        """Halve P and report how: factor degrees, D, candidates in F_p.

        ``candidates_in_base`` counts the four candidate x-values that lie
        in F_p.  It is None when no candidates were formed: at infinity,
        and when a difference x0 - e_i has no square root in F_{p^D}, so
        that P has no half.
        """
        halves, base_xs = halve_point(self, P)
        return halves, {
            "factor_degrees": self.factor_degrees,
            "extension_degree": self.extension_degree,
            "candidates_in_base": None if base_xs is None else sum(x is not None for x in base_xs),
        }

    def halve(self, P):
        return self.halve_with_info(P)[0]


def enumerate_points(p, curve):
    """Every point of E(F_p) including infinity; p is budget-guarded."""
    if p > BRUTE_FORCE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at p <= {BRUTE_FORCE_LIMIT}")
    fp, curve = _coerce_curve(p, curve)
    pts = [INFINITY]
    for x in range(p):
        fx = fp(x)
        rhs = curve.rhs(fx)
        if not rhs:
            pts.append(Point(fx, fp(0)))
            continue
        y = fp_sqrt(rhs)
        if y is not None:
            pts.append(Point(fx, y))
            pts.append(Point(fx, -y))
    return pts


def brute_force_halves(p, curve, P):
    """Oracle: scan every point Q and keep those with 2Q = P."""
    fp, curve = _coerce_curve(p, curve)
    out = []
    for Q in enumerate_points(p, curve):
        D = INFINITY if Q is INFINITY else curve._add_raw(Q, Q)
        if D == P or (D is INFINITY and P is INFINITY):
            out.append(Q)
    return out


def group_order_bf(p, curve):
    """|E(F_p)| by the character sum over all x (budget-guarded)."""
    if p > BRUTE_FORCE_LIMIT:
        raise ValueError(f"exhaustive count capped at p <= {BRUTE_FORCE_LIMIT}")
    fp, curve = _coerce_curve(p, curve)
    total = p + 1
    for x in range(p):
        total += legendre(curve.rhs(fp(x)))
    return total


def halve_via_order(curve, P, m):
    """P/2 = ((m+1)/2) * P when the group order m is odd.

    The order is trusted input, validated only by m * P = infinity; for odd
    m this returns the unique half of P.
    """
    if m % 2 == 0:
        raise ValueError("group order must be odd for the doubling map to invert")
    if curve.scalar_mul(m, P) is not INFINITY:
        raise ValueError("claimed order does not annihilate the point")
    return curve.scalar_mul((m + 1) // 2, P)
