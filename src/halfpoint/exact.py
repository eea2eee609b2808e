"""Exact arithmetic helpers on top of Python's unbounded integers and
:class:`fractions.Fraction`: integer square roots with an exactness flag,
square roots of rationals, and the rational roots of a cubic polynomial.
"""

from fractions import Fraction
from math import isqrt, lcm


def isqrt_exact(n):
    """Return ``(r, exact)`` with ``r*r <= n < (r+1)*(r+1)``.

    ``exact`` is True iff n is a perfect square.  Raises ValueError for
    negative input.
    """
    if n < 0:
        raise ValueError("isqrt_exact of a negative integer")
    r = isqrt(n)
    return r, r * r == n


def rational_sqrt(q):
    """Square root of a rational as a Fraction, or None.

    Returns the nonnegative r with r*r == q when q is a square of a
    rational, and None otherwise (in particular for q < 0).  Absence is a
    value here, not an error.
    """
    q = Fraction(q)
    if q < 0:
        return None
    # reduced form: q is a square iff numerator and denominator both are
    rn, exact = isqrt_exact(q.numerator)
    if not exact:
        return None
    rd, exact = isqrt_exact(q.denominator)
    if not exact:
        return None
    return Fraction(rn, rd)


def _quadratic_roots(b, c, sqrt):
    # the distinct roots of x^2 + b*x + c, [] when sqrt (None on a
    # non-square) finds no root of the discriminant; b is a Fraction or a
    # field element, so -b/2 is exact.  Shared by Q and F_p
    s = sqrt(b * b - 4 * c)
    if s is None:
        return []
    if s == 0:
        return [-b / 2]
    return [(-b + s) / 2, (-b - s) / 2]


def _monotone_zero(g, lo, hi):
    # the unique zero of g on [lo, hi] if one exists; g strictly monotone there
    if lo > hi:
        return None
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if (glo < 0) == (ghi < 0):
        return None
    sign = 1 if glo < 0 else -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = sign * g(mid)
        if v == 0:
            return mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return None


def _integer_root_cubic(B, C, D):
    # one integer root of y^3 + B y^2 + C y + D, or None; exact bisection on
    # the monotone pieces between the critical points, so no factoring needed
    def g(y):
        return ((y + B) * y + C) * y + D

    bound = 1 + max(abs(B), abs(C), abs(D))  # Cauchy: no root beyond this
    disc = B * B - 3 * C
    if disc <= 0:  # nonnegative derivative: one increasing sweep
        return _monotone_zero(g, -bound, bound)
    s = isqrt(disc)
    # critical points (-B -+ sqrt(disc))/3, bracketed a notch wide so each
    # bisection interval is strictly inside a monotone piece
    lo1 = (-B - s - 1) // 3 - 1
    hi1 = (-B - s) // 3 + 1
    lo2 = (-B + s) // 3 - 1
    hi2 = (-B + s + 1) // 3 + 1
    for y in (
        _monotone_zero(g, -bound, lo1),
        _monotone_zero(g, hi1, lo2),
        _monotone_zero(g, hi2, bound),
    ):
        if y is not None:
            return y
    # the few integers inside the bracket notches, checked directly
    for y in (*range(lo1, hi1 + 1), *range(lo2, hi2 + 1)):
        if g(y) == 0:
            return y
    return None


def rational_roots_cubic(c2, c1, c0):
    """All rational roots of x^3 + c2*x^2 + c1*x + c0, multiplicity collapsed.

    Coefficients may be ints or Fractions.  Clears denominators so every
    rational root becomes an integer root of a monic integer cubic, then
    isolates one by exact bisection; the search is complete, so an empty
    result proves there is no rational root.  Once one root is found the
    rest come from the deflated quadratic.
    """
    c2, c1, c0 = Fraction(c2), Fraction(c1), Fraction(c0)
    if c0 == 0:
        x1 = Fraction(0)
    else:
        # y = L x turns the cubic into y^3 + B y^2 + C y + D over the
        # integers, whose integer roots y = L x carry all rational roots x
        L = lcm(c2.denominator, c1.denominator, c0.denominator)
        B = int(c2 * L)
        C = int(c1 * L * L)
        D = int(c0 * L ** 3)
        y = _integer_root_cubic(B, C, D)
        if y is None:
            return []
        x1 = Fraction(y, L)
    # deflate: cubic / (x - x1) = x^2 + b x + (c1 + x1 b) with b = c2 + x1
    b = c2 + x1
    return [x1] + [r for r in _quadratic_roots(b, c1 + x1 * b, rational_sqrt) if r != x1]
