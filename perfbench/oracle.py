"""Arithmetic the benchmark uses to make its inputs and to check outputs.

Nothing here calls into halfpoint, so a defect in the halving code cannot
also hide itself in the check.  Curves over F_p are built from chosen
roots (degree 1 and 2) or tested for irreducibility (degree 3), so the
number of halves every point must have is known in advance from
Legendre symbols alone:

* D = 1 (three roots e_i in F_p): 4 halves if every x0 - e_i is a nonzero
  square, else 0;
* D = 2 (one root e0 in F_p): 2 halves if x0 - e0 is a nonzero square,
  else 0;
* D = 3 (no root in F_p): the group has odd order, so exactly 1 half.
"""

from dataclasses import dataclass
from fractions import Fraction


def legendre(a, p):
    """Quadratic character of a mod the odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a, p):
    """A square root of the residue a mod the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError("not a quadratic residue")
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    x, b, c = pow(a, (s + 1) // 2, p), pow(a, s, p), pow(z, s, p)
    while b != 1:
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        f = pow(c, 1 << (e - m - 1), p)
        x, c = x * f % p, f * f % p
        b = b * c % p
        e = m
    return x


@dataclass(frozen=True)
class FpCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p with a known splitting degree.

    ``roots`` holds the roots of the cubic that lie in F_p: three for
    degree 1, one for degree 2, none for degree 3.
    """

    p: int
    a2: int
    a4: int
    a6: int
    degree: int
    roots: tuple

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    @property
    def key(self):
        return (self.p, self.a2, self.a4, self.a6)


def _cubic_discriminant(a, b, c):
    # discriminant of x^3 + a x^2 + b x + c
    return 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c


def x_pow_p_mod_cubic(p, a, b, c):
    """X^p mod (X^3 + a X^2 + b X + c), as coefficients on 1, X, X^2."""
    def mulmod(u, v):
        w = [0] * 5
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                w[i + j] += ui * vj
        for d in (4, 3):
            t = w[d] % p
            w[d] = 0
            w[d - 3] -= t * c
            w[d - 2] -= t * b
            w[d - 1] -= t * a
        return [w[0] % p, w[1] % p, w[2] % p]

    result, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def cubic_is_irreducible(p, a, b, c):
    """Whether X^3 + a X^2 + b X + c has no root in F_p.

    Stickelberger: a squarefree cubic has a square discriminant exactly
    when it is irreducible or splits completely, and it splits completely
    exactly when X^p = X modulo it.
    """
    disc = _cubic_discriminant(a, b, c) % p
    if legendre(disc, p) != 1:
        return False
    return x_pow_p_mod_cubic(p, a % p, b % p, c % p) != [0, 1, 0]


def make_curve(rng, p, degree):
    """A random nonsingular curve over F_p whose cubic splits in F_{p^degree}."""
    while True:
        if degree == 1:
            e = tuple(rng.randrange(p) for _ in range(3))
            if len(set(e)) < 3:
                continue
            e0, e1, e2 = e
            return FpCurve(p, -(e0 + e1 + e2) % p, (e0 * e1 + e1 * e2 + e2 * e0) % p,
                           -(e0 * e1 * e2) % p, 1, e)
        if degree == 2:
            # (x - e0)(x^2 + b x + c) with an irreducible quadratic factor
            b, c, e0 = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if legendre(b * b - 4 * c, p) != -1:
                continue
            return FpCurve(p, (b - e0) % p, (c - e0 * b) % p, -e0 * c % p, 2, (e0,))
        a2, a4, a6 = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if cubic_is_irreducible(p, a2, a4, a6):
            return FpCurve(p, a2, a4, a6, 3, ())


def random_point(rng, curve):
    """A uniformly chosen affine point with y != 0."""
    p = curve.p
    while True:
        x = rng.randrange(p)
        r = curve.rhs(x) % p
        if legendre(r, p) == 1:
            y = sqrt_mod(r, p)
            return x, (y if rng.random() < 0.5 else p - y)


def double_fp(curve, x, y):
    """2(x, y) in affine coordinates; None for the point at infinity."""
    p = curve.p
    if y % p == 0:
        return None
    lam = (3 * x * x + 2 * curve.a2 * x + curve.a4) * pow(2 * y, -1, p) % p
    x3 = (lam * lam - curve.a2 - 2 * x) % p
    return x3, (lam * (x - x3) - y) % p


def halvable_point(rng, curve):
    """(P, Q) with P = 2Q and P affine."""
    while True:
        Q = random_point(rng, curve)
        P = double_fp(curve, *Q)
        if P is not None and P[1] != 0:
            return P, Q


def expected_half_count(curve, x0):
    """Number of Q in E(F_p) with 2Q = (x0, y0), for y0 != 0."""
    if curve.degree == 3:
        return 1
    full = 4 if curve.degree == 1 else 2
    return full if all(legendre(x0 - e, curve.p) == 1 for e in curve.roots) else 0


def check_fp_halves(curve, P, halves, Q=None):
    """Whether ``halves`` (pairs of ints) is exactly the set of halves of P.

    The count must match the Legendre-symbol prediction, every half must
    lie on the curve and double to P, and the known half Q, when given,
    must be among them.
    """
    p = curve.p
    if len(set(halves)) != len(halves) or len(halves) != expected_half_count(curve, P[0]):
        return False
    for x, y in halves:
        if (y * y - curve.rhs(x)) % p or double_fp(curve, x, y) != tuple(P):
            return False
    return Q is None or tuple(Q) in halves


# -- congruent-number curves y^2 = x^3 - n^2 x over Q ------------------------

def double_q(n, x, y):
    """2(x, y) on y^2 = x^3 - n^2 x in Fraction arithmetic (y != 0)."""
    lam = (3 * x * x - n * n) / (2 * y)
    x3 = lam * lam - 2 * x
    return x3, lam * (x - x3) - y


def doubling_chain(n, G, steps):
    """[G, 2G, 4G, ..., 2^steps G] as Fraction pairs."""
    chain = [(Fraction(G[0]), Fraction(G[1]))]
    for _ in range(steps):
        chain.append(double_q(n, *chain[-1]))
    return chain


def check_q_halves(n, P, halves, Q):
    """Whether ``halves`` are four distinct points that double to P, Q among them."""
    if len(halves) != 4 or len(set(halves)) != 4 or tuple(Q) not in halves:
        return False
    return all(y != 0 and double_q(n, x, y) == tuple(P) for x, y in halves)
