"""Arithmetic in the prime field F_p for an odd prime p: element type,
quadratic-residue tests, square roots, and root-finding for monic cubics.

Primality of the modulus is the caller's contract; it is never verified.
"""

import random

# random draws cubic_roots_fp makes to split a cubic with three roots; a
# draw splits it with probability about 3/4, so running out means the
# modulus is not prime
_SPLIT_DRAWS = 64


class PrimeField:
    """Context object for F_p.  Call it to make elements: ``F = PrimeField(7); F(3)``."""

    __slots__ = ("p", "_nonresidue", "_ts_powers")

    def __init__(self, p):
        if p < 3 or p % 2 == 0:
            raise ValueError("modulus must be an odd prime")
        self.p = p
        self._nonresidue = None  # filled by first_nonresidue
        self._ts_powers = None  # (z, q, c^(2^i) for c = z^s), filled by tonelli_shanks

    def __call__(self, value):
        if isinstance(value, FpElem):
            if value.field.p != self.p:
                raise ValueError("element belongs to a different field")
            return value
        return FpElem(self, value % self.p)

    def zero(self):
        return FpElem(self, 0)

    def one(self):
        return FpElem(self, 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class FpElem:
    """A residue mod p.  Arithmetic coerces plain ints on either side."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FpElem):
            if other.field.p != self.field.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FpElem(self.field, other % self.field.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElem(self.field, (self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __neg__(self):
        return FpElem(self.field, -self.value % self.field.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElem(self.field, (self.value - other.value) % self.field.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElem(self.field, self.value * other.value % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        try:
            return FpElem(self.field, pow(self.value, e, self.field.p))
        except ValueError:
            raise ZeroDivisionError("inverse of zero in F_p") from None

    def inverse(self):
        return self ** -1

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return str(self.value)


def legendre(a):
    """Quadratic character of a: 0 for zero, +1 for a nonzero square, -1 otherwise."""
    p = a.field.p
    if a.value == 0:
        return 0
    e = pow(a.value, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def first_nonresidue(field):
    """Smallest positive integer that is a quadratic non-residue mod p.

    The scan runs once per field; its result is kept on the field.
    """
    if field._nonresidue is None:
        for c in range(2, field.p):
            if legendre(field(c)) == -1:
                field._nonresidue = field(c)
                break
        else:
            raise ValueError("no non-residue found; modulus is not an odd prime")
    return field._nonresidue


def tonelli_shanks(a, q, nonresidue):
    """Square root of a in a field of odd order q, for a a nonzero residue.

    Works on any element type supporting *, ** and ==, extension-field
    elements included.  ``nonresidue`` must be a quadratic non-residue of
    the same field.  Raises ValueError when a is not a residue (b = a^s
    then takes e squarings to reach 1, a residue's b fewer) and when the
    squarings never reach 1, as modulo a composite.

    On an FpElem the same steps run on ints.  There c = z^s, z the
    non-residue, only ever enters as some c^(2^i), so those e powers are
    computed on the first call with z and kept on the field.
    """
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    if isinstance(a, FpElem):
        return FpElem(a.field, _tonelli_shanks_int(a.value, a.field, q, s, e, int(nonresidue)))
    # one exponentiation: x = a^((s+1)/2), b = a^s
    w = a ** ((s - 1) // 2)
    x = a * w
    b = x * w
    c = nonresidue ** s
    one = a ** 0
    while b != one:
        m, t = 0, b
        while t != one:
            t = t * t
            m += 1
            if m == e:
                raise ValueError("tonelli_shanks: input is not a quadratic residue")
        f = c ** (1 << (e - m - 1))
        x = x * f
        c = f * f
        b = b * c
        e = m
    return x


def _tonelli_shanks_int(a, field, q, s, e, z):
    # the loop of tonelli_shanks on ints; c always equals c0^(2^(e0 - e)),
    # so f = c^(2^(e - m - 1)) and its square are entries of the kept powers
    p = field.p
    kept = field._ts_powers
    if kept is None or kept[0] != z or kept[1] != q:
        powers = [pow(z, s, p)]
        for _ in range(e - 1):
            powers.append(powers[-1] * powers[-1] % p)
        kept = field._ts_powers = (z, q, powers)
    powers = kept[2]
    e0 = e
    w = pow(a, (s - 1) // 2, p)
    x = a * w % p
    b = x * w % p
    while b != 1:
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
            if m == e:
                raise ValueError("tonelli_shanks: input is not a quadratic residue")
        x = x * powers[e0 - m - 1] % p
        b = b * powers[e0 - m] % p
        e = m
    return x


def fp_sqrt(a):
    """Canonical square root of a in F_p, or None for a non-residue.

    The canonical root is the smaller of the two as an integer.  One
    exponentiation decides residuosity and gives the root.  When
    p = 3 mod 4, r = a^((p+1)/4) squares to a^((p+1)/2) = a * a^((p-1)/2),
    which is a for a residue and -a otherwise (Euler's criterion).  In the
    general case tonelli_shanks runs and raises on a non-residue.  A root
    is re-squared before it is returned.
    """
    field = a.field
    p, v = field.p, a.value
    if v == 0:
        return a
    if p % 4 == 3:
        r = pow(v, (p + 1) // 4, p)
        if r * r % p == p - v:
            return None
    else:
        z = first_nonresidue(field)
        try:
            r = tonelli_shanks(a, p, z).value
        except ValueError:  # tonelli_shanks' only error: a is not a residue
            return None
    if r * r % p != v:
        raise ArithmeticError("square root postcondition failed")
    return FpElem(field, r if r <= p - r else p - r)


# -- dense polynomials over F_p, ascending coefficient lists ----------------
#
# Only what cubic root-finding needs; coefficients are plain ints.

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f

def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _ptrim(out)

def _pmod(f, g, p):
    # remainder of f by g, g nonzero
    f = f[:]
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) - 1 >= dg and f:
        coef = f[-1] * inv_lead % p
        shift = len(f) - 1 - dg
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - coef * gi) % p
        _ptrim(f)
    return f

def _pgcd(f, g, p):
    # monic gcd
    while g:
        f, g = g, _pmod(f, g, p)
    if f:
        inv_lead = pow(f[-1], -1, p)
        f = [c * inv_lead % p for c in f]
    return f

def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result

def _psub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, fi in enumerate(f):
        out[i] = fi
    for i, gi in enumerate(g):
        out[i] = (out[i] - gi) % p
    return _ptrim(out)


def _quadratic_roots_fp(b, c):
    # both roots of x^2 + b*x + c over F_p, when they exist
    disc = b * b - 4 * c
    s = fp_sqrt(disc)
    if s is None:
        return []
    if s == 0:
        return [-b / 2]
    return [(-b + s) / 2, (-b - s) / 2]


def cubic_roots_fp(c2, c1, c0, seed=0):
    """Roots in F_p of x^3 + c2*x^2 + c1*x + c0 and its factor-degree shape.

    Returns ``(roots, degrees)`` where roots is the ascending list of
    distinct roots and degrees is the multiset of irreducible-factor
    degrees, one of (1,1,1), (1,2), (3).  The distinct roots come from
    gcd(X^p - X, f); when all three live in F_p a seeded random splitting
    isolates them.  The root set does not depend on the seed.
    """
    field = c2.field
    p = field.p
    f = [c0.value, c1.value, c2.value, 1]

    xp = _ppowmod([0, 1], p, f, p)
    linear_part = _pgcd(_psub(xp, [0, 1], p), f, p)

    roots = []
    deg = len(linear_part) - 1 if linear_part else 0
    if deg == 1:
        roots = [field(-linear_part[0])]
    elif deg == 2:
        roots = _quadratic_roots_fp(field(linear_part[1]), field(linear_part[0]))
    elif deg == 3:
        # fully split and squarefree: split off one factor at random
        rng = random.Random(seed)
        g = linear_part
        for _ in range(_SPLIT_DRAWS):
            h = _ppowmod([rng.randrange(p), 1], (p - 1) // 2, g, p)
            u = _pgcd(_psub(h, [1], p), g, p)
            if 1 <= len(u) - 1 <= 2:
                break
        else:
            raise ArithmeticError(
                f"no splitting of the cubic in {_SPLIT_DRAWS} random draws; is the modulus prime?"
            )
        if len(u) - 1 == 1:
            r0 = field(-u[0])
        else:
            split = _quadratic_roots_fp(field(u[1]), field(u[0]))
            if not split:
                raise ArithmeticError("split-off quadratic has no roots; is the modulus prime?")
            r0 = split[0]
        # deflate g by (x - r0); the cofactor quadratic splits as well
        b = field(g[2]) + r0
        c = field(g[1]) + r0 * b
        roots = [r0] + _quadratic_roots_fp(b, c)

    roots = sorted(set(roots), key=int)

    # multiplicities by repeated synthetic division
    mult_total = 0
    rem = f
    for r in roots:
        while True:
            quot, acc = [], 0
            for coef in reversed(rem):
                acc = (acc * r.value + coef) % p
                quot.append(acc)
            if quot[-1] != 0:  # nonzero remainder: r no longer divides
                break
            rem = list(reversed(quot[:-1]))
            mult_total += 1
    if mult_total == 2:
        raise ArithmeticError("degree-1 cofactor escaped the root scan")
    degrees = tuple(sorted([1] * mult_total + ([3 - mult_total] if mult_total < 3 else [])))
    return roots, degrees
