"""Arithmetic in the prime field F_p for an odd prime p: element type,
quadratic-residue tests, square roots, and root-finding for monic cubics.

The element protocol of every finite field here lives in ``_FieldElem``:
mixed operands (an int, or an element of a field below, enters through
the field's own ``__call__``; an element of another field raises
ValueError), subtraction from the right, division and equality.  FpElem,
``extfield.ExtElem`` and ``extfield.TowerElem`` supply only their
representation and arithmetic.

Residues modulo a monic polynomial of degree <= 3 are multiplied and
squared by straight-line code and raised to powers by a sliding window;
the cubic root-finding here and the extension fields of ``extfield``
share that arithmetic.

Primality of the modulus is the caller's contract; it is never verified.
"""

import random
from fractions import Fraction

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
        """The element of F_p that ``value`` stands for.

        This is the one way into F_p: an FpElem of the same modulus is
        returned as it is, an int or an integral Fraction is reduced mod p,
        and anything else (a non-integral Fraction, a float, a string, an
        element of another field) raises ValueError.
        """
        if type(value) is int:
            return FpElem(self, value % self.p)
        if isinstance(value, FpElem):
            if value.field.p != self.p:
                raise ValueError("element belongs to a different field")
            return value
        if not isinstance(value, (int, Fraction)) or value.denominator != 1:
            raise ValueError(f"{value!r} is not an integer mod {self.p}")
        return FpElem(self, value.numerator % self.p)

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


class _FieldElem:
    """The element protocol that FpElem, ExtElem and TowerElem share.

    Mixed operands are coerced here: an element of the same type must
    belong to the same field, else ValueError; a value of a type in the
    class's ``_lower`` (int for F_p, int and FpElem for F_{p^D}, ExtElem as
    well for the tower) enters through the field's own ``__call__``; any
    other operand gives NotImplemented, so Python raises TypeError.
    Subtraction from the right, division and equality are written once on
    top of that.  Each element type supplies its representation: the
    ``field`` attribute, ``_key()`` (the coordinates that equality and
    ``extfield._canon`` compare), +, unary -, *, ``inverse``, ``**``,
    ``__hash__``, ``__bool__`` and ``__repr__``.
    """

    __slots__ = ()

    def _coerce(self, other):
        if other.__class__ is self.__class__:
            if other.field is not self.field and other.field != self.field:
                raise ValueError("element belongs to a different field")
            return other
        if isinstance(other, self._lower):
            return self.field(other)
        return None

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        if other is None:
            return NotImplemented
        return self._key() == other._key()


class FpElem(_FieldElem):
    """A residue mod p.  Arithmetic coerces plain ints on either side."""

    __slots__ = ("field", "value")
    _lower = (int,)

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _key(self):
        return self.value

    # +, -, * and == take an element of the same field inline, the path
    # that 14-bit codec arithmetic is made of; other operands go to _coerce

    def __add__(self, other):
        field = self.field
        if other.__class__ is not FpElem or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FpElem(field, (self.value + other.value) % field.p)

    __radd__ = __add__

    def __neg__(self):
        return FpElem(self.field, -self.value % self.field.p)

    def __sub__(self, other):
        field = self.field
        if other.__class__ is not FpElem or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FpElem(field, (self.value - other.value) % field.p)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not FpElem or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FpElem(field, self.value * other.value % field.p)

    __rmul__ = __mul__

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
        if other.__class__ is FpElem and other.field is self.field:
            return self.value == other.value
        return _FieldElem.__eq__(self, other)

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


# -- polynomials over F_p -----------------------------------------------------
#
# Two representations, both with plain int coefficients.  Residues modulo a
# monic polynomial of degree <= 3 are coefficient tuples on 1, X, X^2,
# multiplied and squared by straight-line code (_mul_fn) and raised to
# powers by a sliding window whose width follows the exponent's length, or
# below 24 bits by plain square-and-multiply (_pow_coeffs); ExtField is
# built on the same functions, but nothing here needs the modulus to be
# irreducible.  The gcds of root-finding run on ascending coefficient lists
# (_pgcd), which are only ever the small remainders left by those powers.

# exponents shorter than this take plain square-and-multiply: the codec's
# 13-bit ones would save a product or two in a window and lose more to its
# bookkeeping (codec-decrypt ran 3 % slower with them windowed)
_WINDOW_MIN_BITS = 24


def _mul_fn(p, modulus):
    """(mul, sqr): product and square of coefficient tuples modulo the
    monic ``modulus`` (ascending coefficients, degree 1, 2 or 3)."""
    d = len(modulus) - 1
    if d == 1:
        def mul(a, b):
            return (a[0] * b[0] % p,)

        def sqr(a):
            return (a[0] * a[0] % p,)
    elif d == 2:
        # X^2 = m0 + m1 X
        m0, m1 = (-c % p for c in modulus[:2])

        def mul(a, b):
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return ((a0 * b0 + m0 * t) % p, (a0 * b1 + a1 * b0 + m1 * t) % p)

        def sqr(a):
            a0, a1 = a
            t = a1 * a1
            return ((a0 * a0 + m0 * t) % p, (2 * a0 * a1 + m1 * t) % p)
    else:
        # X^3 = m0 + m1 X + m2 X^2 and X^4 = n0 + n1 X + n2 X^2
        m0, m1, m2 = (-c % p for c in modulus[:3])
        n0, n1, n2 = m2 * m0 % p, (m0 + m2 * m1) % p, (m1 + m2 * m2) % p

        def mul(a, b):
            a0, a1, a2 = a
            b0, b1, b2 = b
            t3 = (a1 * b2 + a2 * b1) % p
            t4 = a2 * b2 % p
            return (
                (a0 * b0 + m0 * t3 + n0 * t4) % p,
                (a0 * b1 + a1 * b0 + m1 * t3 + n1 * t4) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + m2 * t3 + n2 * t4) % p,
            )

        def sqr(a):
            a0, a1, a2 = a
            t3 = 2 * a1 * a2 % p
            t4 = a2 * a2 % p
            return (
                (a0 * a0 + m0 * t3 + n0 * t4) % p,
                (2 * a0 * a1 + m1 * t3 + n1 * t4) % p,
                (a1 * a1 + 2 * a0 * a2 + m2 * t3 + n2 * t4) % p,
            )
    return mul, sqr


def _pow_coeffs(mul, sqr, one, base, e):
    """base^e for e >= 0 on coefficient tuples, or on any values that
    ``mul`` and ``sqr`` take (TowerElem.__pow__ passes tower elements).

    Exponents shorter than ``_WINDOW_MIN_BITS`` run plain square-and-multiply,
    longer ones a sliding window of k bits (Cohen-Frey et al., Handbook of
    Elliptic and Hyperelliptic Curve Cryptography, ch. 9): e is cut from
    its low end into windows that each start on a one bit and is evaluated
    from the top, one square per bit and one product per window, after
    building only the odd powers base^1, base^3, ... up to the largest
    window value (for a power of two such as 2^126, base itself).  An n-bit
    e has about n/(k+1) windows, so width k+1 saves n/((k+1)(k+2))
    products over width k and builds 2^(k-1) more odd powers: it pays from
    n = 2^(k-1)(k+1)(k+2) bits on, hence k = 3, 4 and 5 from 24, 80 and 240
    bits.  On the 53- to 255-bit exponents of the benchmark primes these
    are the widths with the fewest products.
    """
    n = e.bit_length()
    if n < _WINDOW_MIN_BITS:
        result = one
        while e:
            if e & 1:
                result = mul(result, base)
            e >>= 1
            if e:
                base = sqr(base)
        return result
    k = 3 if n < 80 else 4 if n < 240 else 5
    windows = []  # (odd value, position of its lowest bit), lowest first
    pos = 0
    while e:
        zeros = (e & -e).bit_length() - 1
        e >>= zeros
        pos += zeros
        windows.append((e & ((1 << k) - 1), pos))
        e >>= k
        pos += k
    odd = [base]  # odd[u // 2] = base^u
    top = max(u for u, _ in windows)
    if top > 1:
        square = sqr(base)
        while 2 * len(odd) - 1 < top:
            odd.append(mul(odd[-1], square))
    u, at = windows.pop()
    result = odd[u // 2]
    for u, pos in reversed(windows):
        for _ in range(at - pos):
            result = sqr(result)
        result = mul(result, odd[u // 2])
        at = pos
    for _ in range(at):
        result = sqr(result)
    return result


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
    by gcd((X + t)^((p-1)/2) - 1, f) isolates them.  The root set does not
    depend on the seed.  X^p and the splitting powers are computed modulo
    f with the straight-line arithmetic and windowed exponentiation that
    ExtField uses (``_mul_fn``, ``_pow_coeffs``), f being irreducible or
    not.
    """
    field = c2.field
    p = field.p
    f = [c0.value, c1.value, c2.value, 1]
    mul, sqr = _mul_fn(p, f)
    one = (1, 0, 0)

    xp = _pow_coeffs(mul, sqr, one, (0, 1, 0), p)
    linear_part = _pgcd(_psub(xp, [0, 1], p), f, p)

    roots = []
    deg = len(linear_part) - 1 if linear_part else 0
    if deg == 1:
        roots = [field(-linear_part[0])]
    elif deg == 2:
        roots = _quadratic_roots_fp(field(linear_part[1]), field(linear_part[0]))
    elif deg == 3:
        # fully split and squarefree, so the monic gcd is f itself: split
        # off one factor at random
        rng = random.Random(seed)
        for _ in range(_SPLIT_DRAWS):
            h = _pow_coeffs(mul, sqr, one, (rng.randrange(p), 1, 0), (p - 1) // 2)
            u = _pgcd(_psub(h, [1], p), f, p)
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
        # deflate f by (x - r0); the cofactor quadratic splits as well
        b = c2 + r0
        c = c1 + r0 * b
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
