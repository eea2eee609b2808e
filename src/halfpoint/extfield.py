"""Extension fields F_{p^D} = F_p[X]/(g) for D in {1, 2, 3}, plus an
on-demand quadratic tower F_{p^(2D)} = F_{p^D}[Y]/(Y^2 - ns) where
``sqrt_in_tower`` puts the square roots of non-residues.  The tower has
arithmetic, a Frobenius and a projection to F_p; square roots and the
choice of ns are taken in F_{p^D}.

Multiplication and squaring are straight-line code per degree, with the
reduction constants of g computed once per field, and powers take a
sliding window whose width grows with the exponent's bit length; this is
the arithmetic of ``primefield``, which factors cubics with it too.  The
Frobenius map a -> a^p, whose fixed field is F_p, is a D x D matrix over
F_p built once from X^p; the same X^p shows that g has no root in F_p,
so building a field never factors its modulus.  The
norm N(a), the product of a's conjugates, is an element of F_p and drives
two things: inversion (a^-1 = conjugate product / N(a), after Itoh-Tsujii)
and residuosity (a is a square iff N(a) is a square in F_p).  Square roots
in F_{p^2} reduce to square roots in F_p (Adj and Rodriguez-Henriquez,
IEEE TC 2014), and the root of the norm they take first decides
residuosity on the way.

ExtElem and TowerElem take mixed operands, division and equality from
``primefield._FieldElem``; each supplies its coordinates (``_key()``,
which ``_canon`` compares too), +, -, *, ``inverse`` and ``**``.  The
tower's ``**`` runs on the same sliding window as F_{p^D}.
"""

from operator import mul as _imul

from .primefield import (
    PrimeField,
    FpElem,
    _FieldElem,
    _mul_fn,
    _pgcd,
    _pow_coeffs,
    _psub,
    cubic_roots_fp,  # no longer called here; perfbench/tracing.py wraps this name
    first_nonresidue,
    fp_sqrt,
    legendre,
    tonelli_shanks,  # no longer called here; perfbench/tracing.py wraps this name
)


class ExtField:
    """F_p[X]/(g) for a monic irreducible g of degree 1, 2 or 3.

    The modulus is given as an ascending coefficient list, e.g.
    ``[71, 17, 0, 1]`` for X^3 + 17X + 71.  Irreducibility is checked at
    construction by gcd(X^p - X, g) = 1 (no root in F_p, which suffices in
    degree 2 and 3), with the X^p that the Frobenius matrix is built from.
    """

    __slots__ = (
        "base", "p", "degree", "modulus", "_tower", "_mul", "_sqr", "_one", "_frob_cols",
    )

    def __init__(self, base, modulus):
        if isinstance(base, int):
            base = PrimeField(base)
        self.base = base
        self.p = base.p
        modulus = [c % self.p for c in modulus]
        if not modulus or modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.degree = len(modulus) - 1
        if self.degree not in (1, 2, 3):
            raise ValueError("extension degree must be 1, 2 or 3")
        self.modulus = tuple(modulus)
        self._tower = None
        self._mul, self._sqr = _mul_fn(self.p, self.modulus)
        self._one = (1,) + (0,) * (self.degree - 1)
        # row i of the Frobenius matrix is X^(i*p); stored by columns
        rows = [self._one]
        if self.degree > 1:
            gen = (0, 1) + (0,) * (self.degree - 2)
            xp = _pow_coeffs(self._mul, self._sqr, self._one, gen, self.p)
            # g of degree 2 or 3 is irreducible iff it has no root in F_p
            if _pgcd(_psub(xp, [0, 1], self.p), list(self.modulus), self.p) != [1]:
                raise ValueError("modulus is reducible")
            while len(rows) < self.degree:
                rows.append(self._mul(rows[-1], xp))
        self._frob_cols = tuple(zip(*rows))

    def _frobenius(self, c):
        p = self.p
        return tuple(sum(map(_imul, c, col)) % p for col in self._frob_cols)

    def _conj_norm(self, c):
        """(conjugate product, norm) of the coefficient tuple c.

        The conjugate product is c^p * c^(p^2) * ... * c^(p^(D-1)); times c
        it gives the norm, an element of F_p returned as an int.
        """
        conj, s = self._one, c
        for _ in range(self.degree - 1):
            s = self._frobenius(s)
            conj = self._mul(conj, s)
        return conj, self._mul(c, conj)[0]

    @property
    def order(self):
        return self.p ** self.degree

    def __call__(self, value):
        """The element that ``value`` stands for.

        An element of this field comes back as it is; a list or tuple is
        a coefficient vector on 1, X, ..., X^(D-1); any other value is a
        scalar.  Coefficients and scalars enter F_p through ``self.base``,
        so an integral Fraction is taken and 0.5 raises ValueError.
        """
        if isinstance(value, ExtElem):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if type(value) is int:
            coeffs = [value % self.p] + [0] * (self.degree - 1)
        elif isinstance(value, (list, tuple)):
            coeffs = [self.base(c).value for c in value]
            if len(coeffs) > self.degree:
                raise ValueError("coefficient vector longer than the degree")
            coeffs += [0] * (self.degree - len(coeffs))
        else:
            coeffs = [self.base(value).value] + [0] * (self.degree - 1)
        return ExtElem(self, tuple(coeffs))

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self):
        """The class of X (for degree 1 this is the constant 0 = X mod X)."""
        return self([0, 1][: self.degree] if self.degree > 1 else [0])

    def quadratic_tower(self):
        """The quadratic extension of this field, built once and cached."""
        if self._tower is None:
            self._tower = TowerField(self)
        return self._tower

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"ExtField(p={self.p}, modulus={list(self.modulus)})"


class ExtElem(_FieldElem):
    """Element of an ExtField, stored as coefficients on 1, X, ..., X^(D-1)."""

    __slots__ = ("field", "coeffs")
    _lower = (int, FpElem)

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _key(self):
        return self.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return ExtElem(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return ExtElem(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return ExtElem(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not ExtElem or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return ExtElem(field, field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        field = self.field
        return ExtElem(field, _pow_coeffs(field._mul, field._sqr, field._one, self.coeffs, e))

    def inverse(self):
        # a^-1 = (conjugate product) / N(a)
        field = self.field
        conj, norm = field._conj_norm(self.coeffs)
        if not norm:
            raise ZeroDivisionError("inverse of zero in an extension field")
        p = field.p
        norm_inv = pow(norm, -1, p)
        return ExtElem(field, tuple(c * norm_inv % p for c in conj))

    def __hash__(self):
        # an element of F_p hashes as the FpElem it equals
        c = self.coeffs
        if not any(c[1:]):
            return hash((self.field.p, c[0]))
        return hash((self.field.p, self.field.modulus, c))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        d = self.field.degree
        if d == 1:
            return str(self.coeffs[0])
        terms = [f"{self.coeffs[i]}*X^{i}" if i > 1 else f"{self.coeffs[1]}*X" for i in range(d - 1, 0, -1)]
        return " + ".join(terms + [str(self.coeffs[0])])


class TowerField:
    """F_{p^D}[Y]/(Y^2 - ns) over an ExtField, ns = ``choose_nonresidue(ext)``.

    The tower is where ``sqrt_in_tower`` puts the roots of non-residues; it
    has the arithmetic, Frobenius and projection to F_p of its elements,
    but no square root or non-residue of its own.
    """

    __slots__ = ("ext", "p", "ns", "_twist")

    def __init__(self, ext):
        self.ext = ext
        self.p = ext.p
        self.ns = choose_nonresidue(ext)
        self._twist = None  # ns^((p-1)/2), filled by the first tower frobenius

    @property
    def order(self):
        return self.ext.order ** 2

    def __call__(self, value):
        if isinstance(value, TowerElem):
            if value.field != self:
                raise ValueError("element belongs to a different tower")
            return value
        if isinstance(value, tuple):
            u, v = value
            return TowerElem(self, self.ext(u), self.ext(v))
        return TowerElem(self, self.ext(value), self.ext.zero())

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self):
        return TowerElem(self, self.ext.zero(), self.ext.one())

    def __eq__(self, other):
        return (
            isinstance(other, TowerField)
            and other.ext == self.ext
            and other.ns == self.ns
        )

    def __hash__(self):
        return hash(("TowerField", self.ext, self.ns))

    def __repr__(self):
        return f"TowerField(over={self.ext!r}, ns={self.ns!r})"


class TowerElem(_FieldElem):
    """u + v*Y with u, v in the base extension and Y^2 = ns."""

    __slots__ = ("field", "u", "v")
    _lower = (int, FpElem, ExtElem)

    def __init__(self, field, u, v):
        self.field = field
        self.u = u
        self.v = v

    def _key(self):
        return (self.u.coeffs, self.v.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TowerElem(self.field, self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.field, -self.u, -self.v)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TowerElem(self.field, self.u - other.u, self.v - other.v)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ns = self.field.ns
        return TowerElem(
            self.field,
            self.u * other.u + self.v * other.v * ns,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return _pow_coeffs(_imul, lambda a: a * a, self.field.one(), self, e)

    def inverse(self):
        # 1/(u + vY) = (u - vY) / (u^2 - v^2 ns)
        norm = self.u * self.u - self.v * self.v * self.field.ns
        if not norm:
            raise ZeroDivisionError("inverse of zero in the tower")
        inv = norm.inverse()
        return TowerElem(self.field, self.u * inv, -self.v * inv)

    def __hash__(self):
        # an element of the field below hashes as the u it equals
        if not self.v:
            return hash(self.u)
        return hash((self.field.p, self.u, self.v))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        return f"({self.u!r}) + ({self.v!r})*Y"


# -- field-generic helpers ---------------------------------------------------

def _canon(r):
    """The canonical sign of a square root: r or -r, whichever has the
    lexicographically smaller coefficient vector (``_key()``)."""
    n = -r
    return r if r._key() <= n._key() else n


def frobenius(a):
    """The map a -> a^p; applied D times (2D in the tower) it is the identity.

    On F_{p^D} this is the precomputed Frobenius matrix.  In the tower,
    (u + vY)^p = u^p + v^p * ns^((p-1)/2) * Y, the twist ns^((p-1)/2)
    computed once per tower.
    """
    field = a.field
    if isinstance(a, TowerElem):
        twist = field._twist
        if twist is None:
            twist = field._twist = field.ns ** ((field.p - 1) // 2)
        return TowerElem(field, frobenius(a.u), frobenius(a.v) * twist)
    return ExtElem(field, field._frobenius(a.coeffs))


def in_base_field(a):
    """Whether a lies in F_p, decided by Frobenius fixation."""
    return frobenius(a) == a


def project_to_fp(a):
    """The element as an FpElem if its higher coordinates vanish, else None."""
    if isinstance(a, FpElem):
        return a
    if isinstance(a, TowerElem):
        if a.v:
            return None
        a = a.u
    if any(a.coeffs[1:]):
        return None
    return a.field.base(a.coeffs[0])


def _norm(a):
    """N(a), the product of a's conjugates over F_p, as an FpElem."""
    field = a.field
    return field.base(field._conj_norm(a.coeffs)[1])


def _is_square(a):
    """Whether a is a square in its own field: iff N(a) is one in F_p."""
    return legendre(_norm(a)) != -1


def choose_nonresidue(field):
    """The quadratic non-residue of F_{p^D} that its tower adjoins a root of.

    For odd D, N(c) = c^D for a constant c, so F_p's least non-residue
    (``first_nonresidue``) is one of F_{p^D} as well.  For D = 2 every
    constant is a square, and X + c is tried for c = 0, 1, ... below
    min(p, 258), each at the cost of one Legendre symbol of its norm;
    about half of them are non-residues, so running out means the modulus
    is not prime, and ArithmeticError is raised.
    """
    if field.degree % 2:
        return field(first_nonresidue(field.base))
    for c in range(min(field.p, 258)):
        a = field([c, 1])
        if not _is_square(a):
            return a
    raise ArithmeticError("no quadratic non-residue X + c with c < 258; is the modulus prime?")


def _quadratic_root(u, v, ns, norm_root=None):
    """(x, y) in F_p with (x + y*t)^2 = u + v*t, where t^2 = ns, or None
    when u + v*t is not a square of F_p(t).

    u, v and the non-residue ns are FpElems.  Costs two or three
    ``fp_sqrt`` and one inverse: with n = sqrt(u^2 - ns v^2), exactly one
    of (u +- n)/2 is x^2, and y = v / 2x.  u^2 - ns v^2 is the norm to
    F_p, so when it has no root u + v*t has none either.  ``norm_root``, when
    given, is taken as n; if neither (u +- n)/2 is a square it is not a
    root of the norm, and ArithmeticError is raised.
    """
    if not v:
        x = fp_sqrt(u)
        if x is not None:
            return x, v
        return v, fp_sqrt(u / ns)
    n = fp_sqrt(u * u - v * v * ns) if norm_root is None else norm_root
    if n is None:
        return None
    x = fp_sqrt((u + n) / 2)
    if x is None:
        x = fp_sqrt((u - n) / 2)
        if x is None:
            raise ArithmeticError("the given root of the norm does not square to it")
    return x, v / (2 * x)


def ext_sqrt(a, *, _norm_root=None):
    """Canonical square root of a in F_{p^D}, or None.

    There is no separate residuosity test: a is a square iff N(a) is a
    square in F_p, and every route below takes a square root of a norm in
    F_p first, so that root's absence is the answer.  No route runs
    Tonelli-Shanks above F_p:

    * D = 1 is F_p itself (``fp_sqrt``).
    * D = 2 is F_p(t), where t = 2X + b squares to the discriminant
      b^2 - 4c of X^2 + bX + c.  Its root comes from F_p, with two or
      three roots and one inverse there, and is None when the norm
      u^2 - disc v^2 has no root (``_quadratic_root``).
    * D = 3 takes sqrt(N(a)) in F_p, None if it has none, and divides it by
      (a^((p+1)/2))^p.

    ``_norm_root``, an FpElem whose square is N(a) for a in F_{p^D}, is
    used in place of that F_p root when the caller knows it already (the
    halving engine does, from the point's y).  Either sign will do.  Every
    route checks its root by squaring, so a wrong one raises
    ArithmeticError and never gives a wrong root; an a in F_p inside
    F_{p^2} takes its root from a itself and leaves it unused.

    The root is returned with its canonical sign (``_canon``).
    """
    if not a:
        return a
    field = a.field
    if field.degree == 1:
        n = fp_sqrt(field.base(a.coeffs[0])) if _norm_root is None else _norm_root
        if n is None:
            return None
        r = field(n.value)
    elif field.degree == 2:
        fp, (c, b, _) = field.base, field.modulus
        v = fp(a.coeffs[1]) / 2
        root = _quadratic_root(fp(a.coeffs[0]) - v * b, v, fp(b * b - 4 * c), _norm_root)
        if root is None:
            return None
        x, y = root
        r = field([(x + y * b).value, (2 * y).value])
    else:
        # m = 1 + p + p^2 is odd and a^m = N(a), so a = N(a) / (a^k)^2 with
        # k = (m - 1)/2 = p(p + 1)/2, and a^k is the Frobenius of a^((p+1)/2)
        n = fp_sqrt(_norm(a)) if _norm_root is None else _norm_root
        if n is None:
            return None
        r = field(n.value) / frobenius(a ** ((field.p + 1) // 2))
    if r * r != a:
        raise ArithmeticError("square root postcondition failed")
    return _canon(r)


def sqrt_in_tower(a):
    """A total square root: in the field itself when a is a residue, else in
    the quadratic tower (where a/ns is then a residue).

    The root of a/ns is tried first, so a caller that has just seen
    ext_sqrt(a) fail does not pay for that failure twice.  The function is
    meant for such non-residues: a residue a pays for two roots, the failed
    one of a/ns (a division, a norm and an F_p root) and its own.
    """
    tower = a.field.quadratic_tower()
    s = ext_sqrt(a / tower.ns)
    if s is not None:
        return TowerElem(tower, a.field.zero(), s)
    s = ext_sqrt(a)
    if s is None:
        raise ArithmeticError("non-residue quotient of non-residues")
    return tower(s)
