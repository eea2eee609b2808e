"""The halving formulas as floating-point identities over C.

Over the complex numbers every square root exists, so all four halving
candidates always materialize.  This backend is the numeric twin of the
exact ones: it validates the algebra (Cardano root, candidate identities,
sign-flip invariance) at machine precision instead of symbolically.
"""

import cmath

from halfpoint import ComplexBackend, Curve, Point, meeting_x, verify_halving_numeric
from halfpoint.complexcheck import cardano_d, resolvent_r
from halfpoint.halving import candidate_xs, sqrt_triple

a4, a6 = -36.0, 0.0
print(f"curve y^2 = x^3 + ({a4})x + ({a6})")

# one root of the cubic via the resolvent and Cardano's formula
r = resolvent_r(a4, a6)
d = cardano_d(r, a4, a6)
print(f"resolvent r = {r:.6f}")
print(f"Cardano root d = {d:.6f}, residual |d^3 + a4 d + a6| = "
      f"{abs(d**3 + a4 * d + a6):.2e}")

roots = ComplexBackend.root_triple(Curve(0.0, a4, a6))
print(f"full root triple: e0 = {roots.e0:.3f}, e1 = {roots.e1:.3f}, "
      f"e2 = {roots.e2:.3f}")

# the four candidates for x(Q) with 2Q = P
P = Point(6.25, -4.375)
x0 = complex(P.x)
sq = sqrt_triple(x0, roots, cmath.sqrt)
cands = candidate_xs(x0, sq)
print(f"\ncandidate x-values for the halves of P = {tuple(P)}:")
for c in cands:
    print(f"  {c.real:10.6f}  {c.imag:+.1e}j")
print("compare with the exact answers 18, -2, -3, 12 from the rational route")

# flipping any of the three square-root signs permutes the same four values
flipped = candidate_xs(x0, sq.flipped(-1, 1, -1))
print(f"\nsign flips permute the set: "
      f"{sorted(c.real for c in cands) == sorted(c.real for c in flipped)}")

# chords through candidate pairs meet the curve over one shared x; the
# pairing follows the distinguished root (e0 = 6 here), which puts 18
# with 12 and -3 with -2
xs = meeting_x(x0, roots)
S = Curve(0.0, a4, a6).add(Point(18.0, -72.0), Point(12.0, 36.0))
print(f"meeting x-coordinate of the candidate chords: {xs.real:.6f}")
print(f"x of (18,-72) + (12,36) under the group law:  {S.x:.6f}")

# the end-to-end residual: halve numerically, double back, compare
worst = verify_halving_numeric(a4, a6, P)
print(f"\nround-trip residual on P: {worst:.2e}")

print("\nthe same machinery on a generic curve with complex points:")
a4, a6 = 2.0, 5.0
x = 1.5 + 0.5j
y = cmath.sqrt(x**3 + a4 * x + a6)
worst = verify_halving_numeric(a4, a6, Point(x, y))
print(f"y^2 = x^3 + {a4}x + {a6}, P = ({x}, {y:.4f}): residual {worst:.2e}")

# near-singular curves are refused instead of returning garbage
try:
    verify_halving_numeric(-3.0, 2.0, Point(2.0, cmath.sqrt(4.0)))
except (ArithmeticError, ValueError) as exc:
    print(f"\ndiscriminant zero is refused: {exc}")
