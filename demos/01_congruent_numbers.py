"""Rational point halving on congruent-number curves.

A positive integer n is congruent when it is the area of a right triangle
with rational sides.  Each such n comes with the curve y^2 = x^3 - n^2 x,
and the arithmetic of that curve decides everything: n is congruent exactly
when the curve has a rational point with y != 0.  Halving lets us walk the
group downward: given P, find every rational Q with 2Q = P.
"""

from fractions import Fraction

from halfpoint import (
    Point,
    congruent_curve,
    is_halvable_q,
    meeting_x,
    rational_halves,
)

n = 6  # the area of the (3, 4, 5) triangle
split = congruent_curve(n)
curve = split.curve
print(f"n = {n}: curve y^2 = x^3 - {n * n}x, roots of the cubic: "
      f"{split.e0}, {split.e1}, {split.e2}")

P = Point(-3, 9)
print(f"\nstart from P = {tuple(P)} (on the curve: {curve.contains(P)})")
D = curve.double(P)
print(f"2P = ({D.x}, {D.y})")

print("\nhalving 2P recovers P and three companions:")
for Q in rational_halves(split, D):
    back = curve.double(Q)
    print(f"  Q = ({Q.x}, {Q.y})   doubles back to ({back.x}, {back.y})")

# the halvability test is three square roots, one per root of the cubic
res = is_halvable_q(split, D)
w = res.witness
print(f"\nwhy it works: x(2P) - e must be a rational square for every root e")
print(f"  sqrt(x - ({split.e0})) = {w.gamma}, sqrt(x - ({split.e1})) = {w.alpha}, "
      f"sqrt(x - ({split.e2})) = {w.beta}")

res = is_halvable_q(split, P)
root, diff = res.failing
print(f"\nP itself is halvable: {res.halvable}  "
      f"(x(P) - {root} = {diff} is not a rational square)")
print("so P generates new points upward by doubling, but the descent stops there")

# the four halves pair up: the chords through each pair meet the curve again
# at one shared x-coordinate
xs = meeting_x(D.x, split.roots)
Q1, Q2, Q3, Q4 = rational_halves(split, D)
S = curve.add(Q1, Q2)
print(f"\nchord geometry: x(Q1 + Q2) = {S.x} and the predicted meeting "
      f"x-coordinate is {xs}")

# the same machinery settles n = 5 via the (9/6, 40/6, 41/6) triangle
n = 5
split = congruent_curve(n)
P = Point(-4, 6)
print(f"\nn = {n}: P = {tuple(P)} lies on y^2 = x^3 - 25x: "
      f"{split.curve.contains(P)}")
D = split.curve.double(P)
print(f"2P = ({D.x}, {D.y})")
halves = rational_halves(split, D)
print(f"halves of 2P: {[(str(Q.x), str(Q.y)) for Q in halves]}")
assert Point(Fraction(-4), Fraction(6)) in halves
print("the descent recovers P exactly")
