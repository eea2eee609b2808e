"""Halving points over F_p, from tiny fields to a 54-bit prime.

The right-hand cubic x^3 + a2 x^2 + a4 x + a6 factors over F_p in one of
three shapes, and the shape decides where the halving formulas live:

  degrees (1, 1, 1)  all roots in F_p        work in F_p itself
  degrees (1, 2)     one root in F_p         work in F_{p^2}
  degrees (3,)       irreducible             work in F_{p^3}

The candidates that fall back into F_p are the halves.  If some Q in E(F_p)
doubles to P, every difference x0 - e_i is a square in F_{p^D}, so a
difference with no square root there shows that P has no half, and the
engine stops at it instead of climbing into the quadratic tower F_{p^(2D)}.
"""

import time

from halfpoint import (
    Curve,
    FpHalvingField,
    Point,
    brute_force_halves,
    group_order_bf,
    halve_via_order,
)

print("three small instances over F_11, one per factorization shape")
print("=" * 64)
instances = [
    ((0, 1, 2), (8, 4)),   # fully split cubic
    ((0, 0, 1), (0, 1)),   # one rational root
    ((0, 1, 4), (0, 2)),   # irreducible cubic
]
for (a2, a4, a6), (x, y) in instances:
    ctx = FpHalvingField(11, Curve(a2, a4, a6))
    P = Point(x, y)
    halves, info = ctx.halve_with_info(P)
    bf = brute_force_halves(11, ctx.curve, P)
    print(f"y^2 = x^3 + {a4}x + {a6}, P = {(x, y)}")
    print(f"  factor degrees {info['factor_degrees']}, splitting field "
          f"F_11^{info['extension_degree']}, quadratic tower used: "
          f"{info['tower_used']}")
    print(f"  halves: {[(int(Q.x), int(Q.y)) for Q in halves]}")
    assert set(halves) == set(bf), "must agree with the exhaustive search"
print("every answer above matches a brute-force scan of the whole group")

# a difference x0 - e_i with no square root in F_11 stops the engine: that
# root would lie in the quadratic tower, and P has no half in F_11
ctx = FpHalvingField(11, Curve(0, 1, 2))
halves, info = ctx.halve_with_info(Point(1, 2))
print(f"unhalvable P = (1, 2) on y^2 = x^3 + x + 2: halves {halves}, "
      f"tower used: {info['tower_used']}")

print()
print("a 54-bit prime, far beyond any exhaustive scan")
print("=" * 64)
p = 17000000000000071
curve = Curve(0, 17, 71)
P = Point(17071, 4145148307074498)

t0 = time.perf_counter()
ctx = FpHalvingField(p, curve)
halves, info = ctx.halve_with_info(P)
elapsed = time.perf_counter() - t0

print(f"p = {p}")
print(f"cubic factor degrees: {info['factor_degrees']} "
      f"(no roots in F_p, so no 2-torsion and halves are unique)")
(Q,) = halves
print(f"the half of P: ({int(Q.x)}, {int(Q.y)})   [{elapsed * 1000:.1f} ms]")
back = ctx.curve.double(Q)
print(f"doubled back: ({int(back.x)}, {int(back.y)})")

# independent cross-check: with an odd group order m, the doubling map is
# a bijection and P/2 = ((m+1)/2) * P by plain scalar multiplication
m = 16999999816127027
Q2 = halve_via_order(ctx.curve, P, m)
print(f"odd-order shortcut with m = {m}: ({int(Q2.x)}, {int(Q2.y)})")
print(f"the two routes agree: {Q == Q2}")

print()
print("the uniqueness pattern, checked on a tiny field")
print("=" * 64)
for a4, a6 in ((3, 7), (1, 1), (5, 0)):
    curve = Curve(0, a4, a6)
    order = group_order_bf(101, curve)
    ctx = FpHalvingField(101, curve)
    shape = ctx.factor_degrees
    print(f"y^2 = x^3 + {a4}x + {a6} over F_101: order {order} "
          f"({'odd' if order % 2 else 'even'}), factor degrees {shape}")
print("odd order goes exactly with an irreducible cubic: no 2-torsion,")
print("every point has one half; even order always leaves some points with")
print("zero halves and others with two or four")
