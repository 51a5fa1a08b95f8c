"""The exact coefficient ring Z[a, b, c, ...]: sparse canonical polynomials
with arbitrary-precision integer coefficients.

Run:  python3 demos/polynomial_ring.py
"""

from foamalg import MultiPoly, parse_poly

GENS = ("a", "b", "c")

p = parse_poly("a + b", GENS)
q = parse_poly("a - b", GENS)
print("p        =", p)
print("q        =", q)
print("p * q    =", p * q)
print("p^2      =", p ** 2)
print("p + (-p) =", p + (-p))

print()
print("Values are canonical: equal iff their term maps are equal.")
r1 = MultiPoly(GENS, [((2, 0, 0), 1), ((0, 2, 0), -1)])
r2 = parse_poly("a^2 - b^2", GENS)
print("built from terms:", r1, " parsed:", r2, " equal:", r1 == r2)

print()
print("Coefficients never overflow:")
big = MultiPoly.const(GENS, 10 ** 30)
print("(10^30)^3 =", (big * big * big))

print()
print("Rendering is deterministic and parseable:")
s = parse_poly("-3*a*c + b^2 - 7", GENS)
print("str    :", s)
print("reparse:", parse_poly(str(s), GENS) == s)
