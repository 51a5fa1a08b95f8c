"""Group rings, the diagonal comultiplication, and when a cyclically
symmetric theta table can produce it.

Run:  python3 demos/group_bialgebras.py
"""

from foamalg import (
    BranchContext,
    check_bialgebra,
    derive_bialgebra_theta,
    group_ring,
    hopf_delta,
)

print("== Z[Z/2]: the smallest interesting group ring ==")
A = group_ring([2])
x = A.parse_element("x")
print("basis:", ", ".join(A.basis_labels))
print("x * x     =", A.mul(x, x))
print("delta_one =", A.delta_one, "   (each element pairs with its inverse)")
print("diagonal  :", hopf_delta(A, x))

theta = derive_bialgebra_theta(A)
print("derived theta: value 1 on", sorted(theta.entries))
ctx = BranchContext(A, theta)
print("branch co-operation on x:", ctx.cocomul(x))
report = check_bialgebra(ctx)
print("bialgebra checks:", "pass" if report.passed else "fail",
      f"({report.checked_cases} cases)")

print()
print("== The derivation needs every element to square to 1 ==")
for orders in ([2], [2, 2], [2, 2, 2], [3], [4], [2, 3]):
    B = group_ring(orders)
    name = " x ".join(f"Z/{o}" for o in orders)
    try:
        t = derive_bialgebra_theta(B)
        rep = check_bialgebra(BranchContext(B, t))
        print(f"   {name:18s} -> theta derived, bialgebra "
              f"{'pass' if rep.passed else 'fail'}")
    except ValueError as exc:
        print(f"   {name:18s} -> {exc}")

print()
print("== A wrong table is caught immediately ==")
from foamalg import ThetaTable

A2 = group_ring([2])
bad = ThetaTable(A2.gens, 2, [((0, 0, 0), 1)])
rep = check_bialgebra(BranchContext(A2, bad))
print("only theta(1,1,1)=1:", "pass" if rep.passed else "fail")
print("counterexample:", rep.counterexample)
