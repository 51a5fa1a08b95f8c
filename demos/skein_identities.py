"""The web skein identities as exact matrix equalities, and how the two leg
conventions of the branch co-operation differ by a sign.

Run:  python3 demos/skein_identities.py
"""

from foamalg import (
    BranchContext,
    LinearMap,
    check_skein_identities,
    compile_diagram,
    mv_algebra,
    mv_theta,
    parse,
)

ctx = BranchContext(mv_algebra(), mv_theta())
A = ctx.algebra

print("The co-operation has two leg conventions:")
for u in range(3):
    eu = A.basis_element(u)
    print(f"   cocomul({A.basis_labels[u]})       =", ctx.cocomul(eu))
    print(f"   cocomul_skein({A.basis_labels[u]}) =", ctx.cocomul_skein(eu))

m = ctx.linear_map("bmul")
mu = ctx.linear_map("mul")
eps = ctx.linear_map("counit")
tau = ctx.linear_map("swap")
id1 = LinearMap.identity(A.gens, 3, 1)
id2 = LinearMap.identity(A.gens, 3, 2)
E = (mu >> eps) >> ctx.linear_map("delta_one")

print()
print("With F = (bracket ⊗ id)(id ⊗ cocomul_skein):")
D = compile_diagram(parse("bcomul_skein"), ctx)
F = (id1 @ D) >> (m @ id1)
print("   F == E - swap          :", F == E - tau)
print("   F >> F == id + E       :", F >> F == id2 + E)
print("   cocomul_skein >> bracket == 2 id  :", D >> m == 2 * id1)

print()
print("Under the plain cocomul legs every identity flips sign:")
Dl = compile_diagram(parse("bcomul"), ctx)
Fl = (id1 @ Dl) >> (m @ id1)
print("   F == swap - E          :", Fl == tau - E)
print("   F >> F == id + E       :", Fl >> Fl == id2 + E, " (squares agree)")
print("   cocomul >> bracket == -2 id       :", Dl >> m == (-2) * id1)

print()
print("Full per-variant report:")
for r in check_skein_identities(ctx):
    status = "pass" if r.passed else "fail"
    note = f"  ({r.note})" if r.note else ""
    print(f"   {r.law:24s} [{r.variant}] {status}{note}")
