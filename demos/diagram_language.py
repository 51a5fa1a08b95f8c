"""The planar diagram language: parsing, arity checking, compilation to
exact matrices, and closed-diagram evaluation.

Run:  python3 demos/diagram_language.py
"""

from foamalg import (
    ArityError,
    BranchContext,
    ParseError,
    compile_diagram,
    eval_closed,
    mv_algebra,
    mv_theta,
    parse,
    pretty,
    typecheck,
)

ctx = BranchContext(mv_algebra(), mv_theta())
A = ctx.algebra

print("== Parsing and arities ==")
for src in ["unit ; comul", "mul ; counit", "(unit * unit) ; mul ; counit",
            "comul ; (label(X) * id) ; mul"]:
    expr = parse(src)
    print(f"   {src!r:45s} arity {typecheck(expr)}  pretty: {pretty(expr)}")

print()
print("== Errors carry positions ==")
for src in ["unit ; ; comul", "comul ; comul"]:
    try:
        typecheck(parse(src))
    except (ParseError, ArityError) as exc:
        print(f"   {src!r:20s} -> {exc}")

print()
print("== Compilation ==")
handle = compile_diagram(parse("comul ; mul ; counit"), ctx)
print("comul ; mul ; counit  (1 -> 0):", handle.to_strings())
print("entry on the unit is the handle scalar:", handle.entry(0, 0))

swap = compile_diagram(parse("swap"), ctx).to_strings()
print("swap is a", len(swap), "x", len(swap[0]), "permutation matrix")

print()
print("== Closed diagrams evaluate to scalars ==")
print("unit ; counit                =", eval_closed(parse("unit ; counit"), ctx))
src = "((unit;label(X)) * (unit;label(X^2))) ; mul ; counit"
print(f"{src}")
print("                             =", eval_closed(parse(src), ctx))

print()
print("The closed theta diagram reproduces the table on every labelled triple:")
for w, u, v in [("1", "X", "X^2"), ("1", "X^2", "X"), ("X", "X", "X")]:
    src = (f"((unit;label({w})) * (unit;label({u})) * (unit;label({v}))) ; "
           f"(id * bmul) ; mul ; counit")
    print(f"   theta({w}, {u}, {v}) =", eval_closed(parse(src), ctx))
