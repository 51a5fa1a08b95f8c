"""`compile_diagram` against a dense evaluator that shares none of the map
kernel (`_push`, `_kron`, `_Kron`, `LinearMap._canonical`).

The reference reads each generator's matrix off the data an algebra stores
(its product columns, counit vector and dual basis, the theta entries and
the basis symbols), builds the bracket as sum_k theta(e_k, e_i, e_j) y_k,
and evaluates a diagram with dense matrix products and dense Kronecker
products in plain `MultiPoly` arithmetic.  Its entries are copied through
the public `MultiPoly` constructor, so a kernel that changed a shared value
in place would show as a difference.  Each compiled map's stored columns
must be the reference's nonzero columns exactly.
"""

import random

import pytest

from foamalg.branchops import BranchContext
from foamalg.coeffring import MultiPoly, parse_expression
from foamalg.foamlang import DEFINITIONS, Compose, Generator, Tensor, \
    compile_diagram, parse, pretty, typecheck
from foamalg.frobalg import algebra_from_modulus, mv_algebra, \
    truncated_algebra
from foamalg.groupfoam import derive_bialgebra_theta, group_ring
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta

MAX_CELLS = 4096  # largest n^(in + out) of any subdiagram evaluated


def _shifted():
    """Z[X]/(X^2) with the non-monomial counit 1 -> 1, X -> 1."""
    return BranchContext(algebra_from_modulus((), [0, 0, 1], [1, 1]),
                         ThetaTable((), 2, [((0, 1, 1), 1), ((1, 1, 1), 2)]))


def _group():
    A = group_ring([2, 2])
    return BranchContext(A, derive_bialgebra_theta(A))


# The generators of every context, by their number of inputs.
_BASE = {0: ["unit", "delta_one"],
         1: ["id", "counit", "comul", "bcomul", "bcomul_skein"],
         2: ["mul", "swap", "bmul"],
         3: ["theta"]}
# Each context's maker, its label payloads and its one-input generators
# beyond _BASE.
CONTEXTS = {
    "mv": (lambda: BranchContext(mv_algebra(), mv_theta()),
           ["X", "a*X + b", "X^2 - c"], []),
    "aN:5/lie": (lambda: BranchContext(truncated_algebra(5), lie_theta(5)),
                 ["X", "X^3 + 2", "-1"], []),
    "group:2,2/group": (_group, ["x", "x*y - 1"], ["aug", "diag"]),
    "shifted/config": (_shifted, ["X + 1", "2*X"], []),
}


class Dense:
    """The dense reference over one context: `matrix(e)` is the list of
    rows of e's matrix, n^outputs rows of n^inputs entries."""

    def __init__(self, ctx):
        A = ctx.algebra
        self.gens, self.n = A.gens, A.rank
        self.zero = MultiPoly.zero(self.gens)
        one, n = MultiPoly.one(self.gens), self.n
        mul = self.copied(A.mul_map.cols)
        dual = self.copied(A.dual_map.cols)  # column k is y_k
        theta = {t: self.copy(v) for t, v in ctx.theta.entries.items()}
        self.mul, self.symbols = mul, {
            name: [self.copy(vec.get(i, self.zero)) for i in range(n)]
            for name, vec in A._symbols.items()}

        def columns(ins, outs, column):
            return self.from_columns(ins, outs,
                                     [column(c) for c in range(n ** ins)])

        def bracket(c):
            i, j = divmod(c, n)
            out = {}
            for k in range(n):
                t = theta.get((k, i, j))
                for r, y in (dual.get(k, {}).items() if t else ()):
                    out[r] = out.get(r, self.zero) + t * y
            return out

        self.generators = {
            "id": columns(1, 1, lambda c: {c: one}),
            "swap": columns(2, 2, lambda c: {c % n * n + c // n: one}),
            "mul": columns(2, 1, lambda c: mul.get(c, {})),
            "unit": columns(0, 1, lambda c: {0: one}),
            "counit": columns(1, 0, lambda c: {0: self.copy(A.counit_vec[c])}),
            "delta_one": columns(0, 2, lambda c: {
                a * n + i: y for i in range(n)
                for a, y in dual.get(i, {}).items()}),
            "bmul": columns(2, 1, bracket),
            "theta": columns(3, 0, lambda c: {0: theta.get(
                (c // (n * n), c // n % n, c % n), self.zero)}),
            "aug": columns(1, 0, lambda c: {0: one}),
            "diag": columns(1, 2, lambda c: {c * n + c: one}),
        }

    def copy(self, value):
        return MultiPoly(self.gens, value.terms)

    def copied(self, cols):
        return {c: {r: self.copy(v) for r, v in col.items()}
                for c, col in cols.items()}

    def from_columns(self, ins, outs, cols):
        rows = [[self.zero] * self.n ** ins for _ in range(self.n ** outs)]
        for c, col in enumerate(cols):
            for r, v in col.items():
                rows[r][c] = v
        return rows

    def element(self, payload):
        """The algebra element of a label payload, as a coefficient list."""
        n, total = self.n, [self.zero] * self.n
        for coeff, degrees in parse_expression(payload,
                                               check_name=lambda name: None):
            term = [MultiPoly.const(self.gens, coeff)] + \
                [self.zero] * (n - 1)
            for name, k in degrees.items():
                for _ in range(k):
                    if name in self.symbols:
                        term = self.product(term, self.symbols[name])
                    else:
                        g = MultiPoly.gen(self.gens, name)
                        term = [g * t for t in term]
            total = [s + t for s, t in zip(total, term)]
        return total

    def product(self, u, v):
        out = [self.zero] * self.n
        for a, x in enumerate(u):
            for b, y in enumerate(v):
                if x and y:
                    for r, m in self.mul.get(a * self.n + b, {}).items():
                        out[r] = out[r] + x * y * m
        return out

    def matrix(self, e):
        if isinstance(e, Compose):
            parts = [self.matrix(p) for p in e.parts]
            out = parts[0]
            for m in parts[1:]:
                out = self.matmul(m, out)
            return out
        if isinstance(e, Tensor):
            parts = [self.matrix(p) for p in e.parts]
            out = parts[0]
            for m in parts[1:]:
                out = self.kron(out, m)
            return out
        if e.name in DEFINITIONS:
            return self.matrix(parse(DEFINITIONS[e.name]))
        if e.name == "label":
            u = self.element(e.payload)
            return self.from_columns(1, 1, [
                {r: v for r, v in enumerate(self.product(u, [
                    MultiPoly.one(self.gens) if i == k else self.zero
                    for i in range(self.n)]))}
                for k in range(self.n)])
        return self.generators[e.name]

    def matmul(self, a, b):
        """The matrix product a b, skipping zero entries."""
        width = len(b[0])
        out = [[self.zero] * width for _ in a]
        for i, row in enumerate(a):
            for k, x in enumerate(row):
                if x:
                    for j, y in enumerate(b[k]):
                        if y:
                            out[i][j] = out[i][j] + x * y
        return out

    def kron(self, a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    def columns(self, rows):
        """The nonzero columns of a matrix, each as {row: nonzero entry}."""
        out = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    out.setdefault(c, {})[r] = v
        return out


def random_diagram(rng, ins, depth, leaves):
    """A random well-typed diagram with `ins` inputs; `leaves` maps an
    input arity to the sources of the generators with that many inputs."""
    kind = "leaf" if depth == 0 else rng.choice(["compose", "tensor", "leaf"])
    if kind == "leaf" and leaves.get(ins):
        return parse(rng.choice(leaves[ins]))
    depth = max(depth - 1, 0)
    if kind != "compose" and ins > 0:
        split = rng.randint(0, ins)
        return Tensor([random_diagram(rng, split, depth, leaves),
                       random_diagram(rng, ins - split, depth, leaves)])
    first = random_diagram(rng, ins, depth, leaves)
    mid = typecheck(first)[1]
    if mid > 3:
        return first
    return Compose([first, random_diagram(rng, mid, depth, leaves)])


def small_enough(e, n):
    """Whether every subdiagram of `e` has at most MAX_CELLS cells."""
    ins, outs = typecheck(e)
    if n ** (ins + outs) > MAX_CELLS:
        return False
    return isinstance(e, Generator) or all(small_enough(p, n) for p in e.parts)


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_compiled_maps_match_the_dense_reference(name):
    make, payloads, extra = CONTEXTS[name]
    ctx = make()
    dense, n = Dense(ctx), ctx.algebra.rank
    leaves = {k: list(v) for k, v in _BASE.items()}
    leaves[1] += [f"label({p})" for p in payloads] + extra
    rng = random.Random(f"dense-reference {name}")
    checked = 0
    while checked < 120:
        e = random_diagram(rng, rng.randint(0, 3), 4, leaves)
        if not small_enough(e, n):
            continue
        compiled = compile_diagram(e, ctx)
        assert compiled.cols == dense.columns(dense.matrix(e)), pretty(e)
        checked += 1
