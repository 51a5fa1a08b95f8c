"""Group rings R[G] for finite abelian G, with their Frobenius structure.

The Frobenius form picks out the identity element; the dual basis of a group
element is its inverse, so delta_one is sum_g g (x) g^{-1}.  The diagonal
comultiplication g -> g (x) g can be produced by a cyclically symmetric theta
table exactly when every non-identity element has order 2; the derivation
and the resulting bialgebra checks live here.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import gcd, lcm

from .branchops import BranchContext
from .coeffring import MultiPoly
from .frobalg import AlgebraElement, FrobeniusAlgebra, LinearMap, \
    TensorElement
from .lawsuite import LAWS, LawReport, _compare, sides
from .thetafoam import ThetaTable

_GENERATOR_NAMES = ("x", "y", "z", "w", "v", "u")

_MAX_GROUP_SIZE = 64


class FiniteAbelianGroup:
    """A product of cyclic groups, elements indexed by residue tuples.

    The element with residue tuple (r1, ..., rk) has index
    r1 * o2 * ... * ok + ... + rk (first factor most significant); the
    identity is index 0.
    """

    __slots__ = ("orders", "size", "_strides")

    def __init__(self, orders):
        orders = tuple(map(operator.index, orders))
        if not orders:
            raise ValueError("the group needs at least one cyclic factor")
        if any(o < 2 for o in orders):
            raise ValueError("cyclic orders must be at least 2")
        self.orders = orders
        size = 1
        strides = []
        for o in reversed(orders):
            strides.append(size)
            size *= o
        self.size = size
        self._strides = tuple(reversed(strides))

    def index(self, residues) -> int:
        residues = tuple(residues)
        if len(residues) != len(self.orders):
            raise ValueError("residue tuple length mismatch")
        return sum(
            (r % o) * s for r, o, s in zip(residues, self.orders, self._strides)
        )

    def residues(self, index: int) -> tuple[int, ...]:
        out = []
        for o, s in zip(self.orders, self._strides):
            out.append((index // s) % o)
        return tuple(out)

    def add(self, i: int, j: int) -> int:
        """The index of the sum, added residue by residue on the indices."""
        return sum((i // s + j // s) % o * s
                   for o, s in zip(self.orders, self._strides))

    def inverse(self, i: int) -> int:
        return self.index(-r for r in self.residues(i))

    def element_order(self, i: int) -> int:
        return lcm(*(o // gcd(r, o)
                     for r, o in zip(self.residues(i), self.orders)))

    def has_exponent_two(self) -> bool:
        """True iff every non-identity element has order 2."""
        return all(o == 2 for o in self.orders)

    def __repr__(self):
        return f"FiniteAbelianGroup(orders={list(self.orders)})"


def _element_label(group: FiniteAbelianGroup, index: int) -> str:
    parts = []
    for name, r in zip(_GENERATOR_NAMES, group.residues(index)):
        if r == 1:
            parts.append(name)
        elif r > 1:
            parts.append(f"{name}^{r}")
    return "*".join(parts) if parts else "1"


class GroupRingAlgebra(FrobeniusAlgebra):
    """A Frobenius algebra whose basis is a finite abelian group.

    The counit picks out the identity, so the Gram matrix is the permutation
    matrix of g -> g^{-1}.  The dual basis y_g = g^{-1} is handed over, and
    the Gram determinant is the sign of that involution, (-1) to the number
    of pairs {g, g^{-1}} with g != g^{-1}.  Construction checks the dual
    basis as it checks one from `unimodular_inverse`.
    """

    def __init__(self, group: FiniteAbelianGroup, generators=()):
        self.group = group
        gens = tuple(generators)
        n = group.size
        zero, one = MultiPoly.zero(gens), MultiPoly.one(gens)
        labels = [_element_label(group, i) for i in range(n)]
        mul_cols = {i * n + j: {group.add(i, j): one}
                    for i in range(n) for j in range(n)}
        counit_vec = [one] + [zero] * (n - 1)
        # The generator of a cyclic factor has that factor's stride as index.
        symbols = {name: [one if a == stride else zero for a in range(n)]
                   for name, stride in zip(_GENERATOR_NAMES, group._strides)}
        inverse = [group.inverse(g) for g in range(n)]
        swaps = sum(1 for g in range(n) if inverse[g] > g)
        dual = ({g: {inverse[g]: one} for g in range(n)},
                MultiPoly.const(gens, (-1) ** swaps))
        super().__init__(gens, labels, mul_cols, counit_vec, symbols=symbols,
                         dual=dual)

    @cached_property
    def augmentation_map(self) -> LinearMap:
        """The counit of the group bialgebra: every group element to 1."""
        one = MultiPoly.one(self.gens)
        return LinearMap(self.gens, self.rank, 1, 0,
                         {g: {0: one} for g in range(self.rank)})

    @cached_property
    def diagonal_map(self) -> LinearMap:
        """The diagonal comultiplication g -> g (x) g."""
        n, one = self.rank, MultiPoly.one(self.gens)
        return LinearMap(self.gens, n, 1, 2, {g: {g * n + g: one}
                                              for g in range(n)})


def group_ring(orders, generators=()) -> GroupRingAlgebra:
    """The group ring of Z/o1 x ... x Z/ok over Z[generators].

    Sizes are bounded at 64 elements; every derived structure stays exact.
    """
    group = FiniteAbelianGroup(orders)
    if group.size > _MAX_GROUP_SIZE:
        raise ValueError(
            f"group size {group.size} exceeds the supported bound "
            f"{_MAX_GROUP_SIZE}"
        )
    if len(group.orders) > len(_GENERATOR_NAMES):
        raise ValueError("too many cyclic factors to name generators")
    return GroupRingAlgebra(group, generators)


def hopf_delta(A: GroupRingAlgebra, u: AlgebraElement) -> TensorElement:
    """The diagonal comultiplication, linearly extending g -> g (x) g."""
    return A._apply(A.diagonal_map, u)


def derive_bialgebra_theta(A: GroupRingAlgebra) -> ThetaTable:
    """The theta table forcing the branch co-operation to be the diagonal.

    Matching the diagonal comultiplication forces
    theta(g, h^{-1}, k^{-1}) = 1 exactly when g = h = k; that prescription
    is cyclically symmetric iff every element is its own inverse.  For
    exponent-2 groups the table is theta(g, g, g) = 1 for all g.
    """
    if not isinstance(A, GroupRingAlgebra):
        raise TypeError("derive_bialgebra_theta needs a group ring algebra")
    if not A.group.has_exponent_two():
        raise ValueError(
            "group has an element of order > 2; no cyclically-symmetric "
            "theta reproduces the diagonal comultiplication"
        )
    entries = [((g, g, g), 1) for g in range(A.rank)]
    return ThetaTable(A.gens, A.rank, entries)


def _generator_rows(A: FrobeniusAlgebra):
    """The filter of the columns x * n + y, x and y basis indices, with x =
    0 or x in the generating set S that construction proved the current
    product associative with (`generator_indices`); None without such an S.

    On these rows compatibility, D(xy) = D(x)D(y) for a linear map D,
    proves itself on all n^2 pairs.  T = {x : D(xy) = D(x)D(y) for all y}
    is a submodule, since both sides are linear in x.  For x, x' in T,
    associativity gives D((xx')y) = D(x)D(x'y) = D(x)D(x')D(y) =
    D(xx')D(y), so T is closed under products.  So T, holding 1 and S, is
    A."""
    gens = A.generator_indices()
    if gens is None:
        return None
    n, rows = A.rank, {0, *gens}
    return lambda c: c // n in rows


def check_bialgebra(A: GroupRingAlgebra, ctx: BranchContext) -> LawReport:
    """Verify the branch co-operation gives a bialgebra on the group ring:
    the laws of `lawsuite.LAWS` that cocomul equals the diagonal `diag`;
    then compatibility with mul on all basis pairs; then the left and the
    right counit laws for the augmentation `aug`, on every basis element.
    Each law is walked in turn, and the report adds up their cases.

    Compatibility is read only on the rows of e_0 and of a generating set,
    against every basis element, where `_generator_rows` proves that this
    decides every pair; a pass reports n^2 cases.  If one of these rows
    fails, every pair is walked again, so the report shows the first
    failing pair in flat order.  Without such a proof, every pair is
    walked."""
    if ctx.algebra is not A:
        raise ValueError("context was not built from the given algebra")
    generator_rows = _generator_rows(A)
    cases = 0
    for law in ("cocomul equals diagonal", "compatibility",
                "counit law (left)", "counit law (right)"):
        pair = sides(ctx, law)
        keep = generator_rows if law == "compatibility" else None
        checked, cx = _compare(A, pair, LAWS[law][0], keep)
        if cx is not None and keep is not None:
            checked, cx = _compare(A, pair, LAWS[law][0])
        cases += checked
        if cx is not None:
            cx = {"inputs": cx["inputs"], "sublaw": law, **cx}
            return LawReport(law="bialgebra", passed=False,
                             checked_cases=cases, counterexample=cx)
    return LawReport(law="bialgebra", passed=True, checked_cases=cases)
