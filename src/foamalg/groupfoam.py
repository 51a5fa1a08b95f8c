"""Group rings R[G] for finite abelian G, with their Frobenius structure.

The Frobenius form picks out the identity element; the dual basis of a group
element is its inverse, so delta_one is sum_g g (x) g^{-1}.  Unless the
group is cyclic, or Z/2 or Z/3 times a cyclic group, its group ring is
built as the tensor product of the cyclic group rings Z[Z/oi], since
Z[G x H] = Z[G] (x) Z[H] as Frobenius algebras: each cyclic factor is
validated in full when it is built, and the product's table, counit and
dual basis are made from the factors', so the product skips Light's test
over the whole ring.  The diagonal comultiplication g -> g (x) g can be
produced by a cyclically symmetric theta table exactly when every
non-identity element has order 2; that derivation lives here.  The
bialgebra check walks its laws in `lawsuite` and is re-exported here as
`check_bialgebra`.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce

from .coeffring import MultiPoly
from .frobalg import AlgebraElement, FrobeniusAlgebra, LinearMap, \
    TensorElement, _kron
from .lawsuite import check_bialgebra
from .thetafoam import ThetaTable

__all__ = ["FiniteAbelianGroup", "GroupRingAlgebra", "group_ring",
           "hopf_delta", "derive_bialgebra_theta", "check_bialgebra"]

_MAX_GROUP_SIZE = 64

# Every cyclic order is at least 2, so a group within the size bound has at
# most log2(64) = 6 factors, and six names always suffice.
_GENERATOR_NAMES = ("x", "y", "z", "w", "v", "u")


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


def _tensor_product(left, right):
    """The Frobenius data of A (x) B from that of A and B.

    Each side is (rank, product columns, counit columns, dual columns,
    det(gram)), the columns as a `LinearMap` stores them, and B's indices
    run fastest in the result.  The product is mul (x) mul after the middle
    swap: column ((a1, b1), (a2, b2)) is the Kronecker product of column
    (a1, a2) of A and column (b1, b2) of B.  The counit is eps (x) eps', the
    dual basis y_a (x) y'_b, and det(gram) = det_A^m det_B^n for ranks n and
    m (Kock, *Frobenius Algebras and 2D Topological Quantum Field Theories*,
    2004).  Columns come out in increasing index order; an empty one is
    {}, which `LinearMap` drops.
    """
    n, mul_a, eps_a, dual_a, det_a = left
    m, mul_b, eps_b, dual_b, det_b = right
    nm = n * m
    cols_b = [mul_b.get(c, {}) for c in range(m * m)]
    # A group ring's n^2 product columns are only n distinct elements, so
    # each distinct column of A is multiplied out against B's table once.
    made, blocks = {}, []
    for c in range(n * n):
        col_a = mul_a.get(c, {})
        key = tuple(col_a.items())
        block = made.get(key)
        if block is None:
            block = made[key] = [_kron(col_a, col_b, m) for col_b in cols_b]
        blocks.append(block)
    mul = {(a1 * m + b1) * nm + a2 * m + b2: blocks[a1 * n + a2][b1 * m + b2]
           for a1 in range(n) for b1 in range(m)
           for a2 in range(n) for b2 in range(m)}
    counit = {a * m + b: _kron(x, y, 1)
              for a, x in eps_a.items() for b, y in eps_b.items()}
    dual = {a * m + b: _kron(x, y, m)
            for a, x in dual_a.items() for b, y in dual_b.items()}
    return nm, mul, counit, dual, det_a ** m * det_b ** n


class GroupRingAlgebra(FrobeniusAlgebra):
    """A Frobenius algebra whose basis is a finite abelian group.

    The counit picks out the identity, so the Gram matrix is the permutation
    matrix of g -> g^{-1}.  The dual basis y_g = g^{-1} is handed over, and
    the Gram determinant is the sign of that involution, (-1) to the number
    of pairs {g, g^{-1}} with g != g^{-1}.  Construction checks the dual
    basis as it checks one from `unimodular_inverse`.

    The group ring of Z/o1 x ... x Z/ok is the tensor product of the cyclic
    group rings Z[Z/oi], first factor most significant, which is the
    group's mixed-radix index, and Z[G x H] is Z[G] (x) Z[H] as Frobenius
    algebras.  So when at least four elements lie outside the largest
    factor, each distinct order is built, and so validated, once; the
    product's table, counit, dual basis and Gram determinant are folded
    from the factors' own maps by `_tensor_product`; and the product skips
    Light's test, its algebra axioms holding by the theorem.  It records
    its generating set, e_0 and the cyclic generators at the indices
    `group._strides`, with its `mul_map` (`generator_indices`), as Light's
    test would, and its dual basis is checked.  Any other group ring is
    built from the group law and validated in full.
    """

    def __init__(self, group: FiniteAbelianGroup, generators=()):
        self.group = group
        gens = tuple(generators)
        n = group.size
        zero, one = MultiPoly.zero(gens), MultiPoly.one(gens)
        # A measured selection: built through their factors, Z/2 x Z/o for
        # o < 8 and Z/3 x Z/2 got slower (`group:2,3` by half), so a group
        # with fewer than four elements outside its largest factor, a
        # cyclic group among them, is validated whole.
        from_factors = n >= 4 * max(group.orders)
        if from_factors:
            factors = (GroupRingAlgebra(FiniteAbelianGroup([o]), gens)
                       for o in set(group.orders))
            rings = {f.rank: (f.rank, f.mul_map.cols, f.counit_map.cols,
                              f.dual_map.cols, f.gram_det) for f in factors}
            _, mul_cols, counit, dual_cols, det = reduce(
                _tensor_product, map(rings.get, group.orders))
            counit_vec = [counit.get(j, {}).get(0, zero) for j in range(n)]
        else:
            mul_cols = {i * n + j: {group.add(i, j): one}
                        for i in range(n) for j in range(n)}
            counit_vec = [one] + [zero] * (n - 1)
            inverse = [group.inverse(g) for g in range(n)]
            dual_cols = {g: {inverse[g]: one} for g in range(n)}
            swaps = sum(1 for g in range(n) if inverse[g] > g)
            det = MultiPoly.const(gens, (-1) ** swaps)
        labels = [_element_label(group, i) for i in range(n)]
        # The generator of a cyclic factor has that factor's stride as index.
        symbols = {name: [one if a == stride else zero for a in range(n)]
                   for name, stride in zip(_GENERATOR_NAMES, group._strides)}
        super().__init__(gens, labels, mul_cols, counit_vec, symbols=symbols,
                         validate=not from_factors, dual=(dual_cols, det))
        if from_factors:
            self._generators = (self.mul_map, tuple(sorted(group._strides)))
            self._validate_frobenius()

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
    return GroupRingAlgebra(group, generators)


def hopf_delta(A: GroupRingAlgebra, u: AlgebraElement) -> TensorElement:
    """The diagonal comultiplication, linearly extending g -> g (x) g."""
    if not isinstance(A, GroupRingAlgebra):
        raise TypeError("hopf_delta needs a group ring algebra")
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
