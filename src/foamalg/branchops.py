"""Branch-circle operations derived from a Frobenius algebra and a theta table.

The two-input operation (the bracket) comes from resolving the neck below a
branch circle with the dual basis:

    bracket(u, v) = sum_i theta(e_i, u, v) * y_i

The one-input co-operation has two leg conventions.  `cocomul` pairs the
bracket leg with the first tensor factor,

    cocomul(u) = sum_i bracket(u, y_i) (x) e_i,

and `cocomul_skein` is the same map with the output legs exchanged.  Both are
exposed because the two conventions satisfy different sign forms of the web
skein identities; the law suite reports each separately.

Each operation is a `LinearMap` (defined in `frobalg`, re-exported here),
the same sparse column store as the algebra's own structure maps.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .frobalg import AlgebraElement, FrobeniusAlgebra, LinearMap, \
    TensorElement, _push, _vector
from .thetafoam import ThetaTable


class BranchContext:
    """A Frobenius algebra paired with a rank-matching theta table.

    Immutable; the bracket and cocomul maps are built on first use.
    """

    def __init__(self, algebra: FrobeniusAlgebra, theta: ThetaTable):
        if theta.rank != algebra.rank:
            raise ValueError(
                f"rank mismatch: algebra rank {algebra.rank}, "
                f"theta rank {theta.rank}"
            )
        self.algebra = algebra
        self.theta = theta.embed(algebra.gens)

    # -- structure maps, each one column store built on first use -------------

    @cached_property
    def bracket_map(self) -> LinearMap:
        """(e_i, e_j) -> sum_k theta(e_k, e_i, e_j) y_k, from the nonzero
        theta entries only."""
        A = self.algebra
        n = A.rank
        weights: dict[int, list] = {}
        for (k, i, j), t in self.theta.entries.items():
            weights.setdefault(i * n + j, []).append((k, t))
        duals = dict(enumerate(map(_vector, A.dual_basis)))
        return LinearMap(A.gens, n, 2, 1,
                         {ij: _push(duals, w) for ij, w in weights.items()})

    @cached_property
    def cocomul_map(self) -> LinearMap:
        """u -> sum_i bracket(u, y_i) (x) e_i: delta_one beside the input,
        then the bracket on the two left legs."""
        A = self.algebra
        return (A.identity_map @ A.delta_one_map) >> \
            (self.bracket_map @ A.identity_map)

    @cached_property
    def cocomul_skein_map(self) -> LinearMap:
        return self.cocomul_map >> self.algebra.swap_map

    # -- operations ------------------------------------------------------------

    @cached_property
    def _bracket_table(self):
        """bracket(e_i, e_j) as elements, read off the bracket map's columns."""
        A = self.algebra
        n, cols = A.rank, self.bracket_map.cols
        return tuple(
            tuple(A._element(cols.get(i * n + j, {})) for j in range(n))
            for i in range(n)
        )

    def bracket_basis(self, i: int, j: int) -> AlgebraElement:
        return self._bracket_table[i][j]

    def bracket(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Bilinear extension of the basis bracket table."""
        return self.algebra._apply(self.bracket_map, u, v)

    def cocomul(self, u: AlgebraElement) -> TensorElement:
        """sum_i bracket(u, y_i) (x) e_i, with y_i the dual basis."""
        return self.algebra._apply(self.cocomul_map, u)

    def cocomul_skein(self, u: AlgebraElement) -> TensorElement:
        """cocomul with the two output legs exchanged."""
        return self.algebra._apply(self.cocomul_skein_map, u)

    # -- matrices ---------------------------------------------------------------

    def mul_by_map(self, u: AlgebraElement) -> LinearMap:
        """The 1 -> 1 matrix of multiplication by a fixed element."""
        A = self.algebra
        n = A.rank
        u = _vector(A._own(u))
        cols = {
            j: _push(A.mul_map.cols, [(i * n + j, c) for i, c in u.items()])
            for j in range(n)
        }
        return LinearMap(A.gens, n, 1, 1, cols)

    def linear_map(self, which: str) -> LinearMap:
        """Exact matrix of a named generator map.

        Names: bracket, cocomul, cocomul_skein, mul, comul, counit_map,
        unit_map, swap, identity, delta_one_map.
        """
        path = _LINEAR_MAPS.get(which)
        if path is None:
            raise ValueError(f"unknown linear map name {which!r}")
        return attrgetter(path)(self)

    def __repr__(self):
        return f"BranchContext({self.algebra!r}, {self.theta!r})"


_LINEAR_MAPS = {
    "identity": "algebra.identity_map",
    "swap": "algebra.swap_map",
    "mul": "algebra.mul_map",
    "comul": "algebra.comul_map",
    "counit_map": "algebra.counit_map",
    "unit_map": "algebra.unit_map",
    "delta_one_map": "algebra.delta_one_map",
    "bracket": "bracket_map",
    "cocomul": "cocomul_map",
    "cocomul_skein": "cocomul_skein_map",
}
