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
    TensorElement, _Kron, _column, _push, _vector
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
        duals = A.dual_map.cols
        return LinearMap(A.gens, n, 2, 1,
                         {ij: _push(duals, w) for ij, w in weights.items()})

    @cached_property
    def theta_map(self) -> LinearMap:
        """The theta foam as a 3 -> 0 map: column (i, j, k) is
        theta(e_i, e_j, e_k)."""
        n = self.algebra.rank
        return LinearMap(self.algebra.gens, n, 3, 0, {
            (i * n + j) * n + k: {0: t}
            for (i, j, k), t in self.theta.entries.items()})

    @cached_property
    def cocomul_map(self) -> LinearMap:
        """u -> sum_i bracket(u, y_i) (x) e_i: delta_one beside the input,
        then the bracket on the two left legs, read one column at a time
        (bracket (x) id has n^3 columns)."""
        A = self.algebra
        stages = ((A.identity_map @ A.delta_one_map).cols,
                  _Kron(self.bracket_map, A.identity_map))
        return LinearMap(A.gens, A.rank, 1, 2,
                         {u: _column(stages, u) for u in range(A.rank)})

    @cached_property
    def cocomul_skein_map(self) -> LinearMap:
        return self.cocomul_map >> self.algebra.swap_map

    # -- operations ------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> AlgebraElement:
        """bracket(e_i, e_j), read off the bracket map's column (i, j)."""
        A = self.algebra
        return A._element(self.bracket_map.cols.get(i * A.rank + j, {}))

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

        Names: bracket, cocomul, cocomul_skein, theta, mul, comul,
        counit_map, unit_map, swap, identity, delta_one_map.
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
    "theta": "theta_map",
}
