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

The bracket and the theta foam are `LinearMap`s (defined in `frobalg`,
re-exported here), the same sparse column store as the algebra's own
structure maps.  `GENERATORS` is the table of the diagram language's
primitive generators: each name with the map it stands for and its arity.
The co-operations are not stored: as maps they are the derived names
`bcomul` and `bcomul_skein` of `foamlang.DEFINITIONS`, diagrams of the
primitives, and `cocomul` and `cocomul_skein` compute them on elements.
`foamlang` compiles diagrams over a context into its `BranchContext.memo`;
this module imports nothing of `foamlang`.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .frobalg import AlgebraElement, FrobeniusAlgebra, LinearMap, \
    TensorElement, _Kron, _kron, _push
from .thetafoam import ThetaTable


class BranchContext:
    """A Frobenius algebra paired with a rank-matching theta table.

    Immutable; the bracket and theta maps are built on first use.
    `memo` holds the diagrams compiled over the context (`foamlang.factors`),
    keyed by source text, and the antisymmetry verdict of a report on it
    (`lawsuite.check_antisymmetry`), a bool under a tuple key; it holds
    maps, column sources and that bool only, nothing that refers back to
    the context.
    """

    def __init__(self, algebra: FrobeniusAlgebra, theta: ThetaTable):
        if theta.rank != algebra.rank:
            raise ValueError(
                f"rank mismatch: algebra rank {algebra.rank}, "
                f"theta rank {theta.rank}"
            )
        self.algebra = algebra
        self.theta = theta.embed(algebra.gens)
        self.memo = {"mul ; counit": [algebra.pairing_map]}

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
        return LinearMap._canonical(
            A.gens, n, 2, 1, {ij: _push(duals, w) for ij, w in weights.items()})

    @cached_property
    def theta_map(self) -> LinearMap:
        """The theta foam as a 3 -> 0 map: column (i, j, k) is
        theta(e_i, e_j, e_k)."""
        n = self.algebra.rank
        return LinearMap(self.algebra.gens, n, 3, 0, {
            (i * n + j) * n + k: {0: t}
            for (i, j, k), t in self.theta.entries.items()})

    # -- operations ------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> AlgebraElement:
        """bracket(e_i, e_j), read off the bracket map's column (i, j)."""
        A = self.algebra
        return A._element(self.bracket_map.cols.get(i * A.rank + j, {}))

    def bracket(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Bilinear extension of the basis bracket table."""
        return self.algebra._apply(self.bracket_map, u, v)

    def cocomul(self, u: AlgebraElement) -> TensorElement:
        """sum_i bracket(u, y_i) (x) e_i, with y_i the dual basis: the
        bracket on the two left legs of u (x) delta_one."""
        A = self.algebra
        legs = _kron(A._own(u).vec, A.delta_one.vec, A.rank ** 2)
        return A._tensor(2, _push(_Kron(self.bracket_map, A.identity_map),
                                  legs.items()))

    def cocomul_skein(self, u: AlgebraElement) -> TensorElement:
        """cocomul with the two output legs exchanged."""
        return self.algebra.swap_map.apply(self.cocomul(u))

    # -- matrices ---------------------------------------------------------------

    def mul_by_map(self, u: AlgebraElement) -> LinearMap:
        """The 1 -> 1 matrix of multiplication by a fixed element."""
        A = self.algebra
        return LinearMap._canonical(A.gens, A.rank, 1, 1,
                                    A._mul_by_columns(A._own(u).vec))

    def linear_map(self, name: str) -> LinearMap:
        """Exact matrix of the generator `name` of `GENERATORS`, a name of
        the diagram language.  Raises ValueError on an unknown name, and on
        `aug` or `diag` off a group ring."""
        if name not in GENERATORS:
            raise ValueError(f"unknown linear map name {name!r}")
        head, _, attr = GENERATORS[name][0].rpartition(".")
        owner = attrgetter(head)(self) if head else self
        # A map is a cached property of the class or set by the constructor.
        if not hasattr(type(owner), attr) and attr not in vars(owner):
            raise ValueError(f"generator {name!r} needs a group ring algebra")
        return getattr(owner, attr)

    def __repr__(self):
        return f"BranchContext({self.algebra!r}, {self.theta!r})"


# The generators of the diagram language: name -> (path of the map from a
# BranchContext, inputs, outputs).  `aug` and `diag`, the augmentation and
# the diagonal, are maps of a group ring only.
GENERATORS = {
    "id": ("algebra.identity_map", 1, 1),
    "swap": ("algebra.swap_map", 2, 2),
    "mul": ("algebra.mul_map", 2, 1),
    "unit": ("algebra.unit_map", 0, 1),
    "counit": ("algebra.counit_map", 1, 0),
    "bmul": ("bracket_map", 2, 1),
    "theta": ("theta_map", 3, 0),
    "delta_one": ("algebra.delta_one_map", 0, 2),
    "aug": ("algebra.augmentation_map", 1, 0),
    "diag": ("algebra.diagonal_map", 1, 2),
}
