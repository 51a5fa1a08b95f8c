"""Value tables theta(i, j, k) for the closed three-facet sphere foam.

A table assigns a coefficient-ring value to each ordered triple of basis
indices, is closed under cyclic permutation of the arguments, and evaluates
to zero on absent or out-of-range triples.
"""

from __future__ import annotations

import operator

from .coeffring import MultiPoly
from .frobalg import LinearMap


def _cyclic(triple):
    i, j, k = triple
    return (i, j, k), (j, k, i), (k, i, j)


class ThetaTable:
    """Sparse cyclically-symmetric table of ring values on index triples.

    The constructor takes a mapping or (triple, value) pairs and closes
    them under cyclic permutation.  A zero entry counts: a value given
    elsewhere on its orbit is a conflict.  Only nonzero values are stored."""

    __slots__ = ("gens", "rank", "entries")

    def __init__(self, gens, rank: int, entries):
        self.gens = tuple(gens)
        self.rank = operator.index(rank)
        if self.rank < 1:
            raise ValueError("theta table rank must be at least 1")
        canon: dict[tuple[int, int, int], MultiPoly] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for triple, value in items:
            triple = tuple(map(operator.index, triple))
            if len(triple) != 3:
                raise ValueError(f"theta entries are indexed by triples, got {triple}")
            if any(t < 0 or t >= self.rank for t in triple):
                raise ValueError(
                    f"index out of range in {triple} for rank {self.rank}"
                )
            value = MultiPoly.of(self.gens, value)
            for image in _cyclic(triple):
                if canon.setdefault(image, value) != value:
                    raise ValueError(
                        f"cyclic symmetry conflict: {image} would receive "
                        f"both {canon[image]} and {value}"
                    )
        self.entries = {t: v for t, v in canon.items() if v}

    def value(self, i: int, j: int, k: int) -> MultiPoly:
        """theta on basis indices; out-of-range arguments give zero."""
        v = self.entries.get((i, j, k))
        return v if v is not None else MultiPoly.zero(self.gens)

    def eval(self, u, v, w) -> MultiPoly:
        """Trilinear extension of the table to elements of one algebra.

        The table is read in the elements' coefficient ring, by generator
        name, as a 3 -> 0 map, and applied as the algebra applies its own
        maps; elements of different algebras raise ValueError.
        """
        if not (len(u.coeffs) == len(v.coeffs) == len(w.coeffs) == self.rank):
            raise ValueError("rank mismatch between theta table and elements")
        A, n = u.algebra, self.rank
        cols = {(i * n + j) * n + k: {0: t.embed(A.gens)}
                for (i, j, k), t in self.entries.items()}
        return A._apply(LinearMap._canonical(A.gens, n, 3, 0, cols), u, v, w)

    def embed(self, gens) -> "ThetaTable":
        """Reinterpret all values in another coefficient ring (by name)."""
        gens = tuple(gens)
        if gens == self.gens:
            return self
        return ThetaTable(
            gens, self.rank,
            {t: v.embed(gens) for t, v in self.entries.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, ThetaTable):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ThetaTable(rank={self.rank}, nonzero={len(self.entries)})"


def lie_theta(n: int) -> ThetaTable:
    """The rank-n table over Z whose branch operation is a Lie bracket.

    Defined for odd n > 1: value +1 on cyclic permutations of (0, b, c) with
    b + c = n and 1 < b < c, value -1 when 1 < c < b, and 0 elsewhere.  For
    n = 3 the conditions relax to b < c and c < b.
    """
    if n <= 1 or n % 2 == 0:
        raise ValueError("construction defined for odd N > 1 only")
    entries = []
    for b in range(1, n):
        c = n - b
        if n == 3:
            plus, minus = b < c, c < b
        else:
            plus, minus = 1 < b < c, 1 < c < b
        if plus:
            entries.append(((0, b, c), 1))
        elif minus:
            entries.append(((0, b, c), -1))
    return ThetaTable((), n, entries)


def mv_theta() -> ThetaTable:
    """The rank-3 table over Z[a,b,c]: +1 on the cyclic orbit of (0, 1, 2),
    -1 on the orbit of (0, 2, 1), zero otherwise."""
    gens = ("a", "b", "c")
    return ThetaTable(gens, 3, [((0, 1, 2), 1), ((0, 2, 1), -1)])
