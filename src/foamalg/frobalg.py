"""Finite-rank commutative Frobenius algebras over Z[g1, ..., gk].

An algebra is presented by a multiplication table on a chosen basis together
with the counit (Frobenius form) on basis elements.  Construction eagerly
derives the Gram matrix, its inverse, the dual basis and the neck-cutting
tensor delta_one, and validates the algebra axioms on all basis tuples.

Every structure map (mul, comul, counit, unit, swap, identity, delta_one,
and the branch maps built in `branchops`) is one `LinearMap`: a sparse
column store between tensor powers of the algebra.  Products, coproducts,
compositions and applications all go through `_push`, the one routine that
scales columns and accumulates them.

The Gram matrix must have determinant 1 or -1: its inverse then stays inside
the integer coefficient ring, which is the only setting in which the dual
basis (and hence delta_one) exists over Z[g...] without passing to fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from .coeffring import MultiPoly, parse_expression


class DegenerateFormError(ValueError):
    """The Gram matrix of the Frobenius form is singular or non-unimodular."""


class AlgebraElement:
    """An element of a Frobenius algebra: a coefficient vector over the basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "FrobeniusAlgebra", coeffs):
        coeffs = tuple(
            c if isinstance(c, MultiPoly) else MultiPoly.const(algebra.gens, c)
            for c in coeffs
        )
        if len(coeffs) != algebra.rank:
            raise ValueError(
                f"rank mismatch: got {len(coeffs)} coefficients for a rank "
                f"{algebra.rank} algebra"
            )
        for c in coeffs:
            if c.gens != algebra.gens:
                raise ValueError(
                    f"generator mismatch: {c.gens} vs {algebra.gens}"
                )
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other):
        return self.algebra._own(other)

    def __add__(self, other):
        other = self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.mul(self, other)
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElement":
        if isinstance(c, int):
            c = MultiPoly.const(self.algebra.gens, c)
        return AlgebraElement(self.algebra, tuple(c * x for x in self.coeffs))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.algebra.unit
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.algebra.rank == other.algebra.rank
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return self.algebra.render_element(self)


class TensorElement:
    """An element of the k-fold tensor power of the algebra.

    Stored sparsely: a map from k-tuples of basis indices to nonzero
    polynomial coefficients.
    """

    __slots__ = ("algebra", "order", "coeffs")

    def __init__(self, algebra: "FrobeniusAlgebra", order: int, coeffs):
        if order < 1:
            raise ValueError("tensor order must be at least 1")
        n = algebra.rank
        canon: dict[tuple[int, ...], MultiPoly] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for idx, c in items:
            idx = tuple(int(i) for i in idx)
            if len(idx) != order:
                raise ValueError(f"index tuple {idx} does not have order {order}")
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"basis index out of range in {idx}")
            if isinstance(c, int):
                c = MultiPoly.const(algebra.gens, c)
            s = canon.get(idx)
            s = c if s is None else s + c
            if s:
                canon[idx] = s
            elif idx in canon:
                del canon[idx]
        self.algebra = algebra
        self.order = order
        self.coeffs = canon

    def _check(self, other):
        if not isinstance(other, TensorElement):
            raise TypeError(f"expected TensorElement, got {type(other).__name__}")
        if other.order != self.order or other.algebra is not self.algebra:
            raise ValueError("tensor order or algebra mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return TensorElement(
            self.algebra, self.order, _sum(self.coeffs, other.coeffs)
        )

    def __sub__(self, other):
        return self + (-self._check(other))

    def __neg__(self):
        return TensorElement(
            self.algebra, self.order, {i: -c for i, c in self.coeffs.items()}
        )

    def scale(self, c) -> "TensorElement":
        if isinstance(c, int):
            c = MultiPoly.const(self.algebra.gens, c)
        return TensorElement(
            self.algebra, self.order, {i: c * v for i, v in self.coeffs.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        """Componentwise algebra product on same-order tensors."""
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        other = self._check(other)
        A = self.algebra
        n, mul = A.rank, A.mul_map.cols
        # The column of e_s (x) e_t is the Kronecker product of the mul
        # columns of its legs; only the pairs present are built.
        columns, vector = {}, []
        for s, cs in self.coeffs.items():
            for t, ct in other.coeffs.items():
                legs = (mul.get(a * n + b, {}) for a, b in zip(s, t))
                columns[s, t] = reduce(lambda x, y: _kron(x, y, n), legs)
                vector.append(((s, t), cs * ct))
        return A._tensor(self.order, _push(columns, vector))

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra.rank == other.algebra.rank
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return self.algebra.render_tensor(self)


# -- structure maps: sparse column stores --------------------------------------


def _push(columns, vector) -> dict:
    """sum_j c_j * columns[j] over the (j, c_j) pairs of `vector`.

    `columns` maps an input index to a sparse column {output index: value};
    the result is sparse too, with zero entries dropped.  This is the one
    routine that scales structure-map columns and accumulates them.
    """
    out = {}
    for j, c in vector:
        for i, v in columns.get(j, {}).items():
            prev = out.get(i)
            out[i] = c * v if prev is None else prev + c * v
    return {i: v for i, v in out.items() if v.terms}


def _kron(a: dict, b: dict, width: int) -> dict:
    """Kronecker product of two sparse vectors, b's indices running fastest
    over `width` values."""
    return {i * width + j: x * y for i, x in a.items() for j, y in b.items()}


def _sum(a: dict, b: dict) -> dict:
    """Sum of two sparse vectors, zero entries dropped."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


def _vector(u: AlgebraElement) -> dict:
    """The nonzero coefficients of an element, by basis index."""
    return {i: c for i, c in enumerate(u.coeffs) if c.terms}


def _first_difference(got: "LinearMap", want: "LinearMap"):
    """The smallest input index at which two maps' columns differ, or None."""
    return min(
        (c for c in got.cols.keys() | want.cols.keys()
         if got.cols.get(c) != want.cols.get(c)),
        default=None,
    )


def _flat(idx, n: int) -> int:
    flat = 0
    for i in idx:
        flat = flat * n + i
    return flat


def _unflat(flat: int, n: int, order: int) -> tuple[int, ...]:
    idx = []
    for _ in range(order):
        flat, r = divmod(flat, n)
        idx.append(r)
    return tuple(reversed(idx))


class LinearMap:
    """An exact matrix from A^(x)in_order to A^(x)out_order, stored by columns.

    `cols` maps the flat index of each input basis tuple to its image, a
    {flat output index: nonzero MultiPoly} dict.  Zero entries and zero
    columns are never stored, so two maps are equal exactly when their
    `cols` are.  The tuple (i1, ..., ik) flattens to i1*n^(k-1) + ... + ik,
    leftmost factor most significant; Kronecker products and compositions
    follow the same convention.
    """

    __slots__ = ("gens", "n", "in_order", "out_order", "cols")

    def __init__(self, gens, n: int, in_order: int, out_order: int, cols):
        self.gens = tuple(gens)
        self.n = int(n)
        self.in_order = int(in_order)
        self.out_order = int(out_order)
        ncols, nrows = self.n ** self.in_order, self.n ** self.out_order
        canon = {}
        for c, col in cols.items():
            col = {r: v for r, v in col.items() if v}
            if not 0 <= c < ncols or any(not 0 <= r < nrows for r in col):
                raise ValueError(
                    f"entry index out of range for orders ({self.in_order} -> "
                    f"{self.out_order}) at rank {self.n}"
                )
            if col:
                canon[c] = col
        self.cols = canon

    @classmethod
    def identity(cls, gens, n: int, order: int = 1) -> "LinearMap":
        one = MultiPoly.one(gens)
        return cls(gens, n, order, order, {j: {j: one} for j in range(n ** order)})

    # -- composition and monoidal structure ---------------------------------

    def __rshift__(self, other: "LinearMap") -> "LinearMap":
        """`f >> g`: run f first, then g (diagram order, bottom to top)."""
        if not isinstance(other, LinearMap):
            return NotImplemented
        if other.in_order != self.out_order or other.n != self.n:
            raise ValueError(
                f"cannot compose: output order {self.out_order} feeds input "
                f"order {other.in_order}"
            )
        cols = {c: _push(other.cols, col.items()) for c, col in self.cols.items()}
        return LinearMap(self.gens, self.n, self.in_order, other.out_order, cols)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product, self on the more significant legs."""
        if not isinstance(other, LinearMap):
            return NotImplemented
        if other.n != self.n or other.gens != self.gens:
            raise ValueError("cannot tensor maps over different algebras")
        width_in = self.n ** other.in_order
        width_out = self.n ** other.out_order
        cols = {
            ca * width_in + cb: _kron(a, b, width_out)
            for ca, a in self.cols.items() for cb, b in other.cols.items()
        }
        return LinearMap(
            self.gens, self.n,
            self.in_order + other.in_order,
            self.out_order + other.out_order,
            cols,
        )

    # -- linear structure ------------------------------------------------------

    def _same_shape(self, other):
        if not isinstance(other, LinearMap):
            raise TypeError(f"expected LinearMap, got {type(other).__name__}")
        if (other.n, other.in_order, other.out_order) != (self.n, self.in_order, self.out_order):
            raise ValueError("linear map shape mismatch")
        return other

    def __add__(self, other):
        other = self._same_shape(other)
        cols = {
            c: _sum(self.cols.get(c, {}), other.cols.get(c, {}))
            for c in self.cols.keys() | other.cols.keys()
        }
        return LinearMap(self.gens, self.n, self.in_order, self.out_order, cols)

    def __sub__(self, other):
        return self + (-self._same_shape(other))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "LinearMap":
        if isinstance(c, int):
            c = MultiPoly.const(self.gens, c)
        cols = {j: {i: c * v for i, v in col.items()} for j, col in self.cols.items()}
        return LinearMap(self.gens, self.n, self.in_order, self.out_order, cols)

    def __rmul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            (self.n, self.in_order, self.out_order) ==
            (other.n, other.in_order, other.out_order)
            and self.cols == other.cols
        )

    # -- entries and application ----------------------------------------------

    def entry(self, row: int, col: int) -> MultiPoly:
        """The matrix entry at flat output index `row`, flat input index `col`."""
        value = self.cols.get(col, {}).get(row)
        return MultiPoly.zero(self.gens) if value is None else value

    def apply(self, t: TensorElement):
        """Apply to a tensor; returns a TensorElement, or the scalar when
        the output order is zero."""
        if t.order != self.in_order:
            raise ValueError(
                f"cannot apply order ({self.in_order} -> {self.out_order}) map "
                f"to an order {t.order} tensor"
            )
        image = _push(
            self.cols, ((_flat(idx, self.n), c) for idx, c in t.coeffs.items())
        )
        if self.out_order == 0:
            return image.get(0, MultiPoly.zero(self.gens))
        return t.algebra._tensor(self.out_order, image)

    def to_strings(self):
        """Matrix as nested lists of polynomial strings (for JSON output)."""
        ncols, nrows = self.n ** self.in_order, self.n ** self.out_order
        rows = [["0"] * ncols for _ in range(nrows)]
        for c, col in self.cols.items():
            for r, v in col.items():
                rows[r][c] = str(v)
        return rows

    def __repr__(self):
        return (
            f"LinearMap({self.in_order} -> {self.out_order}, rank={self.n})"
        )


# -- exact linear algebra over the coefficient ring --------------------------


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _poly_determinant(mat, gens) -> MultiPoly:
    """Determinant by dynamic programming over column subsets.

    Stays entirely inside Z[g...]; no division is performed.  Cost is
    O(n * 2^n) ring multiplications, fine for the small ranks where Gram
    matrices have non-constant entries.
    """
    n = len(mat)
    zero = MultiPoly.zero(gens)
    if n == 0:
        return MultiPoly.one(gens)
    prev = {0: MultiPoly.one(gens)}
    for r in range(n):
        cur: dict[int, MultiPoly] = {}
        for mask, val in prev.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = mat[r][c]
                if not entry:
                    continue
                term = val * entry
                if _popcount(mask >> (c + 1)) % 2:
                    term = -term
                s = cur.get(mask | bit)
                s = term if s is None else s + term
                cur[mask | bit] = s
        prev = {m: v for m, v in cur.items() if v}
    return prev.get((1 << n) - 1, zero)


def _poly_adjugate_inverse(mat, gens):
    """(det, inverse) of a matrix over Z[g...] with unit determinant.

    The inverse is obtained from the adjugate: adj[j][i] is the signed minor
    at (i, j), and for det = ±1 the inverse is det * adjugate.
    """
    n = len(mat)
    det = _poly_determinant(mat, gens)
    if not det.is_unit():
        raise DegenerateFormError(
            f"degenerate or non-unimodular Frobenius form: det(gram) = {det}"
        )
    sign = det.constant_value()
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            minor = _poly_determinant(sub, gens)
            if (i + j) % 2:
                minor = -minor
            entry = minor if sign == 1 else -minor
            inv[j][i] = entry
    return det, inv


def _const_inverse(mat, gens):
    """(det, inverse) for a matrix of constant entries, via exact fractions."""
    n = len(mat)
    a = [[Fraction(mat[i][j].constant_value()) for j in range(n)] for i in range(n)]
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise DegenerateFormError(
                "degenerate or non-unimodular Frobenius form: det(gram) = 0"
            )
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv_pivot = 1 / aug[col][col]
        aug[col] = [x * inv_pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    if det not in (1, -1):
        raise DegenerateFormError(
            f"degenerate or non-unimodular Frobenius form: det(gram) = {det}"
        )
    inv = [
        [MultiPoly.const(gens, int(aug[i][n + j])) for j in range(n)]
        for i in range(n)
    ]
    return MultiPoly.const(gens, int(det)), inv


def unimodular_inverse(mat, gens):
    """Invert a symmetric matrix over Z[g...], requiring determinant ±1.

    Raises DegenerateFormError when the determinant is not a unit: the dual
    basis then cannot be expressed in the given basis over the integer ring.
    """
    n = len(mat)
    if all(mat[i][j].is_constant() for i in range(n) for j in range(n)):
        return _const_inverse(mat, gens)
    if n > 14:
        raise DegenerateFormError(
            "polynomial Gram matrices above rank 14 are not supported"
        )
    return _poly_adjugate_inverse(mat, gens)


# -- the algebra itself -------------------------------------------------------


class FrobeniusAlgebra:
    """A commutative Frobenius algebra presented by a multiplication table.

    Immutable after construction; all derived data (Gram matrix, dual basis,
    delta_one) is computed eagerly, so instances are safe to share.
    """

    def __init__(self, gens, basis_labels, mult_rows, counit_vec,
                 symbols=None, validate: bool = True):
        self.gens = tuple(gens)
        self.basis_labels = tuple(basis_labels)
        self.rank = len(self.basis_labels)
        n = self.rank
        if n < 1:
            raise ValueError("algebra rank must be at least 1")

        counit_vec = tuple(
            c if isinstance(c, MultiPoly) else MultiPoly.const(self.gens, c)
            for c in counit_vec
        )
        if len(counit_vec) != n:
            raise ValueError(f"counit vector must have length {n}")
        for c in counit_vec:
            if c.gens != self.gens:
                raise ValueError(
                    f"generator mismatch in counit: {c.gens} vs {self.gens}"
                )
        self.counit_vec = counit_vec

        table = []
        for i in range(n):
            row = []
            for j in range(n):
                row.append(AlgebraElement(self, mult_rows[i][j]))
            table.append(tuple(row))
        self.mult_table = tuple(table)

        self._symbols = {
            name: AlgebraElement(self, coeffs)
            for name, coeffs in (symbols or {}).items()
        }
        for name in self._symbols:
            if name in self.gens:
                raise ValueError(
                    f"basis symbol {name!r} collides with a ring generator"
                )

        if validate:
            self._validate_algebra()

        pairing = self.mul_map >> self.counit_map
        self.gram = tuple(
            tuple(pairing.entry(0, i * n + j) for j in range(n)) for i in range(n)
        )
        self.gram_det, dual_coords = unimodular_inverse(
            [list(row) for row in self.gram], self.gens
        )
        # dual_coords = gram^{-1}; column j holds the coordinates of y_j,
        # so that counit(e_i * y_j) = delta_{ij}.
        self.dual_basis = tuple(
            AlgebraElement(self, tuple(dual_coords[k][j] for k in range(n)))
            for j in range(n)
        )
        self.delta_one = TensorElement(self, 2, {
            (a, i): c
            for i, y in enumerate(self.dual_basis) for a, c in _vector(y).items()
        })

        if validate:
            self._validate_frobenius(pairing)

    # -- basic accessors -----------------------------------------------------

    @property
    def unit(self) -> AlgebraElement:
        return self.basis_element(0)

    @property
    def zero(self) -> AlgebraElement:
        z = MultiPoly.zero(self.gens)
        return AlgebraElement(self, (z,) * self.rank)

    def basis_element(self, i: int) -> AlgebraElement:
        coeffs = [MultiPoly.zero(self.gens)] * self.rank
        coeffs[i] = MultiPoly.one(self.gens)
        return AlgebraElement(self, coeffs)

    def element(self, coeffs) -> AlgebraElement:
        return AlgebraElement(self, coeffs)

    def scalar(self, value: int) -> MultiPoly:
        return MultiPoly.const(self.gens, value)

    def mul_basis(self, i: int, j: int) -> AlgebraElement:
        return self.mult_table[i][j]

    # -- structure maps, each one column store built on first use -------------

    @cached_property
    def mul_map(self) -> LinearMap:
        n = self.rank
        return LinearMap(self.gens, n, 2, 1, {
            i * n + j: _vector(self.mult_table[i][j])
            for i in range(n) for j in range(n)
        })

    @cached_property
    def counit_map(self) -> LinearMap:
        return LinearMap(self.gens, self.rank, 1, 0,
                         {j: {0: c} for j, c in enumerate(self.counit_vec)})

    @cached_property
    def unit_map(self) -> LinearMap:
        return LinearMap(self.gens, self.rank, 0, 1, {0: _vector(self.unit)})

    @cached_property
    def delta_one_map(self) -> LinearMap:
        n = self.rank
        return LinearMap(self.gens, n, 0, 2, {
            0: {_flat(idx, n): c for idx, c in self.delta_one.coeffs.items()}
        })

    @cached_property
    def identity_map(self) -> LinearMap:
        return LinearMap.identity(self.gens, self.rank, 1)

    @cached_property
    def swap_map(self) -> LinearMap:
        n, one = self.rank, MultiPoly.one(self.gens)
        return LinearMap(self.gens, n, 2, 2, {
            i * n + j: {j * n + i: one} for i in range(n) for j in range(n)
        })

    @cached_property
    def comul_map(self) -> LinearMap:
        """u -> sum_i y_i (x) (e_i * u): delta_one beside the input, then mul
        on the two right legs."""
        return (self.delta_one_map @ self.identity_map) >> \
            (self.identity_map @ self.mul_map)

    def mul(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Bilinear extension of the multiplication table."""
        return self._apply(self.mul_map, u, v)

    def counit(self, u: AlgebraElement) -> MultiPoly:
        """Linear extension of the Frobenius form to arbitrary elements."""
        return self._apply(self.counit_map, u)

    def comul(self, u: AlgebraElement) -> TensorElement:
        """Comultiplication through the second leg: sum_i y_i (x) (e_i * u)."""
        return self._apply(self.comul_map, u)

    def handle_scalar(self) -> MultiPoly:
        """counit(mul(delta_one)): the scalar of the one-handled sphere."""
        return (self.delta_one_map >> self.mul_map >> self.counit_map).entry(0, 0)

    def tensor(self, *elems: AlgebraElement) -> TensorElement:
        """The elementary tensor u1 (x) ... (x) uk, expanded over the basis."""
        if not elems:
            raise ValueError("tensor needs at least one factor")
        return self._tensor(len(elems), dict(self._elementary(elems)))

    def tensor_zero(self, order: int) -> TensorElement:
        return TensorElement(self, order, {})

    def _own(self, u: AlgebraElement) -> AlgebraElement:
        if not isinstance(u, AlgebraElement):
            raise TypeError(f"expected AlgebraElement, got {type(u).__name__}")
        if u.algebra is not self:
            kind = "rank" if u.algebra.rank != self.rank else "algebra"
            raise ValueError(
                f"{kind} mismatch: element of {u.algebra!r} used with {self!r}"
            )
        return u

    def _elementary(self, elems) -> list:
        """The nonzero (flat index, coefficient) pairs of u1 (x) ... (x) uk."""
        n, pairs = self.rank, None
        for u in elems:
            leg = [(i, c) for i, c in enumerate(self._own(u).coeffs) if c.terms]
            pairs = leg if pairs is None else [
                (a * n + i, x * c) for a, x in pairs for i, c in leg
            ]
        return pairs

    def _element(self, vector: dict) -> AlgebraElement:
        """The element with these coefficients by basis index.  They are
        entries of this algebra's structure maps, so they already lie in its
        ring and the constructor's checks are skipped."""
        zero = MultiPoly.zero(self.gens)
        u = object.__new__(AlgebraElement)
        u.algebra = self
        u.coeffs = tuple([vector.get(k, zero) for k in range(self.rank)])
        return u

    def _tensor(self, order: int, vector: dict) -> TensorElement:
        n = self.rank
        return TensorElement(
            self, order, {_unflat(k, n, order): c for k, c in vector.items()}
        )

    def _apply(self, m: LinearMap, *elems):
        """m on u1 (x) ... (x) uk: the scalar, element or tensor for zero, one
        or more output legs."""
        image = _push(m.cols, self._elementary(elems))
        if m.out_order == 1:
            return self._element(image)
        if m.out_order == 0:
            value = image.get(0)
            return MultiPoly.zero(self.gens) if value is None else value
        return self._tensor(m.out_order, image)

    # -- parsing and rendering --------------------------------------------------

    def parse_element(self, src: str) -> AlgebraElement:
        """Parse an element expression such as `X^2`, `a*X + b` or `x*y`.

        Names resolve to ring generators (as scalars) or to the algebra's
        basis symbols; products reduce inside the algebra.
        """
        def name_value(name):
            if name in self._symbols:
                return self._symbols[name]
            if name in self.gens:
                return self.unit.scale(MultiPoly.gen(self.gens, name))
            known = sorted(self._symbols) + list(self.gens)
            raise ValueError(
                f"unknown symbol {name!r} (algebra knows {', '.join(known) or 'none'})"
            )

        return parse_expression(
            src,
            constant=lambda k: self.unit.scale(k),
            name_value=name_value,
        )

    def _coeff_label_str(self, c: MultiPoly, label: str) -> str:
        body = str(c)
        if label == "1":
            return body if len(c.terms) <= 1 else f"({body})"
        if body == "1":
            return label
        if body == "-1":
            return f"-{label}"
        if len(c.terms) > 1:
            return f"({body})*{label}"
        return f"{body}*{label}"

    def render_element(self, u: AlgebraElement) -> str:
        parts = [
            self._coeff_label_str(c, self.basis_labels[i])
            for i, c in sorted(enumerate(u.coeffs), reverse=True)
            if c
        ]
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def render_tensor(self, t: TensorElement) -> str:
        parts = []
        for idx in sorted(t.coeffs):
            label = "⊗".join(self.basis_labels[i] for i in idx)
            parts.append(self._coeff_label_str(t.coeffs[idx], label))
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        gens = ",".join(self.gens) or "∅"
        return f"FrobeniusAlgebra(rank={self.rank}, gens=[{gens}])"

    # -- construction-time validation ---------------------------------------------

    def _elementary_index_table(self):
        """If every basis product is a single basis element with coefficient 1,
        return the integer index table, else None."""
        one = MultiPoly.one(self.gens)
        table = []
        for row in self.mult_table:
            irow = []
            for entry in row:
                nonzero = [(k, c) for k, c in enumerate(entry.coeffs) if c]
                if len(nonzero) != 1 or nonzero[0][1] != one:
                    return None
                irow.append(nonzero[0][0])
            table.append(irow)
        return table

    def _validate_algebra(self):
        n = self.rank
        for j in range(n):
            if self.mult_table[0][j] != self.basis_element(j):
                raise ValueError(
                    f"basis element 0 is not a unit: e0*e{j} != e{j}"
                )
        for i in range(n):
            for j in range(i + 1, n):
                if self.mult_table[i][j] != self.mult_table[j][i]:
                    raise ValueError(
                        f"multiplication table is not commutative at ({i}, {j})"
                    )
        index_table = self._elementary_index_table()
        if index_table is not None:
            for i in range(n):
                for j in range(n):
                    ij = index_table[i][j]
                    for k in range(n):
                        if index_table[ij][k] != index_table[i][index_table[j][k]]:
                            raise ValueError(
                                f"multiplication is not associative at ({i}, {j}, {k})"
                            )
            return
        # (e_i e_j) e_k against e_i (e_j e_k), one triple at a time: the
        # n^3 columns of both sides are never held at once.
        mul = self.mul_map.cols
        for i, j, k in itertools.product(range(n), repeat=3):
            left = _push(mul, [(a * n + k, c) for a, c in mul.get(i * n + j, {}).items()])
            right = _push(mul, [(i * n + a, c) for a, c in mul.get(j * n + k, {}).items()])
            if left != right:
                raise ValueError(
                    f"multiplication is not associative at ({i}, {j}, {k})"
                )

    def _validate_frobenius(self, pairing: LinearMap):
        """counit(e_i * y_j) = delta_ij, and neck cutting
        sum_i y_i counit(e_i * u) = u, on all basis elements."""
        n, gens = self.rank, self.gens
        one = MultiPoly.one(gens)
        dual = LinearMap(gens, n, 1, 1, dict(enumerate(map(_vector, self.dual_basis))))
        got = (self.identity_map @ dual) >> pairing
        want = LinearMap(gens, n, 2, 0, {i * n + i: {0: one} for i in range(n)})
        bad = _first_difference(got, want)
        if bad is not None:
            i, j = divmod(bad, n)
            raise DegenerateFormError(
                f"dual basis check failed at ({i}, {j}): "
                f"counit(e_{i} * y_{j}) = {got.entry(0, bad)}"
            )
        gram = LinearMap(gens, n, 1, 1, {
            u: {i: self.gram[i][u] for i in range(n)} for u in range(n)
        })
        bad = _first_difference(gram >> dual, self.identity_map)
        if bad is not None:
            raise DegenerateFormError(
                f"neck-cutting resolution failed on basis element {bad}"
            )


# -- constructors from quotient polynomial rings -------------------------------


def algebra_from_modulus(generators, modulus, counit,
                         symbol: str = "X") -> FrobeniusAlgebra:
    """Quotient algebra R[X]/(m(X)) with basis 1, X, ..., X^(n-1).

    `modulus` lists the coefficients of the monic modulus, lowest degree
    first (length n+1 with final coefficient 1); `counit` gives the Frobenius
    form on the monomial basis.  Products reduce X^n against the modulus.
    """
    gens = tuple(generators)

    def as_poly(c):
        return c if isinstance(c, MultiPoly) else MultiPoly.const(gens, c)

    coeffs = [as_poly(c) for c in modulus]
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("modulus must have degree at least 1")
    if coeffs[-1] != MultiPoly.one(gens):
        raise ValueError("modulus must be monic (leading coefficient exactly 1)")

    counit_vec = [as_poly(c) for c in counit]
    if len(counit_vec) != n:
        raise ValueError(f"counit must have length {n}")

    zero, one = MultiPoly.zero(gens), MultiPoly.one(gens)
    powers = []
    for k in range(n):
        powers.append([one if i == k else zero for i in range(n)])
    for k in range(n, 2 * n - 1):
        prev = powers[k - 1]
        overflow = prev[-1]
        shifted = [zero] + prev[:-1]
        powers.append([shifted[i] - overflow * coeffs[i] for i in range(n)])

    mult_rows = [[powers[i + j] for j in range(n)] for i in range(n)]
    labels = ["1"] + [symbol if k == 1 else f"{symbol}^{k}" for k in range(1, n)]
    if n >= 2:
        symbols = {symbol: powers[1]}
    else:
        symbols = {symbol: [-coeffs[0]]}
    return FrobeniusAlgebra(gens, labels, mult_rows, counit_vec, symbols=symbols)


def truncated_algebra(n: int, generators=()) -> FrobeniusAlgebra:
    """R[X]/(X^n) with the form picking out the coefficient of X^(n-1)."""
    if n < 2:
        raise ValueError("truncated algebra needs degree at least 2")
    gens = tuple(generators)
    modulus = [0] * n + [1]
    counit = [0] * (n - 1) + [1]
    return algebra_from_modulus(gens, modulus, counit)


def mv_algebra() -> FrobeniusAlgebra:
    """Z[a,b,c][X]/(X^3 - a*X^2 - b*X - c) with counit (0, 0, -1)."""
    gens = ("a", "b", "c")
    a = MultiPoly.gen(gens, "a")
    b = MultiPoly.gen(gens, "b")
    c = MultiPoly.gen(gens, "c")
    modulus = [-c, -b, -a, MultiPoly.one(gens)]
    counit = [0, 0, -1]
    return algebra_from_modulus(gens, modulus, counit)
