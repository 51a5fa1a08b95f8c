"""Finite-rank commutative Frobenius algebras over Z[g1, ..., gk].

An algebra is presented by its product on a chosen basis, given as sparse
columns {i*n + j: {k: c}} (e_i e_j = sum_k c e_k, the form `mul_map`
stores), together with the counit (Frobenius form) on basis elements.
Construction derives the pairing and its Gram matrix, takes the dual basis
from the constructor when it is known in closed form (quotients with the
counit on the top power of X, group rings) and from the Gram inverse
otherwise, stores each as a map, and validates the algebra axioms exactly:
associativity by Light's test over a generating set, the rest on all basis
tuples, a handed-over dual basis included.

Every structure map (mul, counit, unit, swap, identity, delta_one, and the
branch maps built in `branchops`) is one `LinearMap`: a sparse column store
between tensor powers of the algebra.  Products, coproducts, compositions
and applications all go through `_push`, the one routine that scales
columns and accumulates them.

Elements share that form.  An `AlgebraElement` or `TensorElement` holds one
sparse vector `vec`, {flat index: nonzero MultiPoly}, shaped like a column of
a map into its tensor power, so `_push` reads and writes it as it is.  Only
the public constructors, which take dense coefficient lists or dicts keyed by
index tuples, and the read-only `coeffs` views convert to and from that form.

The Gram matrix must have determinant 1 or -1: its inverse then stays inside
the integer coefficient ring, which is the only setting in which the dual
basis (and hence delta_one) exists over Z[g...] without passing to fractions.
"""

from __future__ import annotations

import operator
from functools import cached_property
from .coeffring import MultiPoly, _fields, _is_one, _mul_into, _power, \
    parse_expression


class DegenerateFormError(ValueError):
    """The Gram matrix of the Frobenius form is singular or non-unimodular."""


class _Vec:
    """The linear structure shared by elements and tensors.

    `vec` is a sparse {flat index: nonzero MultiPoly} vector, flattened as
    the columns of a `LinearMap` are, and every sum and scaling goes through
    `_push`.  Instances are immutable: no operation changes a `vec`.
    """

    __slots__ = ("algebra", "vec")

    def _check(self, other):
        return self.algebra._own(other, type(self), self.order)

    def __add__(self, other):
        one = MultiPoly.one(self.algebra.gens)
        return self._like(_push({0: self.vec, 1: self._check(other).vec},
                                ((0, one), (1, one))))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = MultiPoly.of(self.algebra.gens, c)
        return self._like(_push({0: self.vec}, ((0, c),)))

    def __rmul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.algebra is other.algebra and self.order == other.order
                and self.vec == other.vec)

    def __bool__(self):
        return bool(self.vec)

    def __repr__(self):
        return self.algebra._render(self.vec, self.order)


class AlgebraElement(_Vec):
    """An element of a Frobenius algebra: `vec` maps basis indices to the
    nonzero coefficients; `coeffs` is the dense coefficient tuple."""

    __slots__ = ()
    order = 1

    def __init__(self, algebra: "FrobeniusAlgebra", coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != algebra.rank:
            raise ValueError(
                f"rank mismatch: got {len(coeffs)} coefficients for a rank "
                f"{algebra.rank} algebra"
            )
        vec = {i: MultiPoly.of(algebra.gens, c) for i, c in enumerate(coeffs)}
        self.algebra = algebra
        self.vec = {i: c for i, c in vec.items() if c}

    @property
    def coeffs(self) -> tuple:
        """The coefficients of e_0, ..., e_(n-1), zeros included."""
        zero = MultiPoly.zero(self.algebra.gens)
        return tuple([self.vec.get(i, zero) for i in range(self.algebra.rank)])

    def _like(self, vec):
        return self.algebra._element(vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.mul(self, other)
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, self.algebra.unit)


class TensorElement(_Vec):
    """An element of the k-fold tensor power of the algebra: `vec` maps the
    flat index i1*n^(k-1) + ... + ik of each basis tuple to its nonzero
    coefficient; `coeffs` is the same vector keyed by the tuples."""

    __slots__ = ("order",)

    def __init__(self, algebra: "FrobeniusAlgebra", order: int, coeffs):
        order = operator.index(order)
        if order < 1:
            raise ValueError("tensor order must be at least 1")
        n = algebra.rank
        vec: dict[int, MultiPoly] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for idx, c in items:
            idx = tuple(map(operator.index, idx))
            if len(idx) != order:
                raise ValueError(f"index tuple {idx} does not have order {order}")
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"basis index out of range in {idx}")
            c = MultiPoly.of(algebra.gens, c)
            flat = 0
            for i in idx:
                flat = flat * n + i
            vec[flat] = vec[flat] + c if flat in vec else c
        self.algebra = algebra
        self.order = order
        self.vec = {k: c for k, c in vec.items() if c}

    @property
    def coeffs(self) -> dict:
        """{index tuple: coefficient}, for the nonzero coefficients."""
        n = self.algebra.rank
        return {_unflat(k, n, self.order): c for k, c in self.vec.items()}

    def _like(self, vec):
        return self.algebra._tensor(self.order, vec)

    def __mul__(self, other):
        """Componentwise algebra product on same-order tensors: mul on each
        pair of legs, (s1, t1, ..., sk, tk) -> (s1 t1, ..., sk tk)."""
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        other = self._check(other)
        A, k = self.algebra, self.order
        n = A.rank

        def legs(s: int, t: int) -> int:
            """The flat index of (s1, t1, ..., sk, tk)."""
            j, width = 0, 1
            for _ in range(k):
                s, a = divmod(s, n)
                t, b = divmod(t, n)
                j += (a * n + b) * width
                width *= n * n
            return j

        vector = [(legs(s, t), cs * ct)
                  for s, cs in self.vec.items() for t, ct in other.vec.items()]
        return A._tensor(k, _push(_Kron(*[A.mul_map] * k), vector))


# -- structure maps: sparse column stores --------------------------------------


def _push(columns, vector) -> dict:
    """sum_j c_j * columns[j] over the (j, c_j) pairs of `vector`.

    `columns` maps an input index to a sparse column {output index: value};
    the result is sparse too, with zero entries dropped.  Every coefficient
    and entry must lie in one ring; callers check that.  This is the one
    routine that scales structure-map columns and accumulates them.  A zero
    weight adds nothing.  An output fed by one product c_j * v with c_j or
    v the constant 1 is the other factor itself, shared (values are
    immutable); a second product into it copies that factor's terms first.
    Every other product goes straight into one term map per output index,
    and each sum is wrapped as a polynomial once, at the end.
    """
    acc, gens = {}, None
    for j, c in vector:
        col = columns.get(j)
        if not col or not c._packed:
            continue
        ct, gens = c._packed, c.gens
        unit = _is_one(ct)
        for i, v in col.items():
            terms = acc.get(i)
            if terms is None:
                if unit or _is_one(v._packed):
                    acc[i] = v if unit else c
                    continue
                terms = acc[i] = {}
            elif type(terms) is MultiPoly:
                terms = acc[i] = dict(terms._packed)
            _mul_into(terms, ct, v._packed)
    out = {}
    for i, t in acc.items():
        p = t if type(t) is MultiPoly else MultiPoly._product(gens, t)
        if p._packed:
            out[i] = p
    return out


def _kron(a: dict, b: dict, width: int) -> dict:
    """Kronecker product of two sparse vectors, b's indices running fastest
    over `width` values.  When one factor is a single entry equal to 1, the
    product is the other relabelled, its entries shared."""
    if len(a) == 1 and _is_one(next(iter(a.values()))._packed):
        shift = next(iter(a)) * width
        return {shift + j: y for j, y in b.items()}
    if len(b) == 1 and _is_one(next(iter(b.values()))._packed):
        j = next(iter(b))
        return {i * width + j: x for i, x in a.items()}
    return {i * width + j: x * y for i, x in a.items() for j, y in b.items()}


class _Kron:
    """The columns of the Kronecker product f1 (x) ... (x) fk, as a column
    source for `_push`: column j is the `_kron` of the factors' columns,
    made when it is read, so the product is never built whole."""

    __slots__ = ("factors",)

    def __init__(self, *factors: "LinearMap"):
        n = factors[0].n
        # Rightmost factor first: its legs are the least significant.
        self.factors = [(f.cols, n ** f.in_order, n ** f.out_order)
                        for f in reversed(factors)]

    def get(self, j: int):
        col, width = None, 1
        for cols, width_in, width_out in self.factors:
            j, k = divmod(j, width_in)
            part = cols.get(k)
            if not part:
                return None
            col = part if col is None else _kron(part, col, width)
            width *= width_out
        return col


def _column(stages, c: int) -> dict:
    """Column c of the composite stages[0] ; stages[1] ; ...: the first
    stage's column c, pushed through the others with `_push`.  Each stage
    is a column source: a LinearMap's `cols`, or a `_Kron`."""
    col = stages[0].get(c) or {}
    for stage in stages[1:]:
        col = _push(stage, col.items())
    return col


def _basis_index(u: dict):
    """a when the sparse vector u is exactly 1 * e_a, else None."""
    if len(u) == 1:
        (a, c), = u.items()
        if _is_one(c._packed):
            return a
    return None


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
    follow the same convention.  The constructor checks every index and
    converts every entry with `MultiPoly.of`: an int becomes a constant, a
    polynomial from another ring raises ValueError, and anything else
    TypeError.
    """

    __slots__ = ("gens", "n", "in_order", "out_order", "cols")

    def __init__(self, gens, n: int, in_order: int, out_order: int, cols):
        self.gens = tuple(gens)
        self.n = operator.index(n)
        self.in_order = operator.index(in_order)
        self.out_order = operator.index(out_order)
        ncols, nrows = self.n ** self.in_order, self.n ** self.out_order
        canon = {}
        for c, col in cols.items():
            col = {r: p for r, v in col.items()
                   if (p := MultiPoly.of(self.gens, v))}
            if not 0 <= c < ncols or any(not 0 <= r < nrows for r in col):
                raise ValueError(
                    f"entry index out of range for orders ({self.in_order} -> "
                    f"{self.out_order}) at rank {self.n}"
                )
            if col:
                canon[c] = col
        self.cols = canon

    @classmethod
    def _canonical(cls, gens, n, in_order, out_order, cols) -> "LinearMap":
        """Wrap columns canonical by construction (results of `>>`, `@` and
        `_push`, columns of checked maps): empty ones are dropped, and no
        index, entry or ring is checked, unlike the public constructor."""
        m = object.__new__(cls)
        m.gens, m.n, m.in_order, m.out_order = gens, n, in_order, out_order
        m.cols = {c: col for c, col in cols.items() if col}
        return m

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
        if other.gens != self.gens:
            raise ValueError(f"generator mismatch: {self.gens} vs {other.gens}")
        cols = {c: _push(other.cols, col.items()) for c, col in self.cols.items()}
        return LinearMap._canonical(self.gens, self.n, self.in_order,
                                    other.out_order, cols)

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
        return LinearMap._canonical(
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
        if other.gens != self.gens:
            raise ValueError(f"generator mismatch: {self.gens} vs {other.gens}")
        return other

    def __add__(self, other):
        other = self._same_shape(other)
        one = MultiPoly.one(self.gens)
        cols = {
            c: _push({0: self.cols.get(c), 1: other.cols.get(c)},
                     ((0, one), (1, one)))
            for c in self.cols.keys() | other.cols.keys()
        }
        return LinearMap._canonical(self.gens, self.n, self.in_order,
                                    self.out_order, cols)

    def __sub__(self, other):
        return self + (-self._same_shape(other))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "LinearMap":
        c = MultiPoly.of(self.gens, c)
        cols = {j: _push({0: col}, ((0, c),)) for j, col in self.cols.items()}
        return LinearMap._canonical(self.gens, self.n, self.in_order,
                                    self.out_order, cols)

    def __rmul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            (self.gens, self.n, self.in_order, self.out_order) ==
            (other.gens, other.n, other.in_order, other.out_order)
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
        if t.algebra.gens != self.gens:
            raise ValueError(
                f"generator mismatch: {self.gens} vs {t.algebra.gens}"
            )
        if t.algebra.rank != self.n:
            raise ValueError(
                f"rank mismatch: tensor of a rank {t.algebra.rank} algebra "
                f"given to a rank {self.n} map"
            )
        image = _push(self.cols, t.vec.items())
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


def unimodular_inverse(mat, gens):
    """(det, inverse) of a square matrix over Z[g...] of determinant ±1.

    One fraction-free Gauss-Jordan (Bareiss 1968) elimination on [G | I],
    for constant and polynomial matrices of any rank: step k replaces every
    other row by (piv * row - row[k] * pivot_row) / prev, an exact division
    since each entry is then a minor of [G | I].  The last pivot is det(PG)
    for the row swaps P, and the right half ends as det(PG) * G^-1.  Rows
    are sparse; a row with no entry in column k is skipped while piv == prev.

    Raises DegenerateFormError when the determinant is not a unit: the dual
    basis then cannot be expressed in the given basis over the integer ring.
    """
    n = len(mat)
    one, zero = MultiPoly.one(gens), MultiPoly.zero(gens)
    rows = [{**{j: x for j, x in enumerate(row) if x}, n + i: one}
            for i, row in enumerate(mat)]
    prev, sign = one, 1
    for k in range(n):
        p = next((r for r in range(k, n) if k in rows[r]), None)
        if p is None:
            prev = zero
            break
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        piv = pivot_row[k]
        for r, row in enumerate(rows):
            f = row.get(k)
            if r == k or (f is None and piv == prev):
                continue
            new = {j: piv * x for j, x in row.items()}
            if f is not None:
                for j, y in pivot_row.items():
                    new[j] = new[j] - f * y if j in new else -(f * y)
            rows[r] = {j: x.exact_div(prev) for j, x in new.items() if x}
        prev = piv
    det = prev if sign > 0 else -prev
    if not det.is_unit():
        raise DegenerateFormError(
            f"degenerate or non-unimodular Frobenius form: det(gram) = {det}"
        )
    inv = [[row.get(n + j, zero) for j in range(n)] for row in rows]
    return det, inv if prev == one else [[-x for x in row] for row in inv]


# -- the algebra itself -------------------------------------------------------


class FrobeniusAlgebra:
    """A commutative Frobenius algebra presented by its product columns.

    `mul_cols` maps i*n + j to e_i e_j as a sparse {k: MultiPoly} column;
    it is stored as `mul_map`, whose constructor checks every entry.
    `counit_vec` and the `symbols` values are given as dense coefficient
    lists and checked by the element constructor; the counit is kept as
    `counit_map` and the dense tuple `counit_vec`, the symbols as sparse
    vectors.  No element, which points back at its algebra, is stored, so
    reference counting frees an algebra.  Immutable after construction.
    The Frobenius data is stored once, as the maps `mul_map`, `counit_map`,
    `pairing_map`, `dual_map` (column j is y_j) and `delta_one_map`;
    `mul_basis`, `dual_basis` and `delta_one` are views.
    A constructor that knows the dual basis passes `dual`, the pair (columns
    {j: y_j as a sparse column}, det(gram)); without it the dual basis is
    the inverse of the Gram matrix from `unimodular_inverse`.  Validation
    checks a handed-over dual basis as it checks a computed one.
    """

    def __init__(self, gens, basis_labels, mul_cols, counit_vec,
                 symbols=None, validate: bool = True, dual=None):
        self.gens = tuple(gens)
        self.basis_labels = tuple(basis_labels)
        self.rank = len(self.basis_labels)
        n = self.rank
        if n < 1:
            raise ValueError("algebra rank must be at least 1")

        # The element constructor checks the rank and ring of every vector.
        counit = AlgebraElement(self, counit_vec)
        self.counit_vec = counit.coeffs
        self.counit_map = LinearMap(self.gens, n, 1, 0,
                                    {j: {0: c} for j, c in counit.vec.items()})
        self.mul_map = LinearMap(self.gens, n, 2, 1, mul_cols)

        self._symbols = {
            name: AlgebraElement(self, coeffs).vec
            for name, coeffs in (symbols or {}).items()
        }
        for name in self._symbols:
            if name in self.gens:
                raise ValueError(
                    f"basis symbol {name!r} collides with a ring generator"
                )
        self._generators = None  # (the validated mul_map, generator indices)

        if validate:
            self._validate_algebra()

        pairing = self.pairing_map
        self.gram = tuple(
            tuple(pairing.entry(0, i * n + j) for j in range(n)) for i in range(n)
        )
        # Column j of dual_map holds the coordinates of y_j, so that
        # counit(e_i * y_j) = delta_{ij}: the columns of gram^{-1}.
        if dual is None:
            self.gram_det, inverse = unimodular_inverse(
                [list(row) for row in self.gram], self.gens
            )
            dual = {j: {k: row[j] for k, row in enumerate(inverse)}
                    for j in range(n)}
        else:
            dual, self.gram_det = dual
        self.dual_map = LinearMap(self.gens, n, 1, 1, dual)

        if validate:
            self._validate_frobenius()

    # -- basic accessors -----------------------------------------------------

    @property
    def unit(self) -> AlgebraElement:
        return self.basis_element(0)

    @property
    def zero(self) -> AlgebraElement:
        return self._element({})

    def basis_element(self, i: int) -> AlgebraElement:
        # Indexed like a sequence of the basis: negative i counts from the end.
        return self._element({range(self.rank)[i]: MultiPoly.one(self.gens)})

    def mul_basis(self, i: int, j: int) -> AlgebraElement:
        return self._element(self.mul_map.cols.get(i * self.rank + j, {}))

    def generator_indices(self):
        """The basis indices of a set S of basis elements that, with e_0,
        generates the algebra under products, and whose product validation
        proved associative (`_validate_algebra`); None when validation
        found no such S, did not run, or checked another map than the
        current `mul_map`."""
        if self._generators is None or self._generators[0] is not self.mul_map:
            return None
        return self._generators[1]

    @property
    def dual_basis(self) -> tuple:
        """y_0, ..., y_{n-1}, made from the columns of `dual_map` on read."""
        cols = self.dual_map.cols
        return tuple(self._element(cols.get(j, {})) for j in range(self.rank))

    @property
    def delta_one(self) -> TensorElement:
        """sum_i y_i (x) e_i, made from `delta_one_map` on read."""
        return self._tensor(2, self.delta_one_map.cols.get(0, {}))

    # -- structure maps, each one column store built on first use -------------

    @cached_property
    def unit_map(self) -> LinearMap:
        return LinearMap._canonical(self.gens, self.rank, 0, 1,
                                    {0: self.unit.vec})

    @cached_property
    def pairing_map(self) -> LinearMap:
        """(e_i, e_j) -> counit(e_i * e_j): mul, then counit."""
        return self.mul_map >> self.counit_map

    @cached_property
    def delta_one_map(self) -> LinearMap:
        """sum_i y_i (x) e_i: entry (a, i) is entry (a, i) of dual_map."""
        n = self.rank
        return LinearMap._canonical(self.gens, n, 0, 2, {0: {
            a * n + i: c
            for i, y in self.dual_map.cols.items() for a, c in y.items()
        }})

    @cached_property
    def identity_map(self) -> LinearMap:
        return LinearMap.identity(self.gens, self.rank, 1)

    @cached_property
    def swap_map(self) -> LinearMap:
        n, one = self.rank, MultiPoly.one(self.gens)
        return LinearMap._canonical(self.gens, n, 2, 2, {
            i * n + j: {j * n + i: one} for i in range(n) for j in range(n)
        })

    def mul(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Bilinear extension of the product on the basis."""
        return self._apply(self.mul_map, u, v)

    def counit(self, u: AlgebraElement) -> MultiPoly:
        """Linear extension of the Frobenius form to arbitrary elements."""
        return self._apply(self.counit_map, u)

    def comul(self, u: AlgebraElement) -> TensorElement:
        """Comultiplication through the second leg: sum_i y_i (x) (e_i * u),
        delta_one times 1 (x) u leg by leg."""
        return self.delta_one * self.tensor(self.unit, u)

    def handle_scalar(self) -> MultiPoly:
        """counit(mul(delta_one)): the scalar of the one-handled sphere."""
        return (self.delta_one_map >> self.pairing_map).entry(0, 0)

    def tensor(self, *elems: AlgebraElement) -> TensorElement:
        """The elementary tensor u1 (x) ... (x) uk, expanded over the basis."""
        if not elems:
            raise ValueError("tensor needs at least one factor")
        vec = self._own(elems[0]).vec
        for u in elems[1:]:
            vec = _kron(vec, self._own(u).vec, self.rank)
        return self._tensor(len(elems), vec)

    def _own(self, u, kind=AlgebraElement, order: int = 1):
        """u, checked to be a `kind` of this algebra and of this order."""
        if not isinstance(u, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(u).__name__}")
        if u.algebra is not self:
            what = "rank" if u.algebra.rank != self.rank else "algebra"
            raise ValueError(
                f"{what} mismatch: element of {u.algebra!r} used with {self!r}"
            )
        if u.order != order:
            raise ValueError(f"tensor order mismatch: {u.order} vs {order}")
        return u

    def _element(self, vec: dict) -> AlgebraElement:
        """The element with sparse vector `vec`: a column of this algebra's
        maps or a push through them, so in its ring with no zero entry, and
        the constructor's checks are skipped."""
        u = object.__new__(AlgebraElement)
        u.algebra, u.vec = self, vec
        return u

    def _tensor(self, order: int, vec: dict) -> TensorElement:
        """The tensor of this order with sparse vector `vec`, unchecked as
        in `_element`."""
        t = object.__new__(TensorElement)
        t.algebra, t.order, t.vec = self, order, vec
        return t

    def _apply(self, m: LinearMap, *elems):
        """m on u1 (x) ... (x) uk: the scalar, element or tensor for zero, one
        or more output legs."""
        image = _push(m.cols, self.tensor(*elems).vec.items())
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
        basis symbols.  Each product term of `parse_expression` packs its
        ring generators into one monomial, and reaches its symbol powers by
        pushing the unit column through the columns of multiplication by a
        symbol (`_mul_by_columns`, made once per symbol and call) once per
        factor, the first symbol's powers kept for the later terms; one
        `_push` then sums the terms' columns with their coefficients.
        """
        gens, symbols = self.gens, self._symbols

        def check_name(name):
            if name not in symbols and name not in gens:
                known = sorted(symbols) + list(gens)
                raise ValueError(
                    f"unknown symbol {name!r} (algebra knows "
                    f"{', '.join(known) or 'none'})"
                )

        shifts = dict(_fields(gens))
        one = MultiPoly.one(gens)
        columns, weights, powers, times = {}, [], {}, {}
        for t, (coeff, degrees) in enumerate(
                parse_expression(src, check_name=check_name)):
            if not coeff:
                continue
            key, col = 0, None
            for name, k in degrees.items():
                if name not in symbols:
                    key += k << shifts[name]
                    continue
                made = [col] if col is not None else powers.setdefault(
                    name, [{0: one}])
                if name not in times:
                    times[name] = self._mul_by_columns(symbols[name])
                while len(made) <= k:
                    made.append(_push(times[name], made[-1].items()))
                col = made[k]
            columns[t] = {0: one} if col is None else col
            weights.append((t, MultiPoly._canonical(gens, {key: coeff})))
        return self._element(_push(columns, weights))

    def _product_column(self, u: dict, k: int) -> dict:
        """u * e_k, for u a sparse vector of this algebra: the one product
        routine of construction and parsing.  A basis element u reads its
        column of mul."""
        n, mul = self.rank, self.mul_map.cols
        a = _basis_index(u)
        if a is not None:
            return mul.get(a * n + k, {})
        return _push(mul, [(i * n + k, c) for i, c in u.items()])

    def _mul_by_columns(self, u: dict) -> dict:
        """The columns of multiplication by u: column j is
        `_product_column(u, j)`."""
        return {j: self._product_column(u, j) for j in range(self.rank)}

    def _coeff_label_str(self, c: MultiPoly, label: str) -> str:
        body = str(c)
        if label == "1":
            return body if len(c._packed) <= 1 else f"({body})"
        if body == "1":
            return label
        if body == "-1":
            return f"-{label}"
        if len(c._packed) > 1:
            return f"({body})*{label}"
        return f"{body}*{label}"

    def _render(self, vec: dict, order: int) -> str:
        """A sparse vector of A^(x)order: a scalar (order 0) prints as the
        polynomial it is, an element its highest basis index first, a tensor
        its index tuples in increasing order."""
        if order == 0:
            return str(vec.get(0, MultiPoly.zero(self.gens)))
        n, labels = self.rank, self.basis_labels
        parts = [
            self._coeff_label_str(
                vec[k], "⊗".join(labels[i] for i in _unflat(k, n, order)))
            for k in sorted(vec, reverse=order == 1)
        ]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self):
        gens = ",".join(self.gens) or "∅"
        return f"FrobeniusAlgebra(rank={self.rank}, gens=[{gens}])"

    # -- construction-time validation ---------------------------------------------

    def _validate_algebra(self):
        """e_0 is a unit, the table is commutative, and the product is
        associative, checked by Light's test over a generating set.

        The elements a with (x a) z == x (a z) for all x and z form a
        submodule that contains the unit and is closed under products
        (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2).
        So if the identity holds for every a in a set S that generates the
        algebra, with x and z running over the basis, the product is
        associative: n^2 |S| triples make a proof and nothing is sampled.
        S is the basis symbols when a breadth-first search from e_0 reaches
        every basis element as a product s * e_i equal to exactly 1 * e_k;
        otherwise S is the whole basis, and the check is the full n^3 one.
        When S is the symbols and each is a basis element, their indices
        are kept with the map they were checked on (`generator_indices`).
        """
        n = self.rank
        mul, one = self.mul_map.cols, MultiPoly.one(self.gens)
        for j in range(n):
            if mul.get(j) != {j: one}:
                raise ValueError(
                    f"basis element 0 is not a unit: e0*e{j} != e{j}"
                )
        for i in range(n):
            for j in range(i + 1, n):
                if mul.get(i * n + j) != mul.get(j * n + i):
                    raise ValueError(
                        f"multiplication table is not commutative at ({i}, {j})"
                    )

        products = {name: self._mul_by_columns(u)
                    for name, u in self._symbols.items()}
        reached = [0]
        for i in reached:
            for g_times in products.values():
                k = _basis_index(g_times[i])
                if k is not None and k not in reached:
                    reached.append(k)
        if len(reached) < n:
            products = {j: self._mul_by_columns({j: one}) for j in range(n)}
        # products[g][i] = g e_i.  With commutativity, (e_i g) e_k ==
        # e_i (g e_k) reads P[i][k] == P[k][i] for P[i][k] = (g e_i) e_k,
        # each made by `_product_column` for i < k only: no diagonal entry
        # and no whole row is made.  The smallest failing triple in
        # (i, g, k) order is reported.
        bad = min(((i, g, k) for g, g_times in products.items()
                   for i in range(n) for k in range(i + 1, n)
                   if self._product_column(g_times[i], k)
                   != self._product_column(g_times[k], i)), default=None)
        if bad is not None:
            raise ValueError(
                "multiplication is not associative at ({}, {}, {})".format(*bad)
            )
        indices = [_basis_index(s) for s in self._symbols.values()]
        self._generators = (self.mul_map, tuple(sorted(set(indices)))) \
            if len(reached) == n and None not in indices else None

    def _validate_frobenius(self):
        """counit(e_i * y_j) = delta_ij on all basis elements: entry (i, j)
        of gram · dual, whose column j is y_j pushed through the columns of
        the Gram matrix.  The first failing (i, j) in row-major order is
        reported.  Over a commutative ring gram · dual = I gives
        dual · gram = I, which is neck cutting, so this one check is enough;
        the `delta_one_resolution` law checks neck cutting end to end."""
        n, gens = self.rank, self.gens
        one, zero = MultiPoly.one(gens), MultiPoly.zero(gens)
        gram = {u: {i: row[u] for i, row in enumerate(self.gram) if row[u]}
                for u in range(n)}
        dual = self.dual_map.cols
        products = [_push(gram, dual.get(j, {}).items()) for j in range(n)]
        bad = next(((i, j) for i in range(n) for j in range(n)
                    if products[j].get(i, zero) != (one if i == j else zero)),
                   None)
        if bad is not None:
            i, j = bad
            raise DegenerateFormError(
                f"dual basis check failed at ({i}, {j}): "
                f"counit(e_{i} * y_{j}) = {products[j].get(i, zero)}"
            )


# -- constructors from quotient polynomial rings -------------------------------


def algebra_from_modulus(generators, modulus, counit) -> FrobeniusAlgebra:
    """Quotient algebra R[X]/(m(X)) with basis 1, X, ..., X^(n-1).

    `modulus` lists the coefficients of the monic modulus, lowest degree
    first (length n+1 with final coefficient 1); `counit` gives the Frobenius
    form on the monomial basis.  Products reduce X^n against the modulus.

    When the counit is u times the coefficient of X^(n-1), u = 1 or -1, the
    dual basis is handed over in closed form (Euler's lemma for the trace
    form of R[X]/(m); Mackaay and Vaz, "The universal sl3-link homology",
    2007): y_j = u (m_(j+1) + m_(j+2) X + ... + m_n X^(n-1-j)), the Horner
    quotients of m = m_0 + m_1 X + ... + m_n X^n, with m_n = 1.  The Gram
    matrix is u times an anti-triangular Hankel matrix with ones on the
    antidiagonal, so its determinant is (-1)^(n(n-1)/2) u^n.  Any other
    counit goes through `unimodular_inverse`.
    """
    gens = tuple(generators)
    coeffs = [MultiPoly.of(gens, c) for c in modulus]
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("modulus must have degree at least 1")
    if coeffs[-1] != MultiPoly.one(gens):
        raise ValueError("modulus must be monic (leading coefficient exactly 1)")

    counit_vec = [MultiPoly.of(gens, c) for c in counit]
    if len(counit_vec) != n:
        raise ValueError(f"counit must have length {n}")

    # times_x multiplies by X, its top column reducing X^n by the modulus.
    one = MultiPoly.one(gens)
    times_x = {i: {i + 1: one} for i in range(n - 1)}
    times_x[n - 1] = {i: -c for i, c in enumerate(coeffs[:-1]) if c}
    powers = [{0: one}]
    for _ in range(2 * n - 2):
        powers.append(_push(times_x, powers[-1].items()))

    labels = ["1"] + ["X" if k == 1 else f"X^{k}" for k in range(1, n)]
    mul_cols = {i * n + j: powers[i + j] for i in range(n) for j in range(n)}
    # X is e_1, or -m(0) * 1 at rank 1.
    symbols = {"X": [-coeffs[0]] if n == 1 else [0, 1] + [0] * (n - 2)}
    u = counit_vec[-1]
    dual = None
    if u.is_unit() and not any(counit_vec[:-1]):
        dual = ({j: {k: u * coeffs[k + j + 1] for k in range(n - j)}
                 for j in range(n)},
                MultiPoly.const(gens, (-1) ** (n * (n - 1) // 2)
                                * u.constant_value() ** n))
    return FrobeniusAlgebra(gens, labels, mul_cols, counit_vec,
                            symbols=symbols, dual=dual)


def truncated_algebra(n: int) -> FrobeniusAlgebra:
    """Z[X]/(X^n) with the form picking out the coefficient of X^(n-1)."""
    if n < 2:
        raise ValueError("truncated algebra needs degree at least 2")
    return algebra_from_modulus((), [0] * n + [1], [0] * (n - 1) + [1])


def mv_algebra() -> FrobeniusAlgebra:
    """Z[a,b,c][X]/(X^3 - a*X^2 - b*X - c) with counit (0, 0, -1)."""
    gens = ("a", "b", "c")
    a = MultiPoly.gen(gens, "a")
    b = MultiPoly.gen(gens, "b")
    c = MultiPoly.gen(gens, "c")
    modulus = [-c, -b, -a, MultiPoly.one(gens)]
    counit = [0, 0, -1]
    return algebra_from_modulus(gens, modulus, counit)
