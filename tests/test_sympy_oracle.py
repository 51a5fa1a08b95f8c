"""sympy as an independent oracle for the product, the Gram matrix, its
determinant and inverse, the dual basis and the handle scalar of quotient
algebras Z[g...][X]/(m).  Skipped when sympy is not installed; it is a test-only
dependency."""

import pytest
from hypothesis import example, given, settings, strategies as st

from foamalg.coeffring import MultiPoly
from foamalg.frobalg import algebra_from_modulus

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("X")
RINGS = {(): (), ("a", "b"): sympy.symbols("a b")}


def to_sympy(p: MultiPoly, symbols):
    return sympy.Add(*(
        c * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
        for exps, c in p.terms.items()
    ))


def from_sympy(expr, gens, symbols) -> MultiPoly:
    expr = sympy.expand(expr)
    if not gens:
        return MultiPoly.const((), int(expr))
    return MultiPoly(gens, {
        exps: int(c) for exps, c in sympy.Poly(expr, *symbols).terms()
    })


def top_moments(modulus, n):
    """t(X^m) for m < 2n - 1, where t reads the coefficient of X^(n-1) of
    the remainder of X^m by the monic modulus (lowest degree first)."""
    m = sum(c * X ** k for k, c in enumerate(modulus))
    return [sympy.rem(X ** k, m, X).coeff(X, n - 1) for k in range(2 * n - 1)]


def monic(gens):
    """Lower coefficients of a monic modulus over Z[gens], lowest first, and
    whether to keep the constant coefficient a unit (so that X is one)."""
    if gens:
        a, b = RINGS[gens]
        coeff = st.builds(lambda u, v, w, z: u + v * a + w * b + z * a * b,
                          *[st.integers(-2, 2)] * 4)
    else:
        coeff = st.integers(-4, 4).map(sympy.Integer)
    return st.tuples(st.lists(coeff, min_size=1, max_size=3),
                     st.sampled_from([1, -1]))


@st.composite
def algebras(draw, gens):
    """(modulus, counit) of rank 2..4 whose Gram determinant is ±1: the top
    form t, or u -> ±t(X^k u), which differs from t by the norm ±m(0) of X^k
    and is therefore unimodular when the constant coefficient m(0) is ±1."""
    lower, unit = draw(monic(gens))
    shift = draw(st.integers(0, len(lower)))
    if shift:
        lower = [sympy.Integer(unit)] + lower
    modulus = lower + [sympy.Integer(1)]
    n = len(lower)
    moments = top_moments(modulus, n)
    counit = [unit * moments[shift + i] for i in range(n)]
    return modulus, counit


def build(gens, modulus, counit):
    symbols = RINGS[gens]
    return algebra_from_modulus(
        gens,
        [from_sympy(c, gens, symbols) for c in modulus],
        [from_sympy(c, gens, symbols) for c in counit],
    )


def gram_oracle(modulus, counit):
    n = len(counit)
    m = sum(c * X ** k for k, c in enumerate(modulus))
    eps = [sympy.expand(sum(
        counit[d] * sympy.rem(X ** (i + j), m, X).coeff(X, d) for d in range(n)
    )) for i in range(n) for j in range(n)]
    return sympy.Matrix(n, n, eps)


def check_gram_inverse(gens, modulus, counit):
    """The Gram matrix, its determinant and inverse, the dual basis and the
    handle scalar of Z[gens][X]/(m) with this counit, against sympy."""
    A = build(gens, modulus, counit)
    symbols, n = RINGS[gens], A.rank
    G = gram_oracle(modulus, counit)
    assert [[to_sympy(g, symbols) for g in row] for row in A.gram] == \
        [[sympy.expand(G[i, j]) for j in range(n)] for i in range(n)]

    # sympy's det and inv may return unreduced fractions, such as
    # a/(b - a) - b/(b - a) for -1; cancel puts each in lowest terms.
    det = sympy.cancel(G.det())
    assert det in (1, -1)
    assert to_sympy(A.gram_det, symbols) == det

    inv = G.inv()
    for j, y in enumerate(A.dual_basis):
        # Column j of G^-1 holds the coordinates of the dual element y_j.
        for i in range(n):
            assert sympy.cancel(inv[i, j] - to_sympy(y.coeffs[i], symbols)) == 0

    handle = sympy.cancel(sum(inv[i, j] * G[i, j]
                              for i in range(n) for j in range(n)))
    assert handle == n
    assert to_sympy(A.handle_scalar(), symbols) == handle


@pytest.mark.parametrize("gens", list(RINGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_gram_inverse_dual_basis_and_handle(gens, data):
    check_gram_inverse(gens, *data.draw(algebras(gens)))


# The top form -[X^2] takes the closed-form dual.  The shifted form
# u -> t(X u), unimodular since m(0) = 1, takes the Gram inverse.
@pytest.mark.parametrize("gens, modulus, counit, eliminated", [
    (("a", "b"), ["a", "b", "a*b - 1", "1"], ["0", "0", "-1"], 0),
    (("a", "b"), ["1", "a", "b", "1"], ["0", "1", "-b"], 1),
])
def test_gram_inverse_on_each_dual_path(inverse_calls, gens, modulus, counit,
                                        eliminated):
    symbols = dict(zip(gens, RINGS[gens]))
    check_gram_inverse(gens, *([sympy.sympify(c, locals=symbols) for c in v]
                               for v in (modulus, counit)))
    assert len(inverse_calls) == eliminated


def coefficients(expr, n):
    """The coefficients of X^0, ..., X^(n-1) in a polynomial in X."""
    expr = sympy.expand(expr)
    return [sympy.expand(expr.coeff(X, d)) for d in range(n)]


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(list(RINGS)).flatmap(
    lambda gens: st.tuples(st.just(gens), algebras(gens))))
# Rank 1: Z[X]/(X + 3), where the symbol X is -m(0) = -3.
@example(case=((), ([sympy.Integer(3), sympy.Integer(1)], [sympy.Integer(1)])))
def test_product_is_reduction_by_the_modulus(case):
    """mul_basis(i, j) holds the coefficients of rem(X^(i+j), m), and the
    symbol X those of rem(X, m)."""
    gens, (modulus, counit) = case
    A = build(gens, modulus, counit)
    symbols, n = RINGS[gens], A.rank
    m = sum(c * X ** k for k, c in enumerate(modulus))

    def reduced(k):
        return coefficients(sympy.rem(X ** k, m, X), n)

    def got(u):
        return [to_sympy(c, symbols) for c in u.coeffs]

    assert got(A.parse_element("X")) == reduced(1)
    for i in range(n):
        for j in range(n):
            assert got(A.mul_basis(i, j)) == reduced(i + j)


DOMAINS = {(): sympy.ZZ, ("a", "b"): sympy.ZZ[RINGS[("a", "b")]]}


def elements(gens, n):
    """Coefficient lists, X^0 first, of elements sum_d c_d X^d of a rank-n
    algebra over Z or Z[a, b]."""
    if gens:
        a, b = RINGS[gens]
        coeff = st.builds(lambda u, v, w, z: u + v * a + w * b + z * a * b,
                          *[st.integers(-2, 2)] * 4)
    else:
        coeff = st.integers(-4, 4).map(sympy.Integer)
    return st.lists(coeff, min_size=n, max_size=n)


@pytest.mark.parametrize("gens", list(RINGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_element_arithmetic_is_arithmetic_mod_the_modulus(gens, data):
    """Sums, scalings, products, powers, the counit, tensors, their
    componentwise product and the comultiplication of elements, each checked
    against sympy's remainder by the modulus.  The elements are built from
    their coefficient lists, and only the results' coefficients are read.
    The oracle computes in sympy's polynomial domain over the ring, so that
    coefficients compare exactly without expanding expressions."""
    modulus, counit = data.draw(algebras(gens))
    A = build(gens, modulus, counit)
    symbols, n, D = RINGS[gens], A.rank, DOMAINS[gens]
    m = sympy.Poly(list(reversed(modulus)), X, domain=D)
    cu, cv = data.draw(elements(gens, n)), data.draw(elements(gens, n))
    s = data.draw(elements(gens, 1))[0]
    k = data.draw(st.integers(0, 3))

    def make(coeffs):
        return A.element([from_sympy(c, gens, symbols) for c in coeffs])

    def poly(coeffs):
        """sum_d coeffs[d] X^d as a sympy Poly in X over the ring."""
        return sympy.Poly(list(reversed(coeffs)), X, domain=D)

    def reduced(f):
        """The coefficients of X^0, ..., X^(n-1) of sympy.rem(f, m)."""
        r = sympy.rem(f, m)
        return [D.from_sympy(r.nth(d)) for d in range(n)]

    def scalar(p):
        return D.from_sympy(to_sympy(p, symbols))

    def got(u):
        return [scalar(c) for c in u.coeffs]

    def got_tensor(t):
        return {idx: scalar(c) for idx, c in t.coeffs.items()}

    def outer(*legs):
        """{index tuple: product of the legs' coefficients}, zeros left out."""
        out = {(): D.one}
        for leg in legs:
            out = {idx + (i,): c * d
                   for idx, c in out.items() for i, d in enumerate(leg)}
        return {idx: c for idx, c in out.items() if c}

    def add(*parts):
        out = {}
        for part in parts:
            for idx, c in part.items():
                out[idx] = out.get(idx, D.zero) + c
        return {idx: c for idx, c in out.items() if c}

    u, v, U, V = make(cu), make(cv), poly(cu), poly(cv)
    assert got(u + v) == reduced(U + V)
    assert got(u - v) == reduced(U - V)
    assert got(-u) == reduced(-U)
    assert got(u.scale(from_sympy(s, gens, symbols))) == reduced(poly([s]) * U)
    assert got(A.mul(u, v)) == reduced(U * V)
    assert got(u ** k) == reduced(U ** k)
    assert scalar(A.counit(u)) == D.from_sympy(
        sympy.expand(sum(e * c for e, c in zip(counit, cu))))

    lu, lv = ([D.from_sympy(c) for c in cs] for cs in (cu, cv))
    assert got_tensor(A.tensor(u, v)) == outer(lu, lv)
    assert got_tensor(A.tensor(u, v, u)) == outer(lu, lv, lu)
    # (u (x) v + v (x) v) * (v (x) u) = u v (x) v u + v v (x) v u.
    t = A.tensor(u, v) + A.tensor(v, v)
    assert got_tensor(t * A.tensor(v, u)) == add(
        outer(reduced(U * V), reduced(V * U)),
        outer(reduced(V * V), reduced(V * U)))

    # comul(u) = sum_i y_i (x) e_i u, with y_i read off column i of G^-1,
    # whose entries cancel to polynomials since det G is a unit.
    inv = gram_oracle(modulus, counit).inv()
    duals = [[D.from_sympy(sympy.cancel(inv[a, i])) for a in range(n)]
             for i in range(n)]
    assert got_tensor(A.comul(u)) == add(*(
        outer(duals[i], reduced(poly([0] * i + [1]) * U)) for i in range(n)))
