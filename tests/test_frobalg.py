import functools
import gc
import math
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from foamalg.branchops import BranchContext
from foamalg.coeffring import MultiPoly, parse_poly
from foamalg.foamlang import compile_diagram, parse
from foamalg.frobalg import (
    AlgebraElement,
    DegenerateFormError,
    FrobeniusAlgebra,
    LinearMap,
    TensorElement,
    _column,
    _Kron,
    _push,
    algebra_from_modulus,
    mv_algebra,
    truncated_algebra,
    unimodular_inverse,
)
from foamalg.groupfoam import FiniteAbelianGroup, group_ring
from foamalg.lawsuite import run_suite
from foamalg.thetafoam import ThetaTable

MV_GENS = ("a", "b", "c")
AB = ("a", "b")


@pytest.fixture(scope="module")
def mv():
    return mv_algebra()


def mv_poly(src):
    return parse_poly(src, MV_GENS)


def table_cols(table):
    """The product columns {i*n + j: {k: c}} of an integer table over Z,
    where table[i][j] lists the coefficients of e_i e_j."""
    n = len(table)
    return {i * n + j: {k: MultiPoly.const((), c)
                        for k, c in enumerate(table[i][j]) if c}
            for i in range(n) for j in range(n)}


def reduce_power(k):
    """Independent oracle: X^k mod (X^3 - a X^2 - b X - c), as a length-3
    coefficient vector, computed by repeated shift-and-substitute."""
    vec = [mv_poly("0")] * 3
    if k < 3:
        vec[k] = mv_poly("1")
        return vec
    prev = reduce_power(k - 1)
    top = prev[2]
    return [
        top * mv_poly("c"),
        prev[0] + top * mv_poly("b"),
        prev[1] + top * mv_poly("a"),
    ]


class TestConstruction:
    def test_truncation_a3(self):
        A = truncated_algebra(3)
        X, X2 = A.basis_element(1), A.basis_element(2)
        assert A.mul(X, X2) == A.zero

    def test_mv_reduction(self, mv):
        X, X2 = mv.basis_element(1), mv.basis_element(2)
        assert mv.mul(X, X2) == mv.parse_element("a*X^2 + b*X + c")

    def test_truncation_a5(self):
        A = truncated_algebra(5)
        assert A.mul(A.basis_element(2), A.basis_element(3)) == A.zero
        assert A.mul(A.basis_element(2), A.basis_element(2)) == A.basis_element(4)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            algebra_from_modulus((), [0, 0, 2], [0, 1])

    def test_degenerate_form_rejected(self):
        with pytest.raises(DegenerateFormError):
            algebra_from_modulus((), [0, 0, 1], [1, 0])

    def test_non_unimodular_rejected(self):
        with pytest.raises(DegenerateFormError, match="det"):
            algebra_from_modulus((), [0, 0, 1], [0, 2])

    def test_product_columns_are_checked(self):
        # Z[X]/(X^2), whose product columns are e0 e0 = e0, e0 e1 = e1 e0
        # = e1 and e1 e1 = 0.
        one = MultiPoly.one(())
        cols = {0: {0: one}, 1: {1: one}, 2: {1: one}}
        A = FrobeniusAlgebra((), ["1", "X"], cols, [0, 1])
        assert A.mul_basis(1, 0) == A.basis_element(1)
        assert A.mul_basis(1, 1) == A.zero
        foreign = {**cols, 3: {0: MultiPoly.gen(("a",), "a")}}
        with pytest.raises(ValueError, match=r"generator mismatch: \('a',\) "
                                             r"vs \(\)"):
            FrobeniusAlgebra((), ["1", "X"], foreign, [0, 1])
        for bad in ({**cols, 4: {0: one}}, {**cols, -1: {0: one}},
                    {**cols, 3: {2: one}}, {**cols, 3: {-1: one}}):
            with pytest.raises(ValueError, match="entry index out of range"):
                FrobeniusAlgebra((), ["1", "X"], bad, [0, 1])

    @pytest.mark.parametrize("modulus", [["a", 0, 1], [0, "a", 1], ["a", 1]])
    def test_modulus_over_another_ring_rejected(self, modulus):
        # The modulus reaches the product only through `_push`, which
        # trusts its callers to share one ring.
        a = MultiPoly.gen(("a",), "a")
        modulus = [a if c == "a" else c for c in modulus]
        with pytest.raises(ValueError, match="generator mismatch"):
            algebra_from_modulus((), modulus, [0] * (len(modulus) - 2) + [1])

    def test_non_associative_table_rejected(self):
        # basis 1, x, y with x*x = y, x*y = 0, y*y = x: (x*x)*y = x but
        # x*(x*y) = 0, and (1, 1, 2) is the first failing triple.
        one, x, y, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
        table = [[one, x, y], [x, y, z], [y, z, x]]
        with pytest.raises(ValueError, match=r"not associative at \(1, 1, 2\)"):
            FrobeniusAlgebra((), ["1", "x", "y"], table_cols(table), [0, 0, 1])

    @pytest.mark.parametrize("symbols, triple", [
        # u = 1 passes every (i, u, k) triple but reaches only e_0, so the
        # check falls back to the whole basis and still finds (1, 1, 2)
        ({"u": [1, 0, 0]}, "1, 1, 2"),
        # x reaches x and x*x = y, so S = {x} and the triple names x
        ({"x": [0, 1, 0]}, "1, x, 2"),
    ])
    def test_non_associative_table_with_symbols(self, symbols, triple):
        one, x, y, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
        table = [[one, x, y], [x, y, z], [y, z, x]]
        with pytest.raises(ValueError, match=rf"not associative at \({triple}\)"):
            FrobeniusAlgebra((), ["1", "x", "y"], table_cols(table),
                             [0, 0, 1], symbols=symbols)


@st.composite
def unital_tables(draw):
    """(table, symbols): a random commutative table of rank 2 to 4 with unit
    e_0 and entries in {-1, 0, 1}, and up to two symbols.  Products and
    symbols are often single basis elements, so that tables are often
    associative.  Half the tables have e_1 e_i = e_(i+1) below the top and
    the symbol x = e_1, which then generates them."""
    n = draw(st.integers(2, 4))
    e = [[int(a == k) for a in range(n)] for k in range(n)]
    vector = st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n)
    entry = st.one_of(st.sampled_from(e), st.just([0] * n), vector)
    table = [list(e) for _ in range(n)]
    for i in range(1, n):
        table[i][0] = e[i]
        for j in range(i, n):
            table[i][j] = table[j][i] = draw(entry)
    vectors = draw(st.lists(st.one_of(st.sampled_from(e), vector), max_size=2))
    symbols = {f"s{m}": v for m, v in enumerate(vectors)}
    if draw(st.booleans()):
        for i in range(1, n - 1):
            table[1][i] = table[i][1] = e[i + 1]
        symbols["x"] = e[1]
    return table, symbols


def first_non_associative(table):
    """The first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), by a plain
    n^3 loop over integer tables, or None."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [sum(table[i][j][a] * table[a][k][b] for a in range(n))
                        for b in range(n)]
                right = [sum(table[j][k][a] * table[i][a][b] for a in range(n))
                         for b in range(n)]
                if left != right:
                    return i, j, k
    return None


def table_product(table, u, v):
    """u v by the integer table, in plain sums."""
    n = len(table)
    return [sum(u[a] * v[c] * table[a][c][b] for a in range(n) for c in range(n))
            for b in range(n)]


class TestLightsTest:
    @settings(max_examples=300, deadline=None)
    @given(unital_tables(), st.booleans())
    def test_rejects_exactly_the_non_associative_tables(self, case, named):
        table, symbols = case
        n = len(table)
        labels = ["1"] + [f"e{i}" for i in range(1, n)]
        try:
            FrobeniusAlgebra((), labels, table_cols(table),
                             [0] * (n - 1) + [1],
                             symbols=symbols if named else None)
            message = None
        except DegenerateFormError:
            message = None
        except ValueError as exc:
            message = str(exc)
        want = first_non_associative(table)
        if want is None:
            assert message is None
            return
        assert message is not None
        found = re.fullmatch(
            r"multiplication is not associative at \((\d+), (\w+), (\d+)\)",
            message)
        assert found, message
        i, g, k = found.groups()
        i, k = int(i), int(k)
        if g.isdigit():
            assert (i, int(g), k) == want
        else:
            # the reported triple is a real failure with the named symbol
            assert named
            e = [[int(a == b) for a in range(n)] for b in range(n)]
            s = symbols[g]
            assert (table_product(table, table_product(table, e[i], s), e[k])
                    != table_product(table, e[i], table_product(table, s, e[k])))


class TestGeneratorIndices:
    """The generating set Light's test used is kept only where it proves
    associativity of the current product."""

    def test_symbols_that_generate(self):
        assert truncated_algebra(5).generator_indices() == (1,)
        assert group_ring([2, 4]).generator_indices() == (1, 4)

    def test_no_record_without_a_proof(self):
        A = group_ring([2, 2])
        n = A.rank
        table = dict(A.mul_map.cols)
        counit = [1] + [0] * (n - 1)
        # x alone reaches only 1 and x, so Light's test reads every basis
        # element instead of the symbols.
        partial = FrobeniusAlgebra((), A.basis_labels, table, counit,
                                   symbols={"x": [0, 0, 1, 0]})
        assert partial.generator_indices() is None
        unchecked = FrobeniusAlgebra((), A.basis_labels, table, counit,
                                     symbols={"x": [0, 0, 1, 0],
                                              "y": [0, 1, 0, 0]},
                                     validate=False)
        assert unchecked.generator_indices() is None
        # X = -2 * e_0 in a rank-1 algebra is no basis element.
        assert algebra_from_modulus((), [2, 1], [1]).generator_indices() \
            is None

    def test_bound_to_the_validated_map(self):
        A = group_ring([2, 2])
        assert A.generator_indices() == (1, 2)
        A.__dict__["mul_map"] = LinearMap(A.gens, A.rank, 2, 1,
                                          dict(A.mul_map.cols))
        assert A.generator_indices() is None
        A._validate_algebra()
        assert A.generator_indices() == (1, 2)
        A._symbols = {"x": A.basis_element(2).vec}
        A._validate_algebra()
        assert A.generator_indices() is None


class TestMultiplication:
    def test_unit(self, mv):
        u = mv.parse_element("a*X^2 - 3*X + b*c")
        assert mv.mul(mv.unit, u) == u

    def test_binomial_square(self):
        A = truncated_algebra(3)
        u = A.parse_element("1 + X")
        assert A.mul(u, u) == A.parse_element("1 + 2*X + X^2")

    def test_rank_mismatch(self, mv):
        other = truncated_algebra(2)
        with pytest.raises(ValueError, match="rank mismatch"):
            mv.mul(mv.unit, other.unit)

    def test_same_rank_foreign_element(self):
        # X^2 in Z[X]/(X^3 + 1) squares to -X there, and 0 in Z[X]/(X^3).
        cubic = algebra_from_modulus((), [1, 0, 0, 1], [0, 0, 1])
        x2 = cubic.parse_element("X^2")
        assert cubic.mul(x2, x2) == cubic.parse_element("-X")
        A = truncated_algebra(3)
        with pytest.raises(ValueError, match="algebra mismatch"):
            A.mul(x2, x2)
        with pytest.raises(ValueError, match="algebra mismatch"):
            A.unit + x2
        with pytest.raises(ValueError, match="algebra mismatch"):
            A.tensor(A.unit) + cubic.tensor(cubic.unit)

    def test_tensor_rejects_coefficients_of_another_ring(self, mv):
        # Caught in the constructor, not at a later `+`.
        with pytest.raises(ValueError, match="generator mismatch"):
            TensorElement(mv, 2, {(0, 0): MultiPoly.const(("z",), 3)})
        t = TensorElement(mv, 2, {(0, 0): 3, (1, 2): mv_poly("a")})
        assert t.coeffs == {(0, 0): mv_poly("3"), (1, 2): mv_poly("a")}

    def test_equality_requires_same_algebra(self):
        # Same rank and coefficients, different algebras: adding the two
        # raises, so they must not compare equal either.
        A = truncated_algebra(3)
        cubic = algebra_from_modulus((), [1, 0, 0, 1], [0, 0, 1])
        assert A.unit.coeffs == cubic.unit.coeffs
        assert not A.unit == cubic.unit
        assert not A.tensor(A.unit) == cubic.tensor(cubic.unit)
        assert A.unit == A.basis_element(0)
        assert A.tensor(A.unit) == A.tensor(A.basis_element(0))

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8, 13])
    def test_pow_matches_repeated_product(self, mv, k):
        u = mv.parse_element("X + a")
        want = mv.unit
        for _ in range(k):
            want = want * u
        assert u ** k == want


class TestCounit:
    def test_mv_values(self, mv):
        assert mv.counit(mv.unit) == mv_poly("0")
        assert mv.counit(mv.basis_element(1)) == mv_poly("0")
        assert mv.counit(mv.basis_element(2)) == mv_poly("-1")

    def test_mv_cubed(self, mv):
        # reduce X^3 with the independent oracle, then apply the form
        vec = reduce_power(3)
        value = sum(
            (c * e for c, e in zip(vec, mv.counit_vec)),
            start=mv_poly("0"),
        )
        assert value == mv_poly("-a")
        cubed = mv.parse_element("X") ** 3
        assert mv.counit(cubed) == mv_poly("-a")

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_top_power(self, n):
        A = truncated_algebra(n)
        assert A.counit(A.basis_element(n - 1)) == MultiPoly.one(())


class TestDualBasis:
    def test_a3_antidiagonal(self):
        A = truncated_algebra(3)
        expected = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert [[g.constant_value() for g in row] for row in A.gram] == expected
        assert list(A.dual_basis) == [
            A.basis_element(2), A.basis_element(1), A.basis_element(0),
        ]

    def test_mv_gram_against_oracle(self, mv):
        for i in range(3):
            for j in range(3):
                vec = reduce_power(i + j)
                expected = sum(
                    (c * e for c, e in zip(vec, mv.counit_vec)),
                    start=mv_poly("0"),
                )
                assert mv.gram[i][j] == expected
        frozen = [
            ["0", "0", "-1"],
            ["0", "-1", "-a"],
            ["-1", "-a", "-a^2 - b"],
        ]
        assert [[str(g) for g in row] for row in mv.gram] == frozen

    def test_dual_property(self, mv):
        for i in range(3):
            for j in range(3):
                value = mv.counit(mv.mul(mv.basis_element(i), mv.dual_basis[j]))
                assert value == mv_poly("1" if i == j else "0")


GEN_A, GEN_B = (MultiPoly.gen(AB, g) for g in AB)

# Quotients whose counit is u * [X^(n-1)] with u = 1 or -1, and group rings:
# the constructors hand their dual bases over in closed form.  The ranks
# 2..9 give the sign (-1)^(n(n-1)/2) both values, and u = -1 meets both
# parities of n.
CLOSED_FORM_BUILDERS = {
    "mv": mv_algebra,
    **{f"aN:{n}": functools.partial(truncated_algebra, n)
       for n in [*range(2, 10), 64]},
    "rank1": lambda: algebra_from_modulus((), [3, 1], [1]),
    "rank1 u=-1": lambda: algebra_from_modulus(AB, [GEN_A, 1], [-1]),
    "rank2 u=-1": lambda: algebra_from_modulus((), [1, 0, 1], [0, -1]),
    "rank4 u=-1": lambda: algebra_from_modulus(
        AB, [GEN_A, GEN_B, GEN_A * GEN_B - 1, 2, 1], [0, 0, 0, -1]),
    "rank5 u=-1": lambda: algebra_from_modulus(
        AB, [1, GEN_B, 0, -GEN_A, GEN_A + 3, 1], [0, 0, 0, 0, -1]),
    **{f"group:{','.join(map(str, orders))}":
       functools.partial(group_ring, orders)
       for orders in [[2], [3], [4], [2, 3], [3, 5], [2] * 6]},
}


def eliminated_dual(A):
    """(dual columns, det) as `unimodular_inverse` finds them from the Gram
    matrix: column j of the inverse is y_j."""
    det, inv = unimodular_inverse([list(row) for row in A.gram], A.gens)
    cols = {j: {k: row[j] for k, row in enumerate(inv) if row[j]}
            for j in range(A.rank)}
    return {j: col for j, col in cols.items() if col}, det


class TestClosedFormDual:
    @pytest.mark.parametrize("name", list(CLOSED_FORM_BUILDERS))
    def test_closed_forms_equal_elimination(self, name, inverse_calls):
        A = CLOSED_FORM_BUILDERS[name]()
        assert inverse_calls == []
        assert (A.dual_map.cols, A.gram_det) == eliminated_dual(A)

    # y_0 + X fails at (1, 0) and (2, 0).  With y_2 + X^2 as well, (0, 2)
    # fails too and is reported, since it comes first in row-major order.
    @pytest.mark.parametrize("extra, message", [
        ({0: {1: "1"}}, "dual basis check failed at (1, 0): "
                        "counit(e_1 * y_0) = -1"),
        ({0: {1: "1"}, 2: {2: "1"}}, "dual basis check failed at (0, 2): "
                                     "counit(e_0 * y_2) = -1"),
        ({1: {0: "a"}}, "dual basis check failed at (2, 1): "
                        "counit(e_2 * y_1) = -a"),
    ])
    def test_handed_over_dual_is_checked(self, mv, extra, message):
        """A wrong dual handed to the constructor fails the check that a
        computed one goes through, at the first (i, j) in row-major order
        where counit(e_i * y_j), read off mv's own arithmetic, is not
        delta_ij."""
        n, one = mv.rank, mv_poly("1")
        dual = [mv.dual_basis[j] + AlgebraElement(
            mv, [mv_poly(extra.get(j, {}).get(k, "0")) for k in range(n)])
            for j in range(n)]
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if mv.counit(mv.basis_element(i) * dual[j])
                    != (one if i == j else mv_poly("0")))
        want = (f"dual basis check failed at ({i}, {j}): counit(e_{i} * "
                f"y_{j}) = {mv.counit(mv.basis_element(i) * dual[j])}")
        assert want == message
        with pytest.raises(DegenerateFormError, match=re.escape(message)):
            FrobeniusAlgebra(MV_GENS, mv.basis_labels, mv.mul_map.cols,
                             mv.counit_vec,
                             dual=({j: y.vec for j, y in enumerate(dual)},
                                   mv.gram_det))


class TestDeltaOne:
    def test_a3(self):
        A = truncated_algebra(3)
        expected = (
            A.tensor(A.basis_element(0), A.basis_element(2))
            + A.tensor(A.basis_element(1), A.basis_element(1))
            + A.tensor(A.basis_element(2), A.basis_element(0))
        )
        assert A.delta_one == expected

    def test_mv(self, mv):
        one, X, X2 = (mv.basis_element(i) for i in range(3))
        a, b = mv_poly("a"), mv_poly("b")
        expected = (
            -(mv.tensor(one, X2) + mv.tensor(X, X) + mv.tensor(X2, one))
            + (mv.tensor(one, X) + mv.tensor(X, one)).scale(a)
            + mv.tensor(one, one).scale(b)
        )
        assert mv.delta_one == expected

    def test_counit_axiom(self, mv):
        for A in (mv, truncated_algebra(4), group_ring([2, 2])):
            acc = A.zero
            for (i, j), coeff in A.delta_one.coeffs.items():
                weight = A.counit(A.basis_element(i))
                acc = acc + A.basis_element(j).scale(weight * coeff)
            assert acc == A.unit


class TestComul:
    def test_mv_delta_x(self, mv):
        one, X, X2 = (mv.basis_element(i) for i in range(3))
        a, c = mv_poly("a"), mv_poly("c")
        expected = (
            -(mv.tensor(X, X2) + mv.tensor(X2, X))
            + mv.tensor(X, X).scale(a)
            - mv.tensor(one, one).scale(c)
        )
        assert mv.comul(X) == expected

    def test_mv_delta_x2(self, mv):
        one, X, X2 = (mv.basis_element(i) for i in range(3))
        b, c = mv_poly("b"), mv_poly("c")
        expected = (
            -mv.tensor(X2, X2)
            - mv.tensor(X, X).scale(b)
            - (mv.tensor(one, X) + mv.tensor(X, one)).scale(c)
        )
        assert mv.comul(X2) == expected

    def test_comul_of_unit_is_delta_one(self, mv):
        for A in (mv, truncated_algebra(5), group_ring([3])):
            assert A.comul(A.unit) == A.delta_one


class TestHandleScalar:
    def test_mv(self, mv):
        assert mv.handle_scalar() == mv_poly("3")

    def test_a3(self):
        assert truncated_algebra(3).handle_scalar() == MultiPoly.const((), 3)

    def test_a5(self):
        assert truncated_algebra(5).handle_scalar() == MultiPoly.const((), 5)


ALGEBRA_BUILDERS = [
    mv_algebra,
    lambda: truncated_algebra(2),
    lambda: truncated_algebra(3),
    lambda: truncated_algebra(4),
    lambda: group_ring([2, 2]),
    lambda: group_ring([3]),
]


@pytest.mark.parametrize("build", ALGEBRA_BUILDERS)
class TestStructuralInvariants:
    def test_resolution(self, build):
        A = build()
        for u in range(A.rank):
            eu = A.basis_element(u)
            acc = A.zero
            for i in range(A.rank):
                weight = A.counit(A.mul(A.basis_element(i), eu))
                acc = acc + A.dual_basis[i].scale(weight)
            assert acc == eu

    def test_leg_symmetry(self, build):
        # delta_one * (1 (x) u) agrees with delta_one * (u (x) 1)
        A = build()
        for u in range(A.rank):
            eu = A.basis_element(u)
            left = A.delta_one * A.tensor(A.unit, eu)
            right = A.delta_one * A.tensor(eu, A.unit)
            assert left == right

    def test_counit_axioms(self, build):
        A = build()
        for u in range(A.rank):
            eu = A.basis_element(u)
            t = A.comul(eu)
            first = A.zero
            second = A.zero
            for (i, j), coeff in t.coeffs.items():
                first = first + A.basis_element(j).scale(
                    coeff * A.counit(A.basis_element(i)))
                second = second + A.basis_element(i).scale(
                    coeff * A.counit(A.basis_element(j)))
            assert first == eu
            assert second == eu

    def test_coassociativity(self, build):
        A = build()
        for u in range(A.rank):
            t = A.comul(A.basis_element(u))
            zero = MultiPoly.zero(A.gens)
            left = {}
            right = {}
            for (i, j), coeff in t.coeffs.items():
                for (p, q), c2 in A.comul(A.basis_element(i)).coeffs.items():
                    key = (p, q, j)
                    left[key] = left.get(key, zero) + coeff * c2
                for (p, q), c2 in A.comul(A.basis_element(j)).coeffs.items():
                    key = (i, p, q)
                    right[key] = right.get(key, zero) + coeff * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right

    def test_frobenius_condition(self, build):
        # comul(u v) = (mul (x) id)(u (x) comul(v)) on basis pairs
        A = build()
        for u in range(A.rank):
            eu = A.basis_element(u)
            for v in range(A.rank):
                ev = A.basis_element(v)
                lhs = A.comul(A.mul(eu, ev))
                rhs = TensorElement(A, 2, {})
                for (i, j), coeff in A.comul(ev).coeffs.items():
                    w = A.mul(eu, A.basis_element(i))
                    rhs = rhs + A.tensor(w, A.basis_element(j)).scale(coeff)
                assert lhs == rhs

    def test_mult_commutes(self, build):
        A = build()
        for i in range(A.rank):
            for j in range(A.rank):
                assert A.mul_basis(i, j) == A.mul_basis(j, i)


class TestRandomModuli:
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    def test_top_form_always_constructible(self, lower):
        # any monic integer modulus with the top-coefficient form gives a
        # valid algebra: the Gram matrix is unit antidiagonal-triangular
        n = len(lower)
        modulus = list(lower) + [1]
        counit = [0] * (n - 1) + [1]
        A = algebra_from_modulus((), modulus, counit)
        assert check_resolution(A)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    def test_random_modulus_reduction_consistent(self, lower):
        n = len(lower)
        A = algebra_from_modulus((), list(lower) + [1], [0] * (n - 1) + [1])
        X = A.basis_element(1)
        top = X ** n
        expected = A.zero
        for i, c in enumerate(lower):
            expected = expected - A.basis_element(i).scale(c)
        assert top == expected


def check_resolution(A):
    for u in range(A.rank):
        eu = A.basis_element(u)
        acc = A.zero
        for i in range(A.rank):
            acc = acc + A.dual_basis[i].scale(
                A.counit(A.mul(A.basis_element(i), eu)))
        if acc != eu:
            return False
    return True


class TestParsingRendering:
    def test_parse_element(self, mv):
        u = mv.parse_element("a*X + b")
        assert u.coeffs == (mv_poly("b"), mv_poly("a"), mv_poly("0"))

    def test_parse_reduces_powers(self, mv):
        assert mv.parse_element("X^3") == mv.parse_element("a*X^2 + b*X + c")

    def test_unknown_symbol(self, mv):
        with pytest.raises(ValueError, match="unknown symbol"):
            mv.parse_element("X + q")

    def test_render_round_trip(self, mv):
        u = mv.parse_element("-X^2 + a*X + b")
        assert mv.parse_element(repr(u)) == u

    def test_render_zero(self, mv):
        assert repr(mv.zero) == "0"



class TestInputChecks:
    """The checks that element and tensor input goes through, and the ring
    check of every `scale`."""

    def test_tensor_order_must_be_positive(self, mv):
        with pytest.raises(ValueError, match="tensor order must be at least 1"):
            TensorElement(mv, 0, {})

    def test_index_tuple_must_have_the_order(self, mv):
        with pytest.raises(ValueError, match=re.escape(
                "index tuple (0,) does not have order 2")):
            TensorElement(mv, 2, {(0,): 1})

    def test_index_must_be_a_basis_index(self, mv):
        with pytest.raises(ValueError, match=re.escape(
                "basis index out of range in (3,)")):
            TensorElement(mv, 1, {(3,): 1})

    def test_repeated_keys_add_up_and_cancel(self, mv):
        t = TensorElement(mv, 1, [((0,), 1), ((0,), -1)])
        assert not t
        assert t == TensorElement(mv, 1, {})
        assert TensorElement(mv, 1, [((2,), 1), ((2,), 2)]) == \
            TensorElement(mv, 1, {(2,): 3})

    def test_scaling_by_another_ring_is_refused(self, mv):
        z = MultiPoly.const(("z",), 3)
        message = re.escape("generator mismatch: ('z',) vs ('a', 'b', 'c')")
        for value in (mv.unit, mv.tensor(mv.unit, mv.unit), mv.identity_map):
            with pytest.raises(ValueError, match=message):
                value.scale(z)
            with pytest.raises(ValueError, match=message):
                z * value

    def test_apply_checks_the_rank(self):
        # X (x) X of Z[X]/(X^2) has flat index 3, which a rank-3 map reads
        # as (1, 0): X * 1 = X in Z[X]/(X^3), although X * X = 0 in the
        # smaller algebra.
        small = truncated_algebra(2)
        x = small.parse_element("X")
        with pytest.raises(ValueError, match="rank mismatch"):
            truncated_algebra(3).mul_map.apply(small.tensor(x, x))
        assert not small.mul_map.apply(small.tensor(x, x))


class TestExactInputs:
    """Every outside value becomes a coefficient or an index exactly, or is
    refused: a float or a string is never truncated or parsed."""

    CASES = {
        "poly-exponent": lambda mv: MultiPoly(("a",), {(1.5,): 2}),
        "poly-coefficient": lambda mv: MultiPoly(("a",), {(1,): 2.5}),
        "const": lambda mv: MultiPoly.const((), 2.9),
        "theta-triple": lambda mv: ThetaTable((), 3, {(0.5, 1, 2): 1}),
        "theta-rank": lambda mv: ThetaTable((), 3.5, {}),
        "theta-value": lambda mv: ThetaTable(mv.gens, 3, {(0, 1, 2): 2.5}),
        "tensor-index": lambda mv: TensorElement(mv, 2, {(0.9, 1): 1}),
        "tensor-value": lambda mv: TensorElement(mv, 1, {(0,): 2.5}),
        "tensor-order": lambda mv: TensorElement(mv, 1.5, {}),
        "group-order": lambda mv: FiniteAbelianGroup([2.5]),
        "map-rank": lambda mv: LinearMap((), 2.5, 1, 1, {}),
        "map-in-order": lambda mv: LinearMap((), 2, 1.0, 1, {}),
        "map-out-order": lambda mv: LinearMap((), 2, 1, 1.0, {}),
        "map-float-entry": lambda mv: LinearMap((), 2, 1, 1, {0: {0: 2.5}}),
        "map-string-entry": lambda mv: LinearMap((), 2, 1, 1, {0: {0: "2"}}),
        "element-float": lambda mv: AlgebraElement(mv, [0.5, 0, 0]),
        "element-string": lambda mv: AlgebraElement(mv, ["2", 0, 0]),
        "modulus": lambda mv: algebra_from_modulus((), [0.5, 0, 1], [0, 1]),
        "counit": lambda mv: algebra_from_modulus((), [0, 0, 1], [0, 1.0]),
        "element-scale": lambda mv: mv.unit.scale(1.5),
        "map-scale": lambda mv: mv.mul_map.scale(1.5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_non_integers_are_type_errors(self, mv, case):
        with pytest.raises(TypeError):
            self.CASES[case](mv)

    def test_of_converts_ints_and_keeps_its_ring(self, mv):
        gens = mv.gens
        a = MultiPoly.gen(gens, "a")
        assert MultiPoly.of(gens, a) is a
        assert MultiPoly.of(list(gens), 3) == MultiPoly.const(gens, 3)
        assert MultiPoly.of(gens, True) == MultiPoly.one(gens)
        assert MultiPoly(("a",), {(True,): True}) == MultiPoly.gen(("a",), "a")
        z = MultiPoly.const(("z",), 3)
        for build in (lambda: MultiPoly.of(gens, z),
                      lambda: AlgebraElement(mv, [z, 0, 0]),
                      lambda: TensorElement(mv, 1, {(0,): z}),
                      lambda: ThetaTable(gens, 3, {(0, 1, 2): z}),
                      lambda: LinearMap(gens, 3, 1, 1, {0: {0: z}}),
                      lambda: algebra_from_modulus((), [0, 0, 1], [0, z])):
            with pytest.raises(ValueError, match="generator mismatch"):
                build()
        # A value wrong in both rank and ring or type reports the rank.
        for coeffs in ([z, 0], [0.5, 0]):
            with pytest.raises(ValueError, match="rank mismatch"):
                AlgebraElement(mv, coeffs)

    def test_int_map_entries_become_constants(self):
        m = LinearMap((), 2, 1, 1, {0: {1: 2, 0: 0}, 1: {0: 3}})
        assert m.cols == {0: {1: MultiPoly.const((), 2)},
                          1: {0: MultiPoly.const((), 3)}}
        assert m >> m == LinearMap.identity((), 2).scale(6)


class TestFreedByReferenceCounting:
    """An algebra holds only maps and sparse vectors, and a context's memo
    holds only maps and column sources, so dropping them frees them at
    once, without the cycle collector, after any use."""

    BUILDERS = {
        "mv": (mv_algebra, "a*X^2 + X"),
        "aN:5": (lambda: truncated_algebra(5), "X^3 - 2"),
        "group:2,3": (lambda: group_ring([2, 3]), "x*y^2"),
        "group:2,2": (lambda: group_ring([2, 2]), "x + y"),
        "modulus": (lambda: algebra_from_modulus(
            ("s",), [MultiPoly.gen(("s",), "s"), 0, 1], [0, 1]), "s*X"),
    }

    @staticmethod
    def use(build, text):
        A = build()
        A.dual_basis, A.delta_one
        A.parse_element(text)
        ctx = BranchContext(A, ThetaTable.zero(A.rank, A.gens))
        run_suite(ctx)
        compile_diagram(parse("(id * comul) ; (bmul * id)"), ctx)
        compile_diagram(parse(f"label({text}) ; comul"), ctx)
        return weakref.ref(A)

    def test_dropped_algebras_are_freed(self):
        for build, text in self.BUILDERS.values():
            self.use(build, text)  # first-use garbage does not count
        gc.disable()
        try:
            alive = [name for name, (build, text) in self.BUILDERS.items()
                     if self.use(build, text)() is not None]
        finally:
            gc.enable()
        assert alive == []


class TestRenderers:
    """Elements print the highest basis index first, tensors in increasing
    index-tuple order."""

    def test_delta_one(self, mv):
        assert repr(mv.delta_one) == \
            "b*1⊗1 + a*1⊗X - 1⊗X^2 + a*X⊗1 - X⊗X - X^2⊗1"

    def test_element(self, mv):
        u = mv.parse_element("a*X^2 + b*X^2 - c*X + 3")
        assert repr(u) == "(a + b)*X^2 - c*X + 3"

    def test_tensor(self, mv):
        u = mv.parse_element("a*X^2 + b*X^2 - c*X + 3")
        t = mv.tensor(u, mv.parse_element("X"))
        assert repr(t) == "3*1⊗X - c*X⊗X + (a + b)*X^2⊗X"

@functools.cache
def parse_context(name):
    """mv; a group ring whose symbols reduce (x^2 == 1, y^3 == 1) over
    Z[q]; and a rank-4 quotient algebra over Z[s, t], as a config gives."""
    if name == "mv":
        return mv_algebra()
    if name == "group":
        return group_ring([2, 3], generators=("q",))
    gens = ("s", "t")
    modulus = [parse_poly(c, gens) for c in ("-1", "-t", "0", "-s", "1")]
    return algebra_from_modulus(gens, modulus, [0, 0, 0, 1])


@st.composite
def payloads(draw, names):
    """(text, terms): a signed sum of products of integers and `names`, some
    with exponents, and its terms as [(sign, [(integer or name, exponent
    or None)])].  No name reaches MAX_EXPONENT in one term."""
    factor = st.tuples(st.sampled_from(names) | st.integers(0, 7),
                       st.none() | st.integers(0, 8))
    terms = draw(st.lists(
        st.tuples(st.sampled_from(["+", "-"]),
                  st.lists(factor, min_size=1, max_size=3)),
        min_size=1, max_size=3))
    lead = draw(st.sampled_from(["", "+", "-"]))
    text = lead
    for t, (sign, factors) in enumerate(terms):
        if t:
            text += f" {sign} "
        text += " * ".join(str(base) + ("" if k is None else f"^{k}")
                           for base, k in factors)
    terms[0] = ("-" if lead == "-" else "+", terms[0][1])
    return text, terms


def fold(terms, value):
    """The value of parsed terms by arithmetic on values: `value(base)` for
    an integer or a name, raised with `**` and multiplied with `*`."""
    total = None
    for sign, factors in terms:
        product = None
        for base, k in factors:
            v = value(base) ** (1 if k is None else k)
            product = v if product is None else product * v
        if total is None:
            total = -product if sign == "-" else product
        else:
            total = total - product if sign == "-" else total + product
    return total


class TestParseAgainstArithmetic:
    """`parse_element` and `parse_poly` fold the parsed terms directly; the
    references evaluate the same payloads through `AlgebraElement` and
    `MultiPoly` arithmetic, factor by factor."""

    @pytest.mark.parametrize("name", ["mv", "group", "rank4"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parse_element(self, name, data):
        A = parse_context(name)
        text, terms = data.draw(payloads(sorted(A._symbols) + list(A.gens)))

        def value(base):
            if isinstance(base, int):
                return A.unit.scale(base)
            if base in A._symbols:
                return A._element(A._symbols[base])
            return A.unit.scale(MultiPoly.gen(A.gens, base))

        assert A.parse_element(text) == fold(terms, value)

    @pytest.mark.parametrize("name", ["mv", "group", "rank4"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parse_poly(self, name, data):
        gens = parse_context(name).gens
        text, terms = data.draw(payloads(list(gens)))

        def value(base):
            if isinstance(base, int):
                return MultiPoly.const(gens, base)
            return MultiPoly.gen(gens, base)

        assert parse_poly(text, gens) == fold(terms, value)

    def test_symbol_powers_are_made_once_per_call(self, monkeypatch):
        """Terms start from the powers an earlier term made: repeating or
        lowering a power pushes no more columns than the highest alone."""
        import foamalg.frobalg as frobalg
        A = mv_algebra()
        x99, x100 = A.parse_element("X^99"), A.parse_element("X^100")
        pushes = []

        def counted(columns, vector):
            pushes.append(1)
            return _push(columns, vector)

        monkeypatch.setattr(frobalg, "_push", counted)

        def count(src):
            pushes.clear()
            value = A.parse_element(src)
            return len(pushes), value

        alone, _ = count("X^100")
        a = MultiPoly.gen(A.gens, "a")
        assert count("X^100 + X^100") == (alone, x100 + x100)
        assert count("X^99 + X^100") == (alone, x99 + x100)
        assert count("2*X^100 + a*X^99*X") == (alone,
                                               x100.scale(2) + x100.scale(a))


small_polys = st.builds(
    lambda items: MultiPoly(MV_GENS, items),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
            st.integers(-2, 2),
        ),
        max_size=3,
    ),
)


def unfused_push(columns, vector):
    """Reference for `_push`: sum c * v as polynomials, one product and one
    partial sum at a time, then drop the zero entries."""
    out = {}
    for j, c in vector:
        for i, v in columns.get(j, {}).items():
            out[i] = out.get(i, MultiPoly.zero(MV_GENS)) + c * v
    return {i: v for i, v in out.items() if v}


# 0, 1 and -1 often: `_push` shares a factor of 1 and skips a weight of 0.
push_polys = st.one_of(
    st.sampled_from([MultiPoly.const(MV_GENS, c) for c in (0, 1, -1)]),
    small_polys)


class TestPush:
    @given(
        st.dictionaries(
            st.integers(0, 5),
            st.dictionaries(st.integers(0, 4), push_polys, max_size=4),
            max_size=5,
        ),
        st.lists(st.tuples(st.integers(0, 6), push_polys), max_size=6),
    )
    def test_matches_unfused_sum(self, columns, vector):
        got = _push(columns, vector)
        assert got == unfused_push(columns, vector)
        for v in got.values():
            assert v.gens == MV_GENS and v.terms
            assert all(c != 0 for c in v.terms.values())

    def test_a_single_product_with_one_shares_the_other_factor(self):
        one, p, q = (mv_poly(s) for s in ("1", "a*b - c^2", "2*a + 1"))
        assert _push({0: {3: p}}, [(0, one)])[3] is p
        assert _push({0: {3: one}}, [(0, p)])[3] is p
        # A second product into a shared output leaves the shared value as
        # it was.
        got = _push({0: {3: p}, 1: {3: one}}, [(0, one), (1, q)])
        assert got == {3: p + q}
        assert p == mv_poly("a*b - c^2") and q == mv_poly("2*a + 1")

    def test_a_zero_weight_adds_nothing(self):
        zero, one, x2 = mv_poly("0"), mv_poly("1"), mv_poly("a^2")
        assert _push({0: {0: one}}, [(0, zero)]) == {}
        for vector in ([(0, zero), (1, one)], [(1, one), (0, zero)]):
            got = _push({0: {0: x2}, 1: {0: one}}, vector)
            assert got == {0: one} and got[0] is one

    def test_map_equality_compares_rings(self, mv):
        assert LinearMap((), 3, 1, 1, {}) != LinearMap(("a",), 3, 1, 1, {})
        assert LinearMap((), 3, 1, 1, {}) == LinearMap((), 3, 1, 1, {})
        assert mv.identity_map != truncated_algebra(3).identity_map
        assert mv.identity_map == LinearMap.identity(MV_GENS, 3)

    def test_maps_over_other_rings_are_rejected(self, mv):
        # `_push` trusts its callers to share one ring, so composition and
        # application check it.
        cubic = algebra_from_modulus((), [1, 0, 0, 1], [0, 0, 1])
        with pytest.raises(ValueError, match="generator mismatch"):
            mv.identity_map >> cubic.identity_map
        with pytest.raises(ValueError, match="generator mismatch"):
            mv.identity_map.apply(cubic.tensor(cubic.unit))

    def test_sums_of_maps_over_other_rings_are_rejected(self):
        # A sum over one ring must not hold an entry of another.
        a = MultiPoly.gen(("a",), "a")
        plain = LinearMap((), 3, 1, 1, {})
        over_a = LinearMap(("a",), 3, 1, 1, {0: {0: a}})
        for lhs, rhs in ((plain, over_a), (over_a, plain)):
            with pytest.raises(ValueError, match="generator mismatch"):
                lhs + rhs
            with pytest.raises(ValueError, match="generator mismatch"):
                lhs - rhs
        assert over_a - over_a == LinearMap(("a",), 3, 1, 1, {})


class TestColumnsOnDemand:
    """`_Kron` and `_column` read composites one column at a time; each
    column must be the one the whole-map `@` and `>>` build."""

    def comul(self, mv):
        """The comultiplication, built whole: (delta_one @ id) >> (id @ mul)."""
        return (mv.delta_one_map @ mv.identity_map) >> \
            (mv.identity_map @ mv.mul_map)

    def maps(self, mv):
        return [mv.identity_map, mv.mul_map, self.comul(mv), mv.counit_map,
                mv.delta_one_map, mv.swap_map]

    def test_kron_columns_match_the_whole_product(self, mv):
        maps = self.maps(mv)
        for f in maps:
            for g in maps:
                for factors in ((f, g), (f, g, f)):
                    whole = factors[0]
                    for h in factors[1:]:
                        whole = whole @ h
                    lazy = _Kron(*factors)
                    for j in range(3 ** whole.in_order):
                        assert (lazy.get(j) or {}) == whole.cols.get(j, {})

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_kron_with_id_relabels_without_products(self, mv, monkeypatch,
                                                     side):
        """A factor column that is one entry equal to 1 shifts the other
        column's indices: no coefficient is multiplied, on either side."""
        ident = mv.identity_map
        for f in self.maps(mv):
            factors = (ident, f) if side == "left" else (f, ident)
            n_out = 3 ** factors[1].out_order
            want = {ca * 3 ** factors[1].in_order + cb: {
                        i * n_out + j: x * y
                        for i, x in a.items() for j, y in b.items()}
                    for ca, a in factors[0].cols.items()
                    for cb, b in factors[1].cols.items()}
            products = []

            def counted(p, q, mul=MultiPoly.__mul__):
                products.append(1)
                return mul(p, q)

            with monkeypatch.context() as patch:
                patch.setattr(MultiPoly, "__mul__", counted)
                patch.setattr(MultiPoly, "__rmul__", counted)
                whole = factors[0] @ factors[1]
                lazy = _Kron(*factors)
                got = {j: lazy.get(j) for j in range(3 ** whole.in_order)}
            assert products == []
            assert whole.cols == want
            assert {j: c for j, c in got.items() if c} == whole.cols

    def test_column_matches_the_whole_composite(self, mv):
        comul = self.comul(mv)
        stages = (mv.identity_map @ comul,
                  mv.mul_map @ mv.identity_map, mv.mul_map, mv.counit_map)
        whole = stages[0]
        for f in stages[1:]:
            whole = whole >> f
        sources = (_Kron(mv.identity_map, comul),
                   _Kron(mv.mul_map, mv.identity_map),
                   mv.mul_map.cols, mv.counit_map.cols)
        for c in range(9):
            assert _column(sources, c) == whole.cols.get(c, {})

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_tensor_product_is_legwise(self, mv, order):
        u = [mv.parse_element(s) for s in ("a*X + 1", "X^2 - b", "c*X - X^2")]
        v = [mv.parse_element(s) for s in ("X - 2", "b*X^2 + a", "X + c")]
        got = mv.tensor(*u[:order]) * mv.tensor(*v[:order])
        assert got == mv.tensor(*(x * y for x, y in zip(u, v[:order])))


def matmul(x, y, gens):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))),
                 MultiPoly.zero(gens)) for j in range(len(y[0]))]
            for i in range(len(x))]


def identity(n, gens):
    return [[MultiPoly.const(gens, int(i == j)) for j in range(n)]
            for i in range(n)]


@st.composite
def unimodular(draw):
    """(L D L^T conjugated by a permutation, det D): L unit lower-triangular
    with small entries in Z[a, b], D diagonal with entries ±1.  The
    permutation puts zeros on the diagonal often enough to need row swaps."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from(["0", "0", "1", "-2", "a", "b - 1", "a*b + a",
                             "a^2 - b"])
    L = [[parse_poly("1", AB) if i == j else
          parse_poly(draw(entry), AB) if j < i else MultiPoly.zero(AB)
          for j in range(n)] for i in range(n)]
    signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
    LD = [[x * signs[j] for j, x in enumerate(row)] for row in L]
    G = matmul(LD, [list(col) for col in zip(*L)], AB)
    perm = draw(st.permutations(range(n)))
    G = [[G[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return G, math.prod(signs)


def top_form_hankel(n):
    """The Gram matrix of the top-degree form on Z[a1..an][X]/(X^n - a1 X^(n-1)
    - ... - an): entry (i, j) is the coefficient h_(i+j) of X^(n-1) in
    X^(i+j), with h_m = 0 below n - 1, h_(n-1) = 1 and h_m = sum_k a_k
    h_(m-k) above."""
    gens = tuple(f"a{k}" for k in range(1, n + 1))
    a = [MultiPoly.gen(gens, g) for g in gens]
    h = [MultiPoly.const(gens, int(m == n - 1)) for m in range(n)]
    for m in range(n, 2 * n - 1):
        h.append(sum((a[k] * h[m - 1 - k] for k in range(n)),
                     MultiPoly.zero(gens)))
    return gens, [[h[i + j] for j in range(n)] for i in range(n)]


class TestUnimodularInverse:
    @settings(max_examples=60, deadline=None)
    @given(unimodular())
    def test_inverse_of_random_unimodular(self, case):
        G, want_det = case
        n = len(G)
        det, inv = unimodular_inverse(G, AB)
        assert det == MultiPoly.const(AB, want_det)
        assert matmul(G, inv, AB) == identity(n, AB)
        assert matmul(inv, G, AB) == identity(n, AB)

    @pytest.mark.parametrize("gens, rows, det", [
        ((), [["1", "2"], ["2", "4"]], "0"),
        ((), [["0", "0"], ["0", "1"]], "0"),
        (AB, [["a", "a*b"], ["b", "b^2"]], "0"),
        (AB, [["a", "0", "1"], ["0", "b", "0"], ["1", "0", "a"]], "a^2*b - b"),
        ((), [["0", "2"], ["2", "0"]], "-4"),
        (AB, [["a", "2"], ["2", "0"]], "-4"),
        (AB, [["a", "1", "0"], ["1", "0", "0"], ["0", "0", "4"]], "-4"),
    ])
    def test_singular_and_non_unit_determinants_are_refused(
            self, gens, rows, det):
        mat = [[parse_poly(x, gens) for x in row] for row in rows]
        with pytest.raises(DegenerateFormError,
                           match=rf"det\(gram\) = {re.escape(det)}$"):
            unimodular_inverse(mat, gens)

    def test_generic_rank_15_top_form(self):
        # The matrix is inverted directly: building and validating the whole
        # algebra at this rank takes far longer.
        gens, G = top_form_hankel(15)
        det, inv = unimodular_inverse(G, gens)
        # The antidiagonal of ones under zeros is the reversal permutation,
        # of sign (-1)^(15 * 14 / 2).
        assert det == MultiPoly.const(gens, -1)
        assert matmul(G, inv, gens) == identity(15, gens)
        # The dual basis of the top form is linear in the a_k.
        assert all(sum(exps) <= 1 for row in inv for x in row
                   for exps in x.terms)
