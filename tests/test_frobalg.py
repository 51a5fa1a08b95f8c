import pytest
from hypothesis import given, strategies as st

from foamalg.coeffring import MultiPoly, parse_poly
from foamalg.frobalg import (
    DegenerateFormError,
    FrobeniusAlgebra,
    algebra_from_modulus,
    mv_algebra,
    truncated_algebra,
)
from foamalg.groupfoam import group_ring

MV_GENS = ("a", "b", "c")


@pytest.fixture(scope="module")
def mv():
    return mv_algebra()


def mv_poly(src):
    return parse_poly(src, MV_GENS)


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

    def test_non_associative_table_rejected(self):
        # basis 1, x, y with x*x = y, x*y = 0, y*y = x: (x*x)*y = x but
        # x*(x*y) = 0, and (1, 1, 2) is the first failing triple.
        one, x, y, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
        table = [[one, x, y], [x, y, z], [y, z, x]]
        with pytest.raises(ValueError, match=r"not associative at \(1, 1, 2\)"):
            FrobeniusAlgebra((), ["1", "x", "y"], table, [0, 0, 1])


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
            left = {}
            right = {}
            for (i, j), coeff in t.coeffs.items():
                for (p, q), c2 in A.comul(A.basis_element(i)).coeffs.items():
                    key = (p, q, j)
                    left[key] = left.get(key, A.scalar(0)) + coeff * c2
                for (p, q), c2 in A.comul(A.basis_element(j)).coeffs.items():
                    key = (i, p, q)
                    right[key] = right.get(key, A.scalar(0)) + coeff * c2
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
                rhs = A.tensor_zero(2)
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
        assert mv.parse_element(mv.render_element(u)) == u

    def test_render_zero(self, mv):
        assert mv.render_element(mv.zero) == "0"
