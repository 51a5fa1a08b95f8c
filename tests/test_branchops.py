import json

import pytest
from hypothesis import given, strategies as st

from foamalg import cli
from foamalg.branchops import GENERATORS, BranchContext, LinearMap
from foamalg.coeffring import MultiPoly, parse_poly
from foamalg.foamlang import DEFINITIONS, compile_diagram, parse, typecheck
from foamalg.frobalg import AlgebraElement, TensorElement, mv_algebra, \
    truncated_algebra
from foamalg.groupfoam import GroupRingAlgebra
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


@pytest.fixture(scope="module")
def mv_ctx():
    return BranchContext(mv_algebra(), mv_theta())


@pytest.fixture(scope="module")
def lie3_ctx():
    return BranchContext(truncated_algebra(3), lie_theta(3))


def direct_lie_bracket(A, n, j, k):
    """Independent oracle for the truncated-algebra bracket:
    sum_i theta(i, j, k) X^(n-1-i), by direct enumeration of the table."""
    t = lie_theta(n)
    acc = A.zero
    for i in range(n):
        v = t.value(i, j, k)
        if v:
            acc = acc + A.basis_element(n - 1 - i).scale(v.constant_value())
    return acc


class TestBracket:
    def test_mv_goldens(self, mv_ctx):
        A = mv_ctx.algebra
        one, X, X2 = (A.basis_element(i) for i in range(3))
        assert mv_ctx.bracket(one, X) == A.parse_element("-1")
        assert mv_ctx.bracket(one, X2) == A.parse_element("X - a")
        assert mv_ctx.bracket(X, X2) == A.parse_element("-X^2 + a*X + b")

    def test_lie3_against_oracle(self, lie3_ctx):
        A = lie3_ctx.algebra
        for j in range(3):
            for k in range(3):
                expected = direct_lie_bracket(A, 3, j, k)
                got = lie3_ctx.bracket(A.basis_element(j), A.basis_element(k))
                assert got == expected

    def test_lie3_goldens(self, lie3_ctx):
        A = lie3_ctx.algebra
        one, X, X2 = (A.basis_element(i) for i in range(3))
        assert lie3_ctx.bracket(one, X) == one
        assert lie3_ctx.bracket(one, X2) == -X
        assert lie3_ctx.bracket(X, X2) == X2

    def test_diagonal_vanishes(self, mv_ctx, lie3_ctx):
        for ctx in (mv_ctx, lie3_ctx):
            A = ctx.algebra
            for i in range(A.rank):
                e = A.basis_element(i)
                assert not ctx.bracket(e, e)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            BranchContext(truncated_algebra(4), lie_theta(3))

    def test_bracket_rejects_foreign_elements(self, lie3_ctx):
        other = truncated_algebra(4)
        with pytest.raises(ValueError, match="rank mismatch"):
            lie3_ctx.bracket(other.unit, other.unit)
        A, same_rank = lie3_ctx.algebra, mv_algebra()
        for op in (A.comul, lie3_ctx.cocomul, lie3_ctx.cocomul_skein):
            with pytest.raises(ValueError, match="algebra mismatch"):
                op(same_rank.unit)
            with pytest.raises(TypeError, match="got TensorElement"):
                op(A.tensor(A.unit))

    small = st.integers(-3, 3)

    @given(small, small, small, small)
    def test_bilinearity(self, c1, c2, c3, c4):
        ctx = BranchContext(truncated_algebra(3), lie_theta(3))
        A = ctx.algebra
        u = AlgebraElement(A, [c1, c2, 0])
        v = AlgebraElement(A, [0, c3, c4])
        w = AlgebraElement(A, [c4, 0, c1])
        assert ctx.bracket(u + v, w) == ctx.bracket(u, w) + ctx.bracket(v, w)
        assert ctx.bracket(w, u + v) == ctx.bracket(w, u) + ctx.bracket(w, v)


class TestCocomul:
    def test_mv_lemma_table(self, mv_ctx):
        A = mv_ctx.algebra
        one, X, X2 = (A.basis_element(i) for i in range(3))
        swing = A.tensor(one, X) - A.tensor(X, one)
        swing2 = A.tensor(one, X2) - A.tensor(X2, one)
        a = parse_poly("a", A.gens)
        a2b = parse_poly("a^2 + b", A.gens)
        assert mv_ctx.cocomul(one) == swing
        assert mv_ctx.cocomul(X) == swing.scale(a) - swing2
        assert mv_ctx.cocomul(X2) == (
            swing.scale(a2b) - swing2.scale(a)
            + A.tensor(X, X2) - A.tensor(X2, X)
        )

    def test_skein_variant_swaps(self, mv_ctx):
        A = mv_ctx.algebra
        one, X = A.basis_element(0), A.basis_element(1)
        assert mv_ctx.cocomul_skein(one) == A.tensor(X, one) - A.tensor(one, X)

    def test_bracket_after_each_variant(self, mv_ctx):
        A = mv_ctx.algebra
        for u_idx, variant, expected in [
            (0, "cocomul_skein", 2),
            (0, "cocomul", -2),
        ]:
            u = A.basis_element(u_idx)
            t = getattr(mv_ctx, variant)(u)
            acc = A.zero
            for (i, j), c in t.coeffs.items():
                acc = acc + mv_ctx.bracket(
                    A.basis_element(i), A.basis_element(j)).scale(c)
            assert acc == u.scale(expected)

    def test_two_sided(self, mv_ctx, lie3_ctx):
        for ctx in (mv_ctx, lie3_ctx):
            A = ctx.algebra
            for u in range(A.rank):
                eu = A.basis_element(u)
                lhs = ctx.cocomul(eu)
                rhs = TensorElement(A, 2, {})
                for i in range(A.rank):
                    w = ctx.bracket(A.basis_element(i), eu)
                    rhs = rhs + A.tensor(A.dual_basis[i], w)
                assert lhs == rhs

    def test_theta_trace(self, mv_ctx):
        A = mv_ctx.algebra
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    lhs = mv_ctx.theta.value(k, i, j)
                    rhs = A.counit(A.mul(
                        A.basis_element(k), mv_ctx.bracket_basis(i, j)))
                    assert lhs == rhs

    def test_kernel_identity_minus_form(self, mv_ctx):
        # bracket(e_i, u_(1)) (x) u_(2) = e_j (x) e_i - counit(e_i e_j) delta_one
        A = mv_ctx.algebra
        for i in range(3):
            ei = A.basis_element(i)
            for j in range(3):
                ej = A.basis_element(j)
                lhs = TensorElement(A, 2, {})
                for (l1, l2), c in mv_ctx.cocomul(ej).coeffs.items():
                    w = mv_ctx.bracket(ei, A.basis_element(l1)).scale(c)
                    lhs = lhs + A.tensor(w, A.basis_element(l2))
                weight = A.counit(A.mul(ei, ej))
                assert lhs == A.tensor(ej, ei) - A.delta_one.scale(weight)


class TestLinearMaps:
    def test_swap_is_permutation(self, lie3_ctx):
        swap = lie3_ctx.linear_map("swap")
        assert swap.in_order == swap.out_order == 2
        assert len(swap.cols) == 9
        one = MultiPoly.one(())
        for c, col in swap.cols.items():
            i, j = divmod(c, 3)
            assert col == {j * 3 + i: one}
        assert swap >> swap == LinearMap.identity((), 3, 2)

    def test_identity(self, mv_ctx):
        ident = mv_ctx.linear_map("id")
        assert ident == LinearMap.identity(mv_ctx.algebra.gens, 3, 1)

    def test_bracket_matrix_consistency(self, mv_ctx):
        A = mv_ctx.algebra
        m = mv_ctx.linear_map("bmul")
        for i in range(3):
            for j in range(3):
                image = m.apply(A.tensor(A.basis_element(i), A.basis_element(j)))
                expected = mv_ctx.bracket_basis(i, j)
                coeffs = [MultiPoly.zero(A.gens)] * 3
                for (k,), c in image.coeffs.items():
                    coeffs[k] = c
                assert AlgebraElement(A, coeffs) == expected

    def test_mul_by_map(self, mv_ctx):
        A = mv_ctx.algebra
        u = A.parse_element("a*X + 1")
        m = mv_ctx.mul_by_map(u)
        for j in range(3):
            image = m.apply(A.tensor(A.basis_element(j)))
            expected = A.mul(u, A.basis_element(j))
            coeffs = [MultiPoly.zero(A.gens)] * 3
            for (k,), c in image.coeffs.items():
                coeffs[k] = c
            assert AlgebraElement(A, coeffs) == expected

    def test_kron_against_direct(self, lie3_ctx):
        ident = lie3_ctx.linear_map("id")
        mu = lie3_ctx.linear_map("mul")
        both = mu @ ident
        assert both.in_order == 3 and both.out_order == 2
        A = lie3_ctx.algebra
        t = A.tensor(A.basis_element(1), A.basis_element(1), A.basis_element(2))
        image = both.apply(t)
        assert image == A.tensor(A.mul_basis(1, 1), A.basis_element(2))

    def test_compose_order_mismatch(self, lie3_ctx):
        mu = lie3_ctx.linear_map("mul")
        with pytest.raises(ValueError, match="compose"):
            mu >> mu

    def test_unknown_name(self, lie3_ctx):
        with pytest.raises(ValueError, match="unknown linear map"):
            lie3_ctx.linear_map("frobnicate")


def spec_context(tmp_path, algebra, theta):
    """The context of a CLI algebra and theta spec; the algebra `config`
    is a rank-3 config algebra over Z[p, q] with a theta entry."""
    if algebra == "config":
        algebra = str(tmp_path / "alg.json")
        (tmp_path / "alg.json").write_text(json.dumps({
            "generators": ["p", "q"], "modulus": ["-p", "q + 1", "0", "1"],
            "counit": ["0", "0", "1"], "theta": [[0, 1, 2, "p"]]}))
    A, config_theta = cli.build_algebra(algebra)
    return BranchContext(A, cli.build_theta(theta, A, config_theta))


class TestGeneratorTable:
    @pytest.mark.parametrize("algebra,theta", [
        ("mv", "mv"), ("aN:5", "lie"), ("group:2,2", "group"),
        ("config", "config")])
    def test_names_resolve_to_their_arity(self, tmp_path, algebra, theta):
        """Each name of `GENERATORS` is a map of the arity the table states;
        `aug` and `diag` exist on group rings only."""
        ctx = spec_context(tmp_path, algebra, theta)
        A = ctx.algebra
        group = isinstance(A, GroupRingAlgebra)
        for name, (_, ins, outs) in GENERATORS.items():
            if name in ("aug", "diag") and not group:
                with pytest.raises(ValueError, match=(
                        f"generator '{name}' needs a group ring algebra")):
                    ctx.linear_map(name)
                continue
            m = ctx.linear_map(name)
            assert (m.n, m.in_order, m.out_order) == (A.rank, ins, outs)


    @pytest.mark.parametrize("algebra,theta", [
        ("mv", "mv"), ("aN:5", "lie"), ("group:2,2", "group"),
        ("config", "zero"), ("config", "config")])
    def test_derived_names_are_their_definitions(self, tmp_path, algebra,
                                                 theta):
        """Each name of `DEFINITIONS` compiles to the whole product of its
        definition over primitive maps, has the element method's columns,
        and has its definition's arity."""
        ctx = spec_context(tmp_path, algebra, theta)
        A, gen = ctx.algebra, ctx.linear_map
        cocomul = (gen("id") @ gen("delta_one")) >> (gen("bmul") @ gen("id"))
        whole = {
            "comul": (gen("delta_one") @ gen("id")) >> (gen("id") @ gen("mul")),
            "bcomul": cocomul,
            "bcomul_skein": cocomul >> gen("swap"),
        }
        methods = {"comul": A.comul, "bcomul": ctx.cocomul,
                   "bcomul_skein": ctx.cocomul_skein}
        for name, text in DEFINITIONS.items():
            m = compile_diagram(parse(name), ctx)
            assert m == whole[name]
            for u in range(A.rank):
                e = A.basis_element(u)
                assert m.apply(A.tensor(e)) == methods[name](e)
            assert typecheck(parse(name)) == typecheck(parse(text))


class TestRingCoercion:
    def test_lie_table_on_named_ring(self):
        ctx = BranchContext(mv_algebra(), lie_theta(3))
        assert ctx.theta.gens == ("a", "b", "c")
        A = ctx.algebra
        assert ctx.bracket(A.basis_element(1), A.basis_element(2)) == \
            A.dual_basis[0]

    def test_custom_theta_values(self):
        gens = ("a", "b", "c")
        t = ThetaTable(gens, 3, [((0, 1, 2), parse_poly("a", gens))])
        ctx = BranchContext(mv_algebra(), t)
        A = ctx.algebra
        got = ctx.bracket(A.basis_element(1), A.basis_element(2))
        assert got == A.dual_basis[0].scale(parse_poly("a", gens))
