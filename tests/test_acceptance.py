"""Acceptance suite: every criterion at exact (zero-tolerance) equality.

All arithmetic in the library is exact over Z[g...], so each criterion is an
exact equality of canonical forms.  One [acceptance] line prints per
criterion (run with -s to see them).
"""

import random

import pytest

from foamalg.branchops import BranchContext, LinearMap
from foamalg.coeffring import MultiPoly, parse_poly
from foamalg.foamlang import (
    ArityError,
    Compose,
    ParseError,
    Tensor,
    compile_diagram,
    eval_closed,
    parse,
    pretty,
    typecheck,
)
from foamalg.frobalg import TensorElement, mv_algebra, truncated_algebra
from foamalg.groupfoam import (
    check_bialgebra,
    derive_bialgebra_theta,
    group_ring,
)
from foamalg.lawsuite import (
    check_antisymmetry,
    check_delta_one_resolution,
    check_jacobi,
    check_skein_identities,
    check_theta_trace,
)
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta

from test_foamlang import (
    ARITY_ERRORS,
    PARSE_ERRORS,
    ROUND_TRIP_CORPUS,
    random_expr,
)


def _line(tag, ok=True):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def mv_ctx():
    return BranchContext(mv_algebra(), mv_theta())


def test_criterion_01_mv_bracket_goldens(mv_ctx):
    A = mv_ctx.algebra
    one, X, X2 = (A.basis_element(i) for i in range(3))
    assert mv_ctx.bracket(one, X) == A.parse_element("-1")
    assert mv_ctx.bracket(one, X2) == A.parse_element("X - a")
    assert mv_ctx.bracket(X, X2) == A.parse_element("-X^2 + a*X + b")
    _line("1 bracket golden values")


def test_criterion_02_mv_nested_brackets_and_jacobi(mv_ctx):
    A = mv_ctx.algebra
    one, X, X2 = (A.basis_element(i) for i in range(3))
    assert mv_ctx.bracket(one, mv_ctx.bracket(X, X2)) == A.parse_element("-X")
    assert mv_ctx.bracket(X, mv_ctx.bracket(X2, one)) == A.parse_element("a")
    assert mv_ctx.bracket(X2, mv_ctx.bracket(one, X)) == A.parse_element("X - a")
    report = check_jacobi(mv_ctx)
    assert report.passed and report.checked_cases == 27
    _line("2 nested brackets and 27-case Jacobi")


def test_criterion_03_mv_comultiplication(mv_ctx):
    A = mv_ctx.algebra
    one, X, X2 = (A.basis_element(i) for i in range(3))
    a = parse_poly("a", A.gens)
    b = parse_poly("b", A.gens)
    c = parse_poly("c", A.gens)
    assert A.delta_one == (
        -(A.tensor(one, X2) + A.tensor(X, X) + A.tensor(X2, one))
        + (A.tensor(one, X) + A.tensor(X, one)).scale(a)
        + A.tensor(one, one).scale(b)
    )
    assert A.comul(X) == (
        -(A.tensor(X, X2) + A.tensor(X2, X))
        + A.tensor(X, X).scale(a)
        - A.tensor(one, one).scale(c)
    )
    assert A.comul(X2) == (
        -A.tensor(X2, X2)
        - A.tensor(X, X).scale(b)
        - (A.tensor(one, X) + A.tensor(X, one)).scale(c)
    )
    assert A.comul(one) == A.delta_one
    _line("3 comultiplication table")


def test_criterion_04_mv_branch_cooperation_table(mv_ctx):
    A = mv_ctx.algebra
    one, X, X2 = (A.basis_element(i) for i in range(3))
    a = parse_poly("a", A.gens)
    a2b = parse_poly("a^2 + b", A.gens)
    swing = A.tensor(one, X) - A.tensor(X, one)
    swing2 = A.tensor(one, X2) - A.tensor(X2, one)
    assert mv_ctx.cocomul(one) == swing
    assert mv_ctx.cocomul(X) == swing.scale(a) - swing2
    assert mv_ctx.cocomul(X2) == (
        swing.scale(a2b) - swing2.scale(a)
        + A.tensor(X, X2) - A.tensor(X2, X)
    )
    _line("4 branch co-operation table")


def test_criterion_05_handle_scalars(mv_ctx):
    A = mv_ctx.algebra
    assert A.handle_scalar() == MultiPoly.const(A.gens, 3)
    for n in (3, 5, 7, 9):
        A = truncated_algebra(n)
        assert A.handle_scalar() == MultiPoly.const(A.gens, n)
    _line("5 handle scalars (3 and N)")


def test_criterion_06a_skein_identities_skein_variant(mv_ctx):
    A = mv_ctx.algebra
    gens = A.gens
    m = mv_ctx.linear_map("bmul")
    mu = mv_ctx.linear_map("mul")
    eps = mv_ctx.linear_map("counit")
    tau = mv_ctx.linear_map("swap")
    delta_one = mv_ctx.linear_map("delta_one")
    id1 = LinearMap.identity(gens, 3, 1)
    id2 = LinearMap.identity(gens, 3, 2)
    D = (id1 @ delta_one) >> (m @ id1) >> tau
    E = (mu >> eps) >> delta_one
    F = (id1 @ D) >> (m @ id1)
    assert F == E - tau                       # identity (1), 9x9 exact
    assert F >> F == id2 + E                  # identity (2), 9x9 exact
    assert D >> m == 2 * id1                  # identity (3), 3x3 exact

    # hand-frozen spot checks of F on elementary tensors
    one, X = A.basis_element(0), A.basis_element(1)
    F11 = F.apply(A.tensor(one, one))
    assert F11 == -A.tensor(one, one)
    F1X = F.apply(A.tensor(one, X))
    assert F1X == -A.tensor(X, one)
    FXX = F.apply(A.tensor(X, X))
    assert FXX == -A.delta_one - A.tensor(X, X)
    _line("6a skein identities (cocomul_skein variant)")


@pytest.mark.xfail(
    strict=True,
    reason="stated with +counit(e_i*e_j)*delta_one; exact computation gives "
    "the minus sign on every pair with counit(e_i*e_j) != 0",
)
def test_criterion_06b_pointwise_kernel_identity_plus_form(mv_ctx):
    A = mv_ctx.algebra
    ok = True
    for i in range(3):
        ei = A.basis_element(i)
        for j in range(3):
            ej = A.basis_element(j)
            lhs = TensorElement(A, 2, {})
            for (l1, l2), c in mv_ctx.cocomul(ej).coeffs.items():
                w = mv_ctx.bracket(ei, A.basis_element(l1)).scale(c)
                lhs = lhs + A.tensor(w, A.basis_element(l2))
            weight = A.counit(A.mul(ei, ej))
            if lhs != A.tensor(ej, ei) + A.delta_one.scale(weight):
                ok = False
    _line("6b pointwise kernel identity, +counit form", ok)
    assert ok


def test_criterion_06c_pointwise_kernel_identity_computed_form(mv_ctx):
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
    _line("6c pointwise kernel identity, computed (-counit) form")


def test_criterion_06d_plain_cocomul_sign_recorded(mv_ctx):
    m = mv_ctx.linear_map("bmul")
    id1 = LinearMap.identity(mv_ctx.algebra.gens, 3, 1)
    D = (id1 @ mv_ctx.linear_map("delta_one")) >> (m @ id1)
    assert D >> m == (-2) * id1
    reports = {(r.law, r.variant): r for r in check_skein_identities(mv_ctx)}
    r3 = reports[("skein_identity_3", "cocomul")]
    assert r3.advisory and not r3.passed
    assert r3.note == "matrix equals -2 * identity"
    _line("6d plain-cocomul sign variant recorded in report")


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_criterion_07_lie_structure(n):
    ctx = BranchContext(truncated_algebra(n), lie_theta(n))
    anti = check_antisymmetry(ctx)
    assert anti.passed and anti.checked_cases == n * n
    jac = check_jacobi(ctx)
    assert jac.passed and jac.checked_cases == n ** 3
    nontrivial = any(
        ctx.bracket_basis(i, j)
        for i in range(n) for j in range(n)
    )
    assert nontrivial
    _line(f"7 Lie structure for N={n}")


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_criterion_08_truncated_bracket_closed_form(n):
    A = truncated_algebra(n)
    t = lie_theta(n)
    ctx = BranchContext(A, t)
    for j in range(n):
        for k in range(n):
            coeff = t.value(n - (j + k), j, k)
            expected = A.zero
            if coeff:
                expected = A.basis_element(j + k - 1).scale(coeff.constant_value())
            assert ctx.bracket(A.basis_element(j), A.basis_element(k)) == expected
    _line(f"8 closed-form bracket for N={n}")


def test_criterion_09_bialgebra_both_directions():
    for k in (1, 2, 3):
        A = group_ring([2] * k)
        theta = derive_bialgebra_theta(A)
        report = check_bialgebra(A, BranchContext(A, theta))
        assert report.passed
    for orders in ([3], [4], [6], [2, 3]):
        A = group_ring(orders)
        with pytest.raises(ValueError, match="order > 2"):
            derive_bialgebra_theta(A)
    _line("9 bialgebra derivation, both directions")


def test_criterion_10_theta_trace_and_diagrams(mv_ctx):
    report = check_theta_trace(mv_ctx)
    assert report.passed and report.checked_cases == 27
    lie5 = BranchContext(truncated_algebra(5), lie_theta(5))
    report5 = check_theta_trace(lie5)
    assert report5.passed and report5.checked_cases == 125

    A = mv_ctx.algebra
    for i in range(3):
        for j in range(3):
            for k in range(3):
                li, lj, lk = (A.basis_labels[t] for t in (i, j, k))
                src = (f"((unit;label({li})) * (unit;label({lj})) * "
                       f"(unit;label({lk}))) ; (id * bmul) ; mul ; counit")
                expected = mv_ctx.theta.eval(
                    A.basis_element(i), A.basis_element(j), A.basis_element(k))
                assert eval_closed(parse(src), mv_ctx) == expected
    _line("10 theta trace and closed-diagram agreement")


def test_criterion_11_resolution_everywhere(mv_ctx):
    assert check_delta_one_resolution(mv_ctx.algebra).passed
    for n in range(2, 10):
        assert check_delta_one_resolution(truncated_algebra(n)).passed
    for orders in ([2], [3], [4], [2, 2], [2, 3], [2, 2, 2]):
        assert check_delta_one_resolution(group_ring(orders)).passed
    _line("11 neck-cutting resolution everywhere")


def test_criterion_12_language_corpora():
    assert len(ROUND_TRIP_CORPUS) >= 30
    for src in ROUND_TRIP_CORPUS:
        first = parse(src)
        assert parse(pretty(first)) == first

    assert len(PARSE_ERRORS) + len(ARITY_ERRORS) >= 10
    for src, pos in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse(src)
        assert info.value.pos == pos
    for src, pos in ARITY_ERRORS:
        with pytest.raises(ArityError) as info:
            typecheck(parse(src))
        assert info.value.pos == pos

    ctx = BranchContext(
        truncated_algebra(2),
        ThetaTable((), 2, [((0, 1, 1), 1)]),
    )
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        f = random_expr(rng, rng.randint(0, 2), 2)
        g = random_expr(rng, rng.randint(0, 2), 2)
        _, f_out = typecheck(f)
        _, g_out = typecheck(g)
        if f_out > 2 or g_out > 2:
            continue
        h = random_expr(rng, f_out, 1)
        k = random_expr(rng, g_out, 1)
        lhs = compile_diagram(Compose([Tensor([f, g]), Tensor([h, k])]), ctx)
        rhs = compile_diagram(Tensor([Compose([f, h]), Compose([g, k])]), ctx)
        assert lhs == rhs
        checked += 1
    assert checked >= 100
    _line("12 language corpora and interchange law")
