"""The law checks as map equations, against plain element loops.

Each oracle below walks the basis tuples of one law with `AlgebraElement`
and `TensorElement` arithmetic, in the order the law suite promises, and
builds the report by hand.  The map-equation checks must give the same
`to_dict()` on every context, including where they fail.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from foamalg import lawsuite
from foamalg.branchops import BranchContext
from foamalg.coeffring import MultiPoly, parse_poly
from foamalg.frobalg import LinearMap, TensorElement, _unflat, \
    algebra_from_modulus, mv_algebra, truncated_algebra
from foamalg.groupfoam import check_bialgebra, \
    derive_bialgebra_theta, group_ring, hopf_delta
from foamalg.lawsuite import (
    LawReport,
    _compare,
    _generator_rows,
    _law_report,
    check_antisymmetry,
    check_cocomul_two_sided,
    check_delta_one_resolution,
    check_jacobi,
    check_skein_identities,
    check_theta_trace,
    sides,
)
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


def _labels(A, *indices):
    return [A.basis_labels[i] for i in indices]


def _failure(law, cases, A, inputs, lhs, rhs, render):
    return LawReport(law=law, passed=False, checked_cases=cases,
                     counterexample={"inputs": _labels(A, *inputs),
                                     "lhs": render(lhs), "rhs": render(rhs)})


def oracle_antisymmetry(ctx):
    A = ctx.algebra
    n = A.rank
    cases = 0
    for i in range(n):
        for j in range(n):
            cases += 1
            lhs = ctx.bracket_basis(i, j)
            rhs = -ctx.bracket_basis(j, i)
            if lhs != rhs:
                return _failure("antisymmetry", cases, A, (i, j), lhs, rhs,
                                repr)
    return LawReport(law="antisymmetry", passed=True, checked_cases=cases)


def oracle_jacobi(ctx):
    A = ctx.algebra
    n = A.rank
    e = [A.basis_element(i) for i in range(n)]
    cases = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cases += 1
                total = (
                    ctx.bracket(e[i], ctx.bracket_basis(j, k))
                    + ctx.bracket(e[k], ctx.bracket_basis(i, j))
                    + ctx.bracket(e[j], ctx.bracket_basis(k, i))
                )
                if total:
                    return _failure("jacobi", cases, A, (i, j, k), total,
                                    A.zero, repr)
    return LawReport(law="jacobi", passed=True, checked_cases=cases)


def oracle_two_sided(ctx):
    A = ctx.algebra
    n = A.rank
    cases = 0
    for u in range(n):
        cases += 1
        eu = A.basis_element(u)
        lhs = ctx.cocomul(eu)
        rhs = TensorElement(A, 2, {})
        for i in range(n):
            rhs = rhs + A.tensor(A.dual_basis[i],
                                 ctx.bracket(A.basis_element(i), eu))
        if lhs != rhs:
            return _failure("cocomul_two_sided", cases, A, (u,), lhs, rhs,
                            repr)
    return LawReport(law="cocomul_two_sided", passed=True, checked_cases=cases)


def oracle_theta_trace(ctx):
    A = ctx.algebra
    n = A.rank
    cases = 0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cases += 1
                lhs = ctx.theta.value(k, i, j)
                rhs = A.counit(A.mul(A.basis_element(k),
                                     ctx.bracket_basis(i, j)))
                if lhs != rhs:
                    return _failure("theta_trace", cases, A, (k, i, j), lhs,
                                    rhs, str)
    return LawReport(law="theta_trace", passed=True, checked_cases=cases)


def oracle_delta_one(A):
    n = A.rank
    cases = 0
    for u in range(n):
        cases += 1
        eu = A.basis_element(u)
        acc = A.zero
        for i in range(n):
            weight = A.counit(A.mul(A.basis_element(i), eu))
            acc = acc + A.dual_basis[i].scale(weight)
        if acc != eu:
            return _failure("delta_one_resolution", cases, A, (u,), acc, eu,
                            repr)
    return LawReport(law="delta_one_resolution", passed=True,
                     checked_cases=cases)


def oracle_kernel(ctx):
    """Every pair is checked; the first failing one is the counterexample."""
    A = ctx.algebra
    n = A.rank
    cases, cx, minus_form_everywhere = 0, None, True
    for i in range(n):
        ei = A.basis_element(i)
        for j in range(n):
            cases += 1
            ej = A.basis_element(j)
            lhs = TensorElement(A, 2, {})
            for (l1, l2), c in ctx.cocomul(ej).coeffs.items():
                w = ctx.bracket(ei, A.basis_element(l1)).scale(c)
                lhs = lhs + A.tensor(w, A.basis_element(l2))
            weight = A.counit(A.mul(ei, ej))
            plus = A.tensor(ej, ei) + A.delta_one.scale(weight)
            minus = A.tensor(ej, ei) - A.delta_one.scale(weight)
            if lhs != minus:
                minus_form_everywhere = False
            if lhs != plus and cx is None:
                cx = {"inputs": _labels(A, i, j),
                      "lhs": repr(lhs),
                      "rhs": repr(plus)}
    note = None
    if cx is not None and minus_form_everywhere:
        note = ("holds with the opposite counit sign: "
                "lhs = e_j⊗e_i - counit(e_i*e_j)*delta_one")
    return LawReport(law="skein_pointwise_kernel", variant="cocomul",
                     passed=cx is None, checked_cases=cases, counterexample=cx,
                     note=note, advisory=True)


def _matrix_counterexample(ctx, lhs: LinearMap, rhs: LinearMap):
    """First differing entry of two same-shape matrices in row-major order,
    as printable data."""
    diff = lhs - rhs
    if not diff.cols:
        return None
    r, c = min((r, c) for c, col in diff.cols.items() for r in col)
    A = ctx.algebra
    return {
        "inputs": _labels(A, *_unflat(c, A.rank, lhs.in_order)),
        "output_basis": _labels(A, *_unflat(r, A.rank, lhs.out_order)),
        "lhs": str(lhs.entry(r, c)),
        "rhs": str(rhs.entry(r, c)),
    }


def oracle_skein(ctx):
    """Skein identities 1-3 under both conventions, each side built as a
    whole matrix and compared entry by entry in row-major order."""
    A = ctx.algebra
    n = A.rank
    gens = A.gens
    reports = []
    m = ctx.linear_map("bmul")
    tau = ctx.linear_map("swap")
    id1 = LinearMap.identity(gens, n, 1)
    id2 = LinearMap.identity(gens, n, 2)
    delta_one = ctx.linear_map("delta_one")
    E = (ctx.linear_map("mul") >> ctx.linear_map("counit")) >> delta_one
    cocomul = (id1 @ delta_one) >> (m @ id1)
    for variant, D in (("cocomul_skein", cocomul >> tau),
                       ("cocomul", cocomul)):
        advisory = variant == "cocomul"
        F = (id1 @ D) >> (m @ id1)

        cx = _matrix_counterexample(ctx, F, E - tau)
        note = None
        if cx is not None and F == tau - E:
            note = "holds with both sides negated: F = swap - E"
        reports.append(LawReport(
            law="skein_identity_1", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, note=note,
            advisory=advisory))

        cx = _matrix_counterexample(ctx, F >> F, id2 + E)
        reports.append(LawReport(
            law="skein_identity_2", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, advisory=advisory))

        lhs = D >> m
        cx = _matrix_counterexample(ctx, lhs, 2 * id1)
        note = None
        if cx is not None and lhs == (-2) * id1:
            note = "matrix equals -2 * identity"
        reports.append(LawReport(
            law="skein_identity_3", variant=variant, passed=cx is None,
            checked_cases=n, counterexample=cx, note=note,
            advisory=advisory))
    return reports


def oracle_bialgebra(A, ctx):
    n = A.rank
    cases = 0

    def failure(inputs, sublaw, lhs, rhs, render):
        return LawReport(law="bialgebra", passed=False, checked_cases=cases,
                         counterexample={"inputs": _labels(A, *inputs),
                                         "sublaw": sublaw,
                                         "lhs": render(lhs),
                                         "rhs": render(rhs)})

    for g in range(n):
        cases += 1
        eg = A.basis_element(g)
        lhs, rhs = ctx.cocomul(eg), hopf_delta(A, eg)
        if lhs != rhs:
            return failure((g,), "cocomul equals diagonal", lhs, rhs,
                           repr)
    for g in range(n):
        for h in range(n):
            cases += 1
            lhs = ctx.cocomul(A.mul_basis(g, h))
            rhs = ctx.cocomul(A.basis_element(g)) * \
                ctx.cocomul(A.basis_element(h))
            if lhs != rhs:
                return failure((g, h), "compatibility", lhs, rhs,
                               repr)
    for g in range(n):
        eg = A.basis_element(g)
        left = right = A.zero
        for (l1, l2), c in ctx.cocomul(eg).coeffs.items():
            left = left + A.basis_element(l2).scale(c)
            right = right + A.basis_element(l1).scale(c)
        for side, value in (("left", left), ("right", right)):
            cases += 1
            if value != eg:
                return failure((g,), f"counit law ({side})", value, eg,
                               repr)
    return LawReport(law="bialgebra", passed=True, checked_cases=cases)


# -- contexts --------------------------------------------------------------


def generic_monic_ctx():
    """X^4 - a1 X^3 - a2 X^2 - a3 X - a4 over Z[a1..a4], the form on X^3,
    with a cyclic theta table whose values are polynomials in the a_k."""
    gens = ("a1", "a2", "a3", "a4")
    modulus = [parse_poly(s, gens) for s in ("-a4", "-a3", "-a2", "-a1", "1")]
    A = algebra_from_modulus(gens, modulus, [0, 0, 0, 1])
    theta = ThetaTable(gens, 4, [
        ((0, 1, 2), parse_poly("a1", gens)),
        ((0, 2, 1), parse_poly("-a1", gens)),
        ((1, 1, 3), parse_poly("a2 - 1", gens)),
        ((0, 0, 3), 1),
    ])
    return BranchContext(A, theta)


CONTEXTS = {
    "mv/mv": lambda: BranchContext(mv_algebra(), mv_theta()),
    "aN:5/lie": lambda: BranchContext(truncated_algebra(5), lie_theta(5)),
    "group:2,2/group": lambda: _group_ctx([2, 2], derive_bialgebra_theta),
    "group:2,4/zero": lambda: _group_ctx(
        [2, 4], lambda A: ThetaTable((), A.rank, {})),
    "generic-monic-4": generic_monic_ctx,
}


def _group_ctx(orders, theta):
    A = group_ring(orders)
    return BranchContext(A, theta(A))


def perturbed(make, entry):
    """The context with one bracket entry changed by +1, set before the
    bracket map is first used, so every derived map and table sees it."""
    ctx = make()
    m = ctx.bracket_map
    n = ctx.algebra.rank
    col, row = entry
    cols = {c: dict(v) for c, v in m.cols.items()}
    one = MultiPoly.one(ctx.algebra.gens)
    column = cols.setdefault(col, {})
    column[row] = column.get(row, MultiPoly.zero(m.gens)) + one
    fresh = make()
    fresh.__dict__["bracket_map"] = LinearMap(m.gens, n, 2, 1, cols)
    return fresh


def restricted(make, keep):
    """The context with only the bracket columns c for which keep(c) holds,
    so the theta entries of the other pairs sit outside the bracket's
    support.  On mv, deleting (X, X^2) makes theta_trace fail at
    (1, X, X^2), a column that only the theta support reaches.  On aN:5,
    keeping (1, X^3) and (X^3, X^2) makes Jacobi fail first at
    (1, X^3, X^3), where of the three pairs only (1, X^3) has a column."""
    m = make().bracket_map
    fresh = make()
    fresh.__dict__["bracket_map"] = LinearMap(
        m.gens, m.n, 2, 1, {c: v for c, v in m.cols.items() if keep(c)})
    return fresh


ALL_CONTEXTS = {
    **CONTEXTS,
    "mv/mv, bracket (X, X^2) removed": lambda: restricted(
        CONTEXTS["mv/mv"], lambda c: c != 1 * 3 + 2),
    "aN:5/lie, bracket (1, X^3) and (X^3, X^2) only": lambda: restricted(
        CONTEXTS["aN:5/lie"], lambda c: c in (0 * 5 + 3, 3 * 5 + 2)),
    "mv/mv, bracket (X, X^2) + X": lambda: perturbed(CONTEXTS["mv/mv"],
                                                     (1 * 3 + 2, 1)),
    "aN:5/lie, bracket (1, 1) + 1": lambda: perturbed(CONTEXTS["aN:5/lie"],
                                                      (0, 0)),
    "group:2,2/group, bracket (x, y) + x*y": lambda: perturbed(
        CONTEXTS["group:2,2/group"], (1 * 4 + 2, 3)),
}


@pytest.fixture(scope="module", params=sorted(ALL_CONTEXTS))
def ctx(request):
    return ALL_CONTEXTS[request.param]()


def test_antisymmetry(ctx):
    assert check_antisymmetry(ctx).to_dict() == \
        oracle_antisymmetry(ctx).to_dict()


def test_jacobi(ctx):
    assert check_jacobi(ctx).to_dict() == oracle_jacobi(ctx).to_dict()


def test_two_sided(ctx):
    assert check_cocomul_two_sided(ctx).to_dict() == \
        oracle_two_sided(ctx).to_dict()


def test_theta_trace(ctx):
    assert check_theta_trace(ctx).to_dict() == \
        oracle_theta_trace(ctx).to_dict()


def test_delta_one(ctx):
    assert check_delta_one_resolution(ctx).to_dict() == \
        oracle_delta_one(ctx.algebra).to_dict()


def test_pointwise_kernel(ctx):
    kernel = check_skein_identities(ctx)[-1]
    assert kernel.to_dict() == oracle_kernel(ctx).to_dict()


def test_skein_identities(ctx):
    got = [r.to_dict() for r in check_skein_identities(ctx)[:-1]]
    assert got == [r.to_dict() for r in oracle_skein(ctx)]


def product_perturbed():
    """group:2,2 with x*y = 2*x*y in the mul map: the co-operation is still
    the diagonal, so the bialgebra law gets past its first sub-law and fails
    at compatibility."""
    ctx = CONTEXTS["group:2,2/group"]()
    A = ctx.algebra
    n = A.rank
    cols = dict(A.mul_map.cols)
    cols[1 * n + 2] = cols[2 * n + 1] = \
        {r: 2 * v for r, v in cols[1 * n + 2].items()}
    A.__dict__["mul_map"] = LinearMap(A.gens, n, 2, 1, cols)
    return ctx


GROUP_CONTEXTS = {
    name: make for name, make in ALL_CONTEXTS.items()
    if name.startswith("group:")
}
GROUP_CONTEXTS["group:2,2/group, x*y doubled"] = product_perturbed


@pytest.mark.parametrize("name", sorted(GROUP_CONTEXTS))
def test_bialgebra(name):
    ctx = GROUP_CONTEXTS[name]()
    A = ctx.algebra
    assert check_bialgebra(ctx).to_dict() == \
        oracle_bialgebra(A, ctx).to_dict()


def test_bialgebra_fails_at_compatibility():
    ctx = product_perturbed()
    report = check_bialgebra(ctx)
    assert report.counterexample["sublaw"] == "compatibility"


def test_mul_basis_reads_the_mul_map():
    A = product_perturbed().algebra
    plain = CONTEXTS["group:2,2/group"]().algebra
    doubled = [2 * c for c in plain.mul_basis(1, 2).coeffs]
    assert list(A.mul_basis(1, 2).coeffs) == doubled
    assert list(A.mul_basis(2, 1).coeffs) == doubled
    assert A.mul_basis(1, 1).coeffs == plain.mul_basis(1, 1).coeffs


@pytest.mark.parametrize("name", ["mv/mv", "aN:5/lie", "group:2,2/group"])
def test_views_read_back_the_maps(name):
    """dual_basis, delta_one and bracket_basis are the columns of dual_map,
    delta_one_map and bracket_map."""
    ctx = CONTEXTS[name]()
    A = ctx.algebra
    n = A.rank
    e = [A.basis_element(i) for i in range(n)]
    for j, y in enumerate(A.dual_basis):
        assert A.dual_map.apply(A.tensor(e[j])) == A.tensor(y)
        for a in range(n):
            assert A.delta_one_map.entry(a * n + j, 0) == \
                A.dual_map.entry(a, j)
    assert A.delta_one == sum(
        (A.tensor(y, e[i]) for i, y in enumerate(A.dual_basis)),
        TensorElement(A, 2, {}))
    assert A.delta_one.coeffs == {
        _unflat(r, n, 2): v for r, v in A.delta_one_map.cols[0].items()}
    for i in range(n):
        for j in range(n):
            assert A.tensor(ctx.bracket_basis(i, j)) == \
                ctx.bracket_map.apply(A.tensor(e[i], e[j]))


def _record_widths(monkeypatch) -> list:
    """Record the input width n^in_order of every LinearMap built from now
    on, through the public constructor or the internal `_canonical`."""
    widths = []
    init, canonical = LinearMap.__init__, LinearMap._canonical

    def recording_init(self, gens, n, in_order, out_order, cols):
        widths.append(n ** in_order)
        init(self, gens, n, in_order, out_order, cols)

    def recording_canonical(cls, gens, n, in_order, out_order, cols):
        widths.append(n ** in_order)
        return canonical(gens, n, in_order, out_order, cols)

    monkeypatch.setattr(LinearMap, "__init__", recording_init)
    monkeypatch.setattr(LinearMap, "_canonical",
                        classmethod(recording_canonical))
    return widths


@pytest.mark.parametrize("check", [check_antisymmetry, check_jacobi])
def test_early_exit_builds_no_whole_map(monkeypatch, check):
    """On group:2^6 both laws fail at their first column; reading the
    composites column by column, they build no map wider than n^2 columns
    (an eager id (x) bracket would have n^3 = 262144)."""
    A = group_ring([2] * 6)
    ctx = BranchContext(A, derive_bialgebra_theta(A))
    n = A.rank
    widths = _record_widths(monkeypatch)
    report = check(ctx)
    assert not report.passed and report.checked_cases == 1
    assert widths and max(widths) <= n * n


def test_skein_builds_no_whole_map(monkeypatch):
    """On group:2^6 the skein identities read every composite and Kronecker
    product one column at a time: no map wider than n^2 columns is built
    (F (x) id would have n^3 = 262144)."""
    A = group_ring([2] * 6)
    ctx = BranchContext(A, derive_bialgebra_theta(A))
    n = A.rank
    widths = _record_widths(monkeypatch)
    reports = check_skein_identities(ctx)
    assert [r.checked_cases for r in reports] == [n * n, n * n, n] * 2 + \
        [n * n]
    assert widths and max(widths) <= n * n


def test_every_failing_path_is_reached():
    """Each law fails on at least one context above, so the comparison
    covers counterexample rendering as well as the passing path."""
    checks = {
        "antisymmetry": check_antisymmetry,
        "jacobi": check_jacobi,
        "cocomul_two_sided": check_cocomul_two_sided,
        "theta_trace": check_theta_trace,
        "skein_identity_1": lambda c: check_skein_identities(c)[0],
        "skein_identity_2": lambda c: check_skein_identities(c)[1],
        "skein_identity_3": lambda c: check_skein_identities(c)[2],
        "skein_pointwise_kernel": lambda c: check_skein_identities(c)[-1],
        "bialgebra": check_bialgebra,
    }
    failed = set()
    for name, make in ALL_CONTEXTS.items():
        c = make()
        for law, check in checks.items():
            if (law != "bialgebra" or name in GROUP_CONTEXTS) \
                    and not check(c).passed:
                failed.add(law)
    assert failed == set(checks)


# -- proof-backed walks ----------------------------------------------------


def test_jacobi_equals_the_full_walk(ctx):
    """The sorted-triple walk reports what the walk of every column does,
    on contexts that pass and fail antisymmetry and Jacobi."""
    assert check_jacobi(ctx).to_dict() == _law_report("jacobi", ctx).to_dict()


def _orbits(n):
    """The cyclic orbits of index triples at rank n, each by its least
    rotation."""
    return sorted({min((i, j, k), (j, k, i), (k, i, j)) for i in range(n)
                   for j in range(n) for k in range(n)})


@st.composite
def theta_tables(draw):
    """(rank, table, alternating) over aN:2 to aN:5.  An alternating table
    is antisymmetric in its last two legs, so its bracket is antisymmetric;
    any other has a nonzero value on the orbit of (0, 0, 1), which breaks
    antisymmetry at (e_0, e_1)."""
    n = draw(st.integers(2, 5))
    alternating = draw(st.booleans())
    value = st.integers(-2, 2)
    entries = []
    if alternating:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    v = draw(value)
                    entries += [((i, j, k), v), ((i, k, j), -v)]
    else:
        entries = [(t, draw(value.filter(bool)) if t == (0, 0, 1)
                    else draw(value)) for t in _orbits(n)]
    return n, ThetaTable((), n, entries), alternating


@settings(max_examples=60, deadline=None)
@given(theta_tables())
def test_jacobi_on_random_tables_equals_the_full_walk(drawn):
    n, theta, alternating = drawn
    ctx = BranchContext(truncated_algebra(n), theta)
    assert check_antisymmetry(ctx).passed == alternating
    assert check_jacobi(ctx).to_dict() == _law_report("jacobi", ctx).to_dict()


def _read_columns(monkeypatch, module, law):
    """The columns at which the lhs of `law` is read, for every `sides`
    that `module` makes for it."""
    read = []
    make = module.sides

    def recording_sides(ctx, name, *args):
        lhs, rhs = make(ctx, name, *args)
        if name == law:
            get = lhs.get
            lhs.get = lambda c: read.append(c) or get(c)
        return lhs, rhs

    monkeypatch.setattr(module, "sides", recording_sides)
    return read


@pytest.mark.parametrize("n, entries, passed", [
    (5, [((0, 1, 3), 1), ((0, 3, 1), -1), ((1, 2, 3), 2), ((1, 3, 2), -2)],
     True),
    (5, [((0, 1, 3), 1), ((0, 3, 1), -1), ((0, 3, 4), 2), ((0, 4, 3), -2),
         ((1, 2, 3), 2), ((1, 3, 2), -2), ((2, 3, 4), -1), ((2, 4, 3), 1)],
     False),
])
def test_alternating_tables_walk_sorted_triples(monkeypatch, n, entries,
                                                passed):
    """An antisymmetric bracket takes the reduced walk, both where Jacobi
    passes and where it fails."""
    ctx = BranchContext(truncated_algebra(n), ThetaTable((), n, entries))
    read = _read_columns(monkeypatch, lawsuite, "jacobi")
    report = check_jacobi(ctx)
    assert report.passed == passed
    assert report.to_dict() == oracle_jacobi(ctx).to_dict()
    assert read and all(i < j < k for i, j, k in
                        (_unflat(c, n, 3) for c in read))


def test_jacobi_reads_only_sorted_triples_on_an15(monkeypatch):
    n = 15
    ctx = BranchContext(truncated_algebra(n), lie_theta(n))
    read = _read_columns(monkeypatch, lawsuite, "jacobi")
    report = check_jacobi(ctx)
    assert report.passed and report.checked_cases == n ** 3
    assert read and all(i < j < k for i, j, k in
                        (_unflat(c, n, 3) for c in read))


def test_failing_antisymmetry_walks_every_column(monkeypatch):
    """(0, 0, 1) + 1 breaks antisymmetry, so Jacobi reads unsorted
    columns, and fails where the full walk does."""
    n = 3
    ctx = BranchContext(truncated_algebra(n),
                        ThetaTable((), n, [((0, 0, 1), 1)]))
    read = _read_columns(monkeypatch, lawsuite, "jacobi")
    report = check_jacobi(ctx)
    assert not check_antisymmetry(ctx).passed
    assert report.to_dict() == oracle_jacobi(ctx).to_dict()
    assert any(not i < j < k for i, j, k in (_unflat(c, n, 3) for c in read))


@pytest.mark.parametrize("entries, antisymmetric", [
    ([((0, 1, 2), 1), ((0, 2, 1), -1)], True),
    ([((0, 0, 1), 1)], False),
])
def test_jacobi_reads_the_antisymmetry_verdict_of_its_context(
        monkeypatch, entries, antisymmetric):
    """After an antisymmetry report on the same context, Jacobi walks no
    antisymmetry column, and still reports what the full walk does."""
    n = 3
    ctx = BranchContext(truncated_algebra(n), ThetaTable((), n, entries))
    assert check_antisymmetry(ctx).passed == antisymmetric
    read = _read_columns(monkeypatch, lawsuite, "antisymmetry")
    assert check_jacobi(ctx).to_dict() == oracle_jacobi(ctx).to_dict()
    assert read == []


def _random_theta(rank, seed):
    rng = random.Random(seed)
    return ThetaTable((), rank, [
        (t, rng.choice([0, 0, 0, 1, -1])) for t in _orbits(rank)])


@pytest.mark.parametrize("orders", [[2], [2, 2], [2, 2, 2], [2, 4]])
def test_compatibility_on_generator_rows_decides_every_pair(orders):
    """The generator rows pass exactly when every pair does, and a pass
    reports the same cases as the full walk."""
    A = group_ring(orders)
    thetas = [ThetaTable((), A.rank, {})] + \
        [_random_theta(A.rank, seed) for seed in range(3)]
    if A.group.has_exponent_two():
        thetas.append(derive_bialgebra_theta(A))
    keep = _generator_rows(A)
    assert keep is not None
    for theta in thetas:
        ctx = BranchContext(A, theta)
        full = _compare(A, sides(ctx, "compatibility"), 2)
        reduced = _compare(A, sides(ctx, "compatibility"), 2, keep)
        assert (reduced[1] is None) == (full[1] is None)
        if full[1] is None:
            assert reduced == full


def test_swapped_product_takes_the_full_walk(monkeypatch):
    """product_perturbed replaces mul_map after construction, so no proof
    covers it: every compatibility column up to the failure is read."""
    ctx = product_perturbed()
    A = ctx.algebra
    assert A.generator_indices() is None and _generator_rows(A) is None
    read = _read_columns(monkeypatch, lawsuite, "compatibility")
    report = check_bialgebra(ctx)
    assert report.to_dict() == oracle_bialgebra(A, ctx).to_dict()
    assert read == list(range(report.checked_cases - A.rank))


def twisted_product():
    """group:2,2 with x*x = -1 and x*y*x*y = -1 in place of 1, a product
    that validation proves associative again, with the generating set
    {x*y, y} (rows 3 and 1).  The co-operation stays the diagonal, and
    compatibility first fails at (x, x), in row 2, which is no generator
    row: the walk on rows 0, 1, 3 finds (x*y, x) first."""
    ctx = CONTEXTS["group:2,2/group"]()
    A = ctx.algebra
    n = A.rank
    cols = {c: {r: v if not (c // n & 2 and c % n & 2) else -v
                for r, v in col.items()}
            for c, col in A.mul_map.cols.items()}
    A.__dict__["mul_map"] = LinearMap(A.gens, n, 2, 1, cols)
    A._symbols = {name: A.basis_element(i).vec
                  for name, i in (("x", 3), ("y", 1))}
    A._validate_algebra()
    return ctx


def test_failure_off_the_generator_rows_reports_the_full_walk():
    ctx = twisted_product()
    A = ctx.algebra
    assert A.generator_indices() == (1, 3)
    report = check_bialgebra(ctx)
    assert report.to_dict() == oracle_bialgebra(A, ctx).to_dict()
    assert report.counterexample["sublaw"] == "compatibility"
    assert report.counterexample["inputs"] == ["x", "x"]
    assert report.checked_cases == A.rank + 2 * A.rank + 3
    reduced = _compare(A, sides(ctx, "compatibility"), 2,
                       _generator_rows(A))
    assert reduced[1]["inputs"] == ["x*y", "x"]


def test_group_2_4_reads_80_compatibility_columns(monkeypatch):
    A = group_ring([2] * 4)
    ctx = BranchContext(A, derive_bialgebra_theta(A))
    read = _read_columns(monkeypatch, lawsuite, "compatibility")
    report = check_bialgebra(ctx)
    assert report.passed and report.checked_cases == 16 + 256 + 2 * 16
    assert len(read) == 80
    assert {c // 16 for c in read} == {0, 1, 2, 4, 8}
