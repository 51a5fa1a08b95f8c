import pytest

from foamalg.branchops import BranchContext
from foamalg.coeffring import MultiPoly
from foamalg.frobalg import mv_algebra, truncated_algebra
from foamalg.groupfoam import derive_bialgebra_theta, group_ring
from foamalg import groupfoam, lawsuite
from foamalg.foamlang import parse, pretty, typecheck
from foamalg.lawsuite import (
    LAWS,
    SUITE_NAMES,
    SUITES,
    _HEAD,
    LawReport,
    _unequal,
    check_antisymmetry,
    check_cocomul_two_sided,
    check_delta_one_resolution,
    check_jacobi,
    check_skein_identities,
    check_theta_trace,
    run_suite,
    select_suites,
    suite_passed,
)
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


@pytest.fixture(scope="module")
def mv_ctx():
    return BranchContext(mv_algebra(), mv_theta())


def lie_ctx(n):
    return BranchContext(truncated_algebra(n), lie_theta(n))


class TestAntisymmetry:
    def test_mv(self, mv_ctx):
        report = check_antisymmetry(mv_ctx)
        assert report.passed and report.checked_cases == 9

    def test_lie5(self):
        report = check_antisymmetry(lie_ctx(5))
        assert report.passed and report.checked_cases == 25

    def test_symmetric_table_fails_on_diagonal(self):
        A = truncated_algebra(2)
        t = ThetaTable((), 2, [((0, 0, 1), 1)])
        report = check_antisymmetry(BranchContext(A, t))
        assert not report.passed
        assert report.counterexample["inputs"] == ["1", "1"]


class TestJacobi:
    def test_mv_triple(self, mv_ctx):
        A = mv_ctx.algebra
        one, X, X2 = (A.basis_element(i) for i in range(3))
        assert mv_ctx.bracket(one, mv_ctx.bracket(X, X2)) == \
            A.parse_element("-X")
        assert mv_ctx.bracket(X, mv_ctx.bracket(X2, one)) == \
            A.parse_element("a")
        assert mv_ctx.bracket(X2, mv_ctx.bracket(one, X)) == \
            A.parse_element("X - a")
        report = check_jacobi(mv_ctx)
        assert report.passed and report.checked_cases == 27

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_lie_theta(self, n):
        report = check_jacobi(lie_ctx(n))
        assert report.passed and report.checked_cases == n ** 3

    def test_zero_theta_trivially(self):
        A = truncated_algebra(3)
        report = check_jacobi(BranchContext(A, ThetaTable((), 3, {})))
        assert report.passed

    def test_shared_columns_live_only_with_the_side(self):
        """The three rotations of one diagram each make their columns
        through its chain, and the context's memo keeps none of them after
        the law is walked."""
        ctx = lie_ctx(7)
        assert check_jacobi(ctx).passed
        (chain,) = ctx.memo[pretty(parse("(id * bmul) ; bmul"))]
        assert chain.made == {}


class TestTwoSided:
    def test_mv(self, mv_ctx):
        report = check_cocomul_two_sided(mv_ctx)
        assert report.passed and report.checked_cases == 3

    def test_lie3(self):
        assert check_cocomul_two_sided(lie_ctx(3)).passed

    def test_cyclically_closed_custom_table(self):
        # cyclic closure alone already forces two-sidedness; the exact
        # computation confirms it even for this non-antisymmetric table
        A = truncated_algebra(2)
        t = ThetaTable((), 2, [((0, 0, 1), 1)])
        assert check_cocomul_two_sided(BranchContext(A, t)).passed


class TestSkein:
    def test_mv_reports(self, mv_ctx):
        reports = {(r.law, r.variant): r for r in check_skein_identities(mv_ctx)}
        for law in ("skein_identity_1", "skein_identity_2", "skein_identity_3"):
            r = reports[(law, "cocomul_skein")]
            assert r.passed and not r.advisory
        r1 = reports[("skein_identity_1", "cocomul")]
        assert not r1.passed and r1.advisory
        assert r1.note == "holds with both sides negated: F = swap - E"
        assert reports[("skein_identity_2", "cocomul")].passed
        r3 = reports[("skein_identity_3", "cocomul")]
        assert not r3.passed and r3.note == "matrix equals -2 * identity"
        rp = reports[("skein_pointwise_kernel", "cocomul")]
        assert not rp.passed and rp.advisory
        assert "opposite counit sign" in rp.note

    def test_walks_stop_at_a_difference_in_row_0(self, monkeypatch):
        """On aN:15/lie every skein identity differs in row 0 of the first
        column, so each of the six walks reads that one input column of
        each side, and no more."""
        reads, sides = [], lawsuite.sides

        def recording(ctx, law, sign=1, D=""):
            pair = sides(ctx, law, sign, D)
            if sign == 1 and law.startswith("skein_identity"):
                for side in pair:
                    cols = []
                    reads.append(cols)
                    side.get = lambda c, get=side.get, cols=cols: (
                        cols.append(c) or get(c))
            return pair

        monkeypatch.setattr(lawsuite, "sides", recording)
        reports = check_skein_identities(lie_ctx(15))[:6]
        assert [r.counterexample["output_basis"][0] for r in reports] == \
            ["1"] * 6
        assert reads == [[0]] * 12

    def test_counterexample_shape(self, mv_ctx):
        reports = check_skein_identities(mv_ctx)
        failing = [r for r in reports if not r.passed]
        for r in failing:
            cx = r.counterexample
            assert set(cx) >= {"inputs", "lhs", "rhs"}


class TestThetaTrace:
    def test_mv_entry(self, mv_ctx):
        A = mv_ctx.algebra
        value = A.counit(A.mul(A.unit, mv_ctx.bracket_basis(1, 2)))
        assert value == MultiPoly.const(A.gens, 1)
        report = check_theta_trace(mv_ctx)
        assert report.passed and report.checked_cases == 27

    def test_lie5(self):
        report = check_theta_trace(lie_ctx(5))
        assert report.passed and report.checked_cases == 125

    def test_zero_theta(self):
        report = check_theta_trace(
            BranchContext(truncated_algebra(3), ThetaTable((), 3, {})))
        assert report.passed


class TestDeltaOneResolution:
    def test_mv(self, mv_ctx):
        report = check_delta_one_resolution(mv_ctx)
        assert report.passed and report.checked_cases == 3

    @pytest.mark.parametrize("n", range(2, 10))
    def test_truncated(self, n):
        ctx = BranchContext(truncated_algebra(n), ThetaTable((), n, {}))
        assert check_delta_one_resolution(ctx).passed

    def test_rank_one(self):
        from foamalg.coeffring import MultiPoly
        from foamalg.frobalg import FrobeniusAlgebra
        A = FrobeniusAlgebra((), ["1"], {0: {0: MultiPoly.one(())}}, [1])
        ctx = BranchContext(A, ThetaTable((), 1, {}))
        assert check_delta_one_resolution(ctx).passed

    def test_compiles_over_the_reports_context(self):
        # Neck cutting reads no theta, and runs on the report's own
        # context, so its lhs is compiled into that context's memo.
        ctx = BranchContext(mv_algebra(), mv_theta())
        run_suite(ctx, ["delta_one"])
        assert "delta_one * id ; id * (mul ; counit)" in ctx.memo


class TestSuite:
    def test_mv_all_passes(self, mv_ctx):
        reports = run_suite(mv_ctx)
        assert suite_passed(reports)
        for r in reports:
            if not r.advisory:
                assert r.passed and r.counterexample is None

    def test_group_suite_includes_bialgebra(self):
        A = group_ring([2, 2])
        ctx = BranchContext(A, derive_bialgebra_theta(A))
        reports = run_suite(ctx)
        assert any(r.law == "bialgebra" and r.passed for r in reports)

    def test_selection(self, mv_ctx):
        reports = run_suite(mv_ctx, ["jacobi", "antisym"])
        assert [r.law for r in reports] == ["jacobi", "antisymmetry"]

    def test_a_single_string_is_one_name(self, mv_ctx):
        assert select_suites("jacobi") == ["jacobi"]
        assert [r.law for r in run_suite(mv_ctx, "jacobi")] == ["jacobi"]
        with pytest.raises(ValueError, match="unknown suite 'jac'"):
            run_suite(mv_ctx, "jac")

    def test_unknown_name(self, mv_ctx):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(mv_ctx, ["nonsense"])

    @pytest.mark.parametrize("names", [[], ()])
    def test_empty_selection_runs_no_law(self, mv_ctx, monkeypatch, names):
        # No selected law must not read as "every selected law passed".
        calls = self.count_laws(monkeypatch)
        for select in (select_suites, lambda names: run_suite(mv_ctx, names)):
            with pytest.raises(ValueError, match=(
                    "selects no law; available: antisym, jacobi, .*, all$")):
                select(names)
        assert calls == []

    def test_bialgebra_needs_group(self, mv_ctx):
        with pytest.raises(ValueError, match="group ring"):
            run_suite(mv_ctx, ["bialgebra"])

    @staticmethod
    def count_laws(monkeypatch):
        """Every check the suites can call, counted where they look it up."""
        calls = []
        targets = [(lawsuite, n) for n in dir(lawsuite) if n.startswith("check_")]
        for module, name in targets + [(groupfoam, "check_bialgebra")]:
            def counted(*args, _law=getattr(module, name), _name=name):
                calls.append(_name)
                return _law(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("names", [
        ["jacobi", "bogus"], ["delta_one", "all", "bogus"], ["bogus", "all"]])
    def test_unknown_name_runs_no_law(self, mv_ctx, monkeypatch, names):
        calls = self.count_laws(monkeypatch)
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            run_suite(mv_ctx, names)
        assert calls == []

    def test_bialgebra_off_a_group_ring_runs_no_law(self, mv_ctx, monkeypatch):
        calls = self.count_laws(monkeypatch)
        with pytest.raises(ValueError, match="group ring"):
            run_suite(mv_ctx, ["jacobi", "theta_trace", "bialgebra"])
        assert calls == []

    def test_registry_calls_through_module_globals(self, mv_ctx, monkeypatch):
        calls = self.count_laws(monkeypatch)
        run_suite(mv_ctx, ["all"])
        assert calls == ["check_antisymmetry", "check_jacobi",
                         "check_cocomul_two_sided", "check_skein_identities",
                         "check_theta_trace", "check_delta_one_resolution"]
        A = group_ring([2, 2])
        calls.clear()
        run_suite(BranchContext(A, derive_bialgebra_theta(A)), ["bialgebra"])
        assert calls == ["check_bialgebra"]
        assert SUITE_NAMES == tuple(SUITES)

    def test_report_invariant(self):
        with pytest.raises(ValueError, match="passing report"):
            LawReport(law="x", passed=True, checked_cases=1,
                      counterexample={"inputs": []})

    def test_to_dict_round_trip(self, mv_ctx):
        import json
        reports = run_suite(mv_ctx)
        blob = json.dumps([r.to_dict() for r in reports])
        parsed = json.loads(blob)
        assert len(parsed) == len(reports)
        assert all("law" in entry and "passed" in entry for entry in parsed)


class _Source:
    """A column source over the sparse columns `cols` that records the
    columns read and the calls of `support()`, which gives `keys`."""

    def __init__(self, cols, keys=None):
        self.cols, self.keys, self.read, self.supports = cols, keys, [], 0

    def get(self, c):
        self.read.append(c)
        return self.cols.get(c, {})

    def support(self):
        self.supports += 1
        return self.keys


class TestUnequal:
    LHS = {3: {0: 1}, 20: {1: 2}, 30: {0: 5}}
    RHS = {3: {0: 1}, 30: {0: 4}, 35: {2: 1}}
    FOUND = [(20, {1: 2}, {}), (30, {0: 5}, {0: 4}), (35, {}, {2: 1})]

    @pytest.mark.parametrize("supported", [False, True])
    def test_yields_every_unequal_column_in_order(self, supported):
        """Past the head, either every column is read, when a side can be
        nonzero everywhere, or only the sorted union of the supports."""
        lhs = _Source(self.LHS, set(self.LHS) if supported else None)
        rhs = _Source(self.RHS, set(self.RHS) if supported else None)
        assert list(_unequal((lhs, rhs), 40)) == self.FOUND
        assert lhs.read == rhs.read == (
            [*range(_HEAD), 20, 30, 35] if supported else list(range(40)))
        assert lhs.supports == 1

    def test_equal_sides_yield_nothing(self):
        pair = _Source(self.LHS), _Source(dict(self.LHS))
        assert list(_unequal(pair, 40)) == []

    def test_keep_reads_no_other_column(self):
        lhs, rhs = _Source(self.LHS), _Source(self.RHS)
        keep = lambda c: c % 10 == 0
        assert list(_unequal((lhs, rhs), 40, keep)) == self.FOUND[:2]
        assert lhs.read == rhs.read == [0, 10, 20, 30]

    def test_a_difference_in_the_head_computes_no_support(self):
        lhs = _Source({5: {0: 1}, 20: {0: 1}}, {5, 20})
        rhs = _Source({}, set())
        walk = _unequal((lhs, rhs), 40)
        assert next(walk) == (5, {0: 1}, {})
        assert lhs.read == list(range(6))
        assert lhs.supports == rhs.supports == 0
        assert list(walk) == [(20, {0: 1}, {})]
        assert lhs.supports == rhs.supports == 1


class TestLawTable:
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_sides_are_well_typed(self, law):
        """Every diagram of a law takes its inputs and gives one number of
        outputs, for both conventions of the co-operation."""
        inputs, lhs, rhs = LAWS[law]
        for D in ("bcomul", "bcomul_skein"):
            outputs = set()
            for a, s, text in lhs + rhs:
                ins, outs = typecheck(parse(text.format(D=D)))
                assert ins == inputs
                assert s in range(inputs)
                outputs.add(outs)
            assert len(outputs) == 1
