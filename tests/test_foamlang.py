import operator
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from foamalg.branchops import BranchContext, LinearMap
from foamalg.coeffring import MultiPoly
from foamalg.foamlang import (
    DEFINITIONS,
    MAX_MATRIX_CELLS,
    ArityError,
    Compose,
    Generator,
    ParseError,
    Tensor,
    _rotation,
    _shape,
    compile_diagram,
    eval_closed,
    parse,
    pretty,
    side,
    typecheck,
)
from foamalg.frobalg import _unflat, mv_algebra, truncated_algebra
from foamalg.groupfoam import GroupRingAlgebra, derive_bialgebra_theta, \
    group_ring
from foamalg import foamlang
from foamalg.lawsuite import run_suite
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


@pytest.fixture(scope="module")
def mv_ctx():
    return BranchContext(mv_algebra(), mv_theta())


@pytest.fixture(scope="module")
def small_ctx():
    # rank 2 keeps generated matrices tiny for the property tests
    return BranchContext(
        truncated_algebra(2),
        ThetaTable((), 2, [((0, 1, 1), 1)]),
    )


class TestParse:
    def test_compose(self):
        e = parse("unit ; comul")
        assert e == Compose([Generator("unit"), Generator("comul")])

    def test_tensor_binds_tighter(self):
        e = parse("unit * unit ; mul")
        assert e == Compose([
            Tensor([Generator("unit"), Generator("unit")]),
            Generator("mul"),
        ])

    def test_parens_nest(self):
        e = parse("(unit ; comul) ; mul")
        assert e == Compose([
            Compose([Generator("unit"), Generator("comul")]),
            Generator("mul"),
        ])

    def test_label(self):
        e = parse("label(a*X + b)")
        assert e == Generator("label", payload="a*X + b")

    def test_position_tracking(self):
        e = parse("unit ; comul")
        assert e.parts[0].pos == (1, 1)
        assert e.parts[1].pos == (1, 8)


PARSE_ERRORS = [
    ("unit ; ; comul", (1, 8)),
    ("mul mul", (1, 5)),
    ("unit *", (1, 7)),
    ("foo", (1, 1)),
    ("(unit ; comul", (1, 14)),
    ("label(X", (1, 1)),
    ("label()", (1, 7)),
    ("label X", (1, 7)),
    ("unit @ counit", (1, 6)),
    ("(unit) * )", (1, 10)),
    ("", (1, 1)),
]

ARITY_ERRORS = [
    ("comul ; comul", (1, 9)),
    ("mul ; counit ; counit", (1, 16)),
    ("unit ; mul", (1, 8)),
    ("swap ; unit", (1, 8)),
    ("unit ;\nmul", (2, 1)),
    ("counit ; counit", (1, 10)),
]


class TestMalformed:
    @pytest.mark.parametrize("src,pos", PARSE_ERRORS)
    def test_parse_error_positions(self, src, pos):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert info.value.pos == pos

    @pytest.mark.parametrize("src,pos", ARITY_ERRORS)
    def test_arity_error_positions(self, src, pos):
        expr = parse(src)
        with pytest.raises(ArityError) as info:
            typecheck(expr)
        assert info.value.pos == pos

    def test_corpus_size(self):
        assert len(PARSE_ERRORS) + len(ARITY_ERRORS) >= 10


class TestTypecheck:
    @pytest.mark.parametrize("src,arity", [
        ("unit ; comul", (0, 2)),
        ("mul ; counit", (2, 0)),
        ("(unit * unit) ; mul ; counit", (0, 0)),
        ("id", (1, 1)),
        ("swap", (2, 2)),
        ("bcomul_skein", (1, 2)),
        ("label(X)", (1, 1)),
        ("unit * counit", (1, 1)),
        ("bmul ; bcomul", (2, 2)),
    ])
    def test_arities(self, src, arity):
        assert typecheck(parse(src)) == arity


ROUND_TRIP_CORPUS = [
    "id",
    "swap",
    "mul",
    "comul",
    "unit",
    "counit",
    "bmul",
    "bcomul",
    "bcomul_skein",
    "label(X)",
    "label(a*X + b)",
    "label(X^2)",
    "unit ; comul",
    "mul ; counit",
    "unit ; counit",
    "comul ; mul",
    "comul ; mul ; counit",
    "id * id",
    "unit * unit",
    "mul * id",
    "id * comul",
    "swap ; swap",
    "swap ; mul",
    "comul ; swap ; mul",
    "(unit * unit) ; mul",
    "(unit * unit) ; mul ; counit",
    "(unit ; comul) ; mul",
    "((unit ; comul) ; mul) ; counit",
    "unit ; (comul ; (mul * unit))",
    "(id * bmul) ; mul",
    "bcomul ; bmul",
    "bcomul_skein ; bmul",
    "(unit;label(1)) * (unit;label(X))",
    "((unit;label(1)) * (unit;label(X)) * (unit;label(X^2))) ; (id * bmul) ; mul ; counit",
    "comul ; (label(X) * id) ; mul",
    "unit * unit * unit",
    "(mul * mul) ; mul",
]


class TestRoundTrip:
    def test_corpus_size(self):
        assert len(ROUND_TRIP_CORPUS) >= 30

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_parse_print_parse(self, src):
        first = parse(src)
        printed = pretty(first)
        second = parse(printed)
        assert second == first
        assert pretty(second) == printed

    gen_leaf = st.sampled_from(
        ["id", "swap", "mul", "comul", "unit", "counit", "bmul", "bcomul",
         "bcomul_skein"]
    ).map(Generator) | st.sampled_from(["X", "1", "a*X + b"]).map(
        lambda payload: Generator("label", payload=payload)
    )

    exprs = st.recursive(
        gen_leaf,
        lambda children: (
            st.lists(children, min_size=2, max_size=3).map(Tensor)
            | st.lists(children, min_size=2, max_size=3).map(Compose)
        ),
        max_leaves=8,
    )

    @given(exprs)
    def test_generated_ast_round_trip(self, expr):
        assert parse(pretty(expr)) == expr


class TestCompile:
    def test_swap_matrix(self, mv_ctx):
        m = compile_diagram(parse("swap"), mv_ctx)
        assert m == mv_ctx.linear_map("swap")
        assert len(m.to_strings()) == 9

    def test_id_tensor_id(self, mv_ctx):
        m = compile_diagram(parse("id * id"), mv_ctx)
        assert m == LinearMap.identity(mv_ctx.algebra.gens, 3, 2)

    def test_handle_map(self, mv_ctx):
        m = compile_diagram(parse("comul ; mul ; counit"), mv_ctx)
        assert m.to_strings()[0][0] == "3"

    def test_label_is_multiplication(self, mv_ctx):
        A = mv_ctx.algebra
        m = compile_diagram(parse("label(X^2)"), mv_ctx)
        image = m.apply(A.tensor(A.basis_element(1)))
        expected = A.mul(A.basis_element(2), A.basis_element(1))
        got = A.zero
        for (k,), c in image.coeffs.items():
            got = got + A.basis_element(k).scale(c)
        assert got == expected

    def test_label_unknown_symbol(self, mv_ctx):
        with pytest.raises(ValueError, match="unknown symbol"):
            compile_diagram(parse("label(Y)"), mv_ctx)

    def test_compile_checks_arity(self, mv_ctx):
        with pytest.raises(ArityError):
            compile_diagram(parse("comul ; comul"), mv_ctx)

    def test_matrix_cell_bound_on_a_built_tree(self, mv_ctx):
        # A tree built without positions: six inputs and six outputs
        # (3^12 cells) compile, seven (3^14) raise before any map is built.
        six = Tensor([Generator("id")] * 6)
        assert compile_diagram(six, mv_ctx).in_order == 6
        assert 3 ** 12 <= MAX_MATRIX_CELLS < 3 ** 13
        with pytest.raises(ValueError, match=r"7 inputs and a cut of 7 legs, 3\^14"):
            compile_diagram(Tensor([six, Generator("id")]), mv_ctx)

    def test_label_degree_bound_on_a_built_tree(self, mv_ctx):
        # Without positions the degree error drops its location.
        label = Generator("label", payload="a^60")
        with pytest.raises(ValueError) as info:
            compile_diagram(Compose([label, label]), mv_ctx)
        assert str(info.value) == (
            "labels raise 'a' to degree 120, which exceeds the maximum 100 "
            "for one name in one diagram")

    def test_bound_counts_only_legs_in_flight(self, mv_ctx):
        # A part's six legs are in flight only while its own column is made,
        # so three such parts side by side stay within 3^12 cells.
        part = ("(" + " * ".join(["unit"] * 6) + ") ; (mul * mul * mul) ; "
                "(mul * id) ; mul ; comul ; mul ; counit")
        e = parse(" * ".join([f"({part})"] * 3))
        assert eval_closed(e, mv_ctx) == whole_map(e, mv_ctx).entry(0, 0)
        assert str(eval_closed(e, mv_ctx)) == "27"

    @pytest.mark.parametrize("name", sorted(DEFINITIONS))
    def test_derived_name_is_bounded_as_a_generator(self, name):
        # Its definition may have more legs in flight (three in `bcomul`'s),
        # but a derived name counts only its own inputs or outputs.
        ins, outs = typecheck(parse(DEFINITIONS[name]))
        assert _shape(parse(name)) == (ins, outs, max(ins, outs))


class TestEvalClosed:
    def test_theta_diagram(self, mv_ctx):
        src = ("((unit;label(1)) * (unit;label(X)) * (unit;label(X^2))) ; "
               "(id * bmul) ; mul ; counit")
        assert eval_closed(parse(src), mv_ctx) == \
            MultiPoly.const(mv_ctx.algebra.gens, 1)

    def test_eps_x_cubed(self, mv_ctx):
        src = "((unit;label(X)) * (unit;label(X^2))) ; mul ; counit"
        value = eval_closed(parse(src), mv_ctx)
        assert str(value) == "-a"

    def test_eps_unit(self, mv_ctx):
        assert eval_closed(parse("unit ; counit"), mv_ctx) == \
            MultiPoly.const(mv_ctx.algebra.gens, 0)

    def test_open_expression_rejected(self, mv_ctx):
        with pytest.raises(ArityError, match="not closed"):
            eval_closed(parse("mul ; counit"), mv_ctx)

    @pytest.mark.parametrize("make_ctx", [
        lambda: BranchContext(mv_algebra(), mv_theta()),
        lambda: BranchContext(truncated_algebra(3), lie_theta(3)),
        lambda: BranchContext(truncated_algebra(5), lie_theta(5)),
    ])
    def test_theta_diagram_all_triples(self, make_ctx):
        ctx = make_ctx()
        A = ctx.algebra
        n = A.rank
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    li, lj, lk = (A.basis_labels[t] for t in (i, j, k))
                    src = (f"((unit;label({li})) * (unit;label({lj})) * "
                           f"(unit;label({lk}))) ; (id * bmul) ; mul ; counit")
                    expected = ctx.theta.eval(
                        A.basis_element(i), A.basis_element(j), A.basis_element(k))
                    assert eval_closed(parse(src), ctx) == expected

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_id_compiles_to_identity_at_every_rank(self, rank):
        ctx = BranchContext(
            truncated_algebra(rank), ThetaTable((), rank, {}))
        assert compile_diagram(parse("id"), ctx) == \
            LinearMap.identity((), rank, 1)


PRIMITIVES = {
    0: ["unit"],
    1: ["id", "comul", "counit", "bcomul", "label(X)"],
    2: ["mul", "swap", "bmul"],
}


def random_expr(rng, in_arity, depth):
    """A random well-typed expression with exactly the given input arity."""
    if in_arity > 2:
        split = rng.randint(1, in_arity - 1)
        return Tensor([
            random_expr(rng, split, max(depth - 1, 0)),
            random_expr(rng, in_arity - split, max(depth - 1, 0)),
        ])
    if depth == 0:
        return parse(rng.choice(PRIMITIVES[in_arity]))
    kind = rng.choice(["compose", "tensor", "leaf"])
    if kind == "leaf":
        return parse(rng.choice(PRIMITIVES[in_arity]))
    if kind == "tensor":
        split = rng.randint(0, in_arity)
        return Tensor([
            random_expr(rng, split, depth - 1),
            random_expr(rng, in_arity - split, depth - 1),
        ])
    first = random_expr(rng, in_arity, depth - 1)
    _, mid = typecheck(first)
    if mid > 3:
        return first
    second = random_expr(rng, mid, depth - 1)
    return Compose([first, second])


def whole_map(e, ctx):
    """The matrix of `e` built whole: each tensor as the Kronecker product
    and each composition as the matrix product of its parts' matrices."""
    if isinstance(e, Generator):
        return compile_diagram(e, ctx)
    maps = [whole_map(p, ctx) for p in e.parts]
    return reduce(operator.matmul if isinstance(e, Tensor)
                  else operator.rshift, maps)


class TestChains:
    def test_chains_match_whole_maps(self, small_ctx, mv_ctx):
        # Random trees put compositions of unequal depth side by side.
        rng = random.Random(20261018)
        for ctx, count in ((small_ctx, 150), (mv_ctx, 40)):
            for _ in range(count):
                e = random_expr(rng, rng.randint(0, 3), 3)
                assert compile_diagram(e, ctx) == whole_map(e, ctx), pretty(e)

    def test_compositions_inside_tensors(self, mv_ctx):
        for src in [
            "(unit ; counit) * id",
            "id * (unit ; label(X) ; counit) * swap",
            "(comul ; (id * comul) ; (mul * id) ; mul) * (swap ; bmul)",
            "((unit ; comul) * (unit ; bcomul ; swap ; mul)) ; (bmul * id)",
            "(bcomul_skein ; bmul) * (bcomul_skein ; (label(X) * id) ; bmul)",
        ]:
            e = parse(src)
            assert compile_diagram(e, mv_ctx) == whole_map(e, mv_ctx), src


class TestInterchange:
    def test_interchange_law(self, small_ctx):
        rng = random.Random(20240817)
        checked = 0
        while checked < 120:
            f = random_expr(rng, rng.randint(0, 2), 2)
            g = random_expr(rng, rng.randint(0, 2), 2)
            _, f_out = typecheck(f)
            _, g_out = typecheck(g)
            if f_out > 2 or g_out > 2:
                continue
            h = random_expr(rng, f_out, 1)
            k = random_expr(rng, g_out, 1)
            lhs = compile_diagram(
                Compose([Tensor([f, g]), Tensor([h, k])]), small_ctx)
            rhs = compile_diagram(
                Tensor([Compose([f, h]), Compose([g, k])]), small_ctx)
            assert lhs == rhs
            checked += 1
        assert checked >= 100

    def test_functoriality_on_corpus(self, mv_ctx):
        # compiling a composition equals composing the compiled pieces
        for src_f, src_g in [
            ("comul", "mul"),
            ("bcomul", "bmul"),
            ("swap", "mul"),
            ("comul", "swap"),
            ("unit", "comul"),
        ]:
            f, g = parse(src_f), parse(src_g)
            whole = compile_diagram(Compose([f, g]), mv_ctx)
            parts = compile_diagram(f, mv_ctx) >> compile_diagram(g, mv_ctx)
            assert whole == parts


class TestColumnSources:
    """`side`, the column-source layer that compiles law sides: its
    reported supports, its rotated terms, and the `theta` and `delta_one`
    generators, on `mv`."""

    exprs = TestRoundTrip.exprs

    @staticmethod
    def small(e):
        """The arity of a well-typed `e` with few enough legs to walk every
        column, or None."""
        try:
            ins, outs = typecheck(e)
        except ArityError:
            return None
        return (ins, outs) if ins + outs <= 5 else None

    @settings(max_examples=60, deadline=None)
    @given(exprs, st.data())
    def test_columns_outside_the_support_are_zero(self, mv_ctx, e, data):
        arity = self.small(e)
        assume(arity is not None)
        ins = arity[0]
        s = data.draw(st.integers(0, max(ins - 1, 0)), label="rotation")
        summed = side(mv_ctx, [(1, s, pretty(e)), (-2, 0, pretty(e))])
        support = summed.support()
        if support is None:
            return
        for c in range(mv_ctx.algebra.rank ** ins):
            if c not in support:
                assert summed.get(c) == {}

    def test_permuted_term(self, mv_ctx):
        """A term (a, s, d) with s = 1 maps (x_0, x_1) to a * d(x_1, x_0)."""
        A = mv_ctx.algebra
        n = A.rank
        rotated = side(mv_ctx, [(3, 1, "bmul")])
        m = mv_ctx.bracket_map
        for i in range(n):
            for j in range(n):
                want = {r: 3 * v for r, v in m.cols.get(j * n + i, {}).items()}
                assert rotated.get(i * n + j) == want

    def test_closed_theta_diagram(self, mv_ctx):
        A = mv_ctx.algebra
        elems = ["1", "X", "X^2", "a*X + b", "X - 1"]
        for u, v, w in [(u, v, w) for u in elems for v in elems
                        for w in elems[:3]]:
            src = (f"(unit;label({u})) * (unit;label({v})) * "
                   f"(unit;label({w})) ; theta")
            assert eval_closed(parse(src), mv_ctx) == mv_ctx.theta.eval(
                A.parse_element(u), A.parse_element(v), A.parse_element(w))

    @pytest.mark.parametrize("make_ctx", [
        lambda: BranchContext(mv_algebra(), mv_theta()),
        lambda: BranchContext(truncated_algebra(5), lie_theta(5)),
    ])
    def test_delta_one_is_the_neck(self, make_ctx):
        ctx = make_ctx()
        assert compile_diagram(parse("delta_one"), ctx) == \
            compile_diagram(parse("unit ; comul"), ctx)


class TestRotation:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rotation_reorders_the_legs(self, n):
        """Rotation by s sends the k legs x at column c to (x_s, ..., x_k-1,
        x_0, ..., x_s-1), and the rotation by k - s undoes it."""
        for k in range(1, 5):
            for s in range(k):
                rotate, back = _rotation(s, k, n), _rotation(k - s, k, n)
                for c in range(n ** k):
                    x = _unflat(c, n, k)
                    want = reduce(lambda acc, d: acc * n + d, x[s:] + x[:s], 0)
                    assert rotate(c) == want, (k, s, c)
                    assert back(want) == c, (k, s, c)


def group_ctx():
    A = group_ring([2, 2, 2])
    return BranchContext(A, derive_bialgebra_theta(A))


class TestSharedCompiler:
    """Every law and diagram on a context is compiled over the context's
    one memo, each subtree once."""

    @pytest.mark.parametrize("make_ctx", [
        lambda: BranchContext(truncated_algebra(7), lie_theta(7)),
        group_ctx,
    ], ids=["aN:7/lie", "group:2,2,2/group"])
    def test_one_compiler_per_context(self, monkeypatch, make_ctx):
        ctx = make_ctx()
        make = foamlang._make
        contexts, made = [], []

        def counted_make(ctx, node, parts):
            if not any(c is ctx for c in contexts):
                contexts.append(ctx)  # held, so no two share an id
            made.append((id(ctx), pretty(node)))
            return make(ctx, node, parts)

        monkeypatch.setattr(foamlang, "_make", counted_make)
        reports = run_suite(ctx)
        assert contexts == [ctx]
        assert made and len(made) == len(set(made))
        assert any(r.law == "bialgebra" for r in reports) == \
            isinstance(ctx.algebra, GroupRingAlgebra)
