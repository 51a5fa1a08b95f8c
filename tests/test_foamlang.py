import random

import pytest
from hypothesis import given, strategies as st

from foamalg.branchops import BranchContext, LinearMap
from foamalg.foamlang import (
    ArityError,
    Compose,
    Generator,
    ParseError,
    Tensor,
    compile_diagram,
    eval_closed,
    parse,
    pretty,
    typecheck,
)
from foamalg.frobalg import mv_algebra, truncated_algebra
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


@pytest.fixture(scope="module")
def mv_ctx():
    return BranchContext(mv_algebra(), mv_theta())


@pytest.fixture(scope="module")
def small_ctx():
    # rank 2 keeps generated matrices tiny for the property tests
    return BranchContext(
        truncated_algebra(2),
        ThetaTable.from_entries(2, [((0, 1, 1), 1)]),
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


class TestEvalClosed:
    def test_theta_diagram(self, mv_ctx):
        src = ("((unit;label(1)) * (unit;label(X)) * (unit;label(X^2))) ; "
               "(id * bmul) ; mul ; counit")
        assert eval_closed(parse(src), mv_ctx) == mv_ctx.algebra.scalar(1)

    def test_eps_x_cubed(self, mv_ctx):
        src = "((unit;label(X)) * (unit;label(X^2))) ; mul ; counit"
        value = eval_closed(parse(src), mv_ctx)
        assert str(value) == "-a"

    def test_eps_unit(self, mv_ctx):
        assert eval_closed(parse("unit ; counit"), mv_ctx) == \
            mv_ctx.algebra.scalar(0)

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
            truncated_algebra(rank), ThetaTable.zero(rank))
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
