import pytest
from hypothesis import example, given, strategies as st

from foamalg.coeffring import EXPONENT_LIMIT, MAX_EXPONENT, MultiPoly, \
    name_degrees, parse_expression, parse_poly
from foamalg.frobalg import _push

GENS = ("a", "b", "c")


def P(src):
    return parse_poly(src, GENS)


class TestMake:
    def test_cancellation(self):
        p = MultiPoly(GENS, [((0, 0, 0), 5), ((0, 0, 0), -5)])
        assert p == MultiPoly.zero(GENS)
        assert not p.terms

    def test_canonical_sum(self):
        p = MultiPoly(GENS, [((1, 0, 0), 1), ((0, 1, 0), 1)])
        assert p == P("a + b")

    def test_canonical_difference_of_squares(self):
        p = MultiPoly(GENS, [((2, 0, 0), 1), ((0, 2, 0), -1)])
        assert p == P("a^2 - b^2")

    def test_wrong_exponent_length(self):
        with pytest.raises(ValueError, match="length"):
            MultiPoly(GENS, [((1, 0), 1)])

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative"):
            MultiPoly(GENS, [((-1, 0, 0), 1)])


class TestArithmetic:
    def test_add_cancels(self):
        assert P("a + b") + P("-a") == P("b")

    def test_additive_identity(self):
        p = P("a^2 - 3*b")
        assert p + MultiPoly.zero(GENS) == p

    def test_add_to_zero(self):
        assert P("a^2 - b^2") + P("b^2 - a^2") == MultiPoly.zero(GENS)

    def test_product_difference_of_squares(self):
        assert P("a + b") * P("a - b") == P("a^2 - b^2")

    def test_multiplicative_identity(self):
        p = P("2*a*b - c^3")
        assert p * MultiPoly.one(GENS) == p

    def test_square_of_sum(self):
        assert P("a + b") * P("a + b") == P("a^2 + 2*a*b + b^2")

    def test_pow(self):
        assert P("a + b") ** 2 == P("a^2 + 2*a*b + b^2")
        assert P("a") ** 0 == MultiPoly.one(GENS)

    def test_int_coercion(self):
        assert P("a") + 1 == P("a + 1")
        assert 2 * P("a") == P("2*a")
        assert 1 - P("a") == P("1 - a")

    def test_generator_mismatch(self):
        with pytest.raises(ValueError, match="generator mismatch"):
            P("a") + parse_poly("x", ("x",))

    def test_big_coefficients_exact(self):
        p = MultiPoly.const(GENS, 10 ** 40)
        assert (p * p).constant_value() == 10 ** 80


polys = st.builds(
    lambda items: MultiPoly(GENS, items),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)


class TestRingAxioms:
    @given(polys, polys)
    def test_commutative_mul(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_associative_mul(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_canonical_idempotent(self, p):
        assert MultiPoly(GENS, p.terms) == p
        assert all(c != 0 for c in p.terms.values())

    @given(polys, polys)
    def test_equality_is_term_map_equality(self, p, q):
        assert (p == q) == (p.terms == q.terms)

    @given(polys | st.integers(-2, 2), polys | st.integers(-2, 2))
    @example(MultiPoly.one(GENS), 1)
    @example(MultiPoly.zero(GENS), 0)
    @example(MultiPoly.const(GENS, -2), MultiPoly.const(GENS, -2))
    def test_equal_values_hash_equal(self, p, q):
        if p == q:
            assert hash(p) == hash(q)

    def test_a_constant_finds_its_int_key(self):
        assert {1: "v"}.get(MultiPoly.one(())) == "v"
        assert {MultiPoly.const(GENS, 3): "v"}.get(3) == "v"


def naive(terms):
    """Term pairs as a list, so that the public constructor canonicalises
    them: sums duplicates, drops zeros and checks every exponent vector."""
    return MultiPoly(GENS, list(terms))


def product_terms(p, q):
    return [(tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in p.terms.items() for eb, cb in q.terms.items()]


def assert_canonical(p):
    assert p.gens == GENS
    for exps, c in p.terms.items():
        assert type(c) is int and c != 0
        assert type(exps) is tuple and len(exps) == len(GENS)
        assert all(type(e) is int and e >= 0 for e in exps)


class TestArithmeticOracle:
    """Arithmetic results skip the public constructor's checks; each must
    equal the same terms canonicalised by it, and be canonical itself."""

    @given(polys, polys)
    def test_sum_and_differences(self, p, q):
        pairs = [
            (p + q, naive([*p.terms.items(), *q.terms.items()])),
            (p - q, naive([*p.terms.items(),
                           *((e, -c) for e, c in q.terms.items())])),
            (-p, naive((e, -c) for e, c in p.terms.items())),
            (p + 3, naive([*p.terms.items(), ((0, 0, 0), 3)])),
            (3 - p, naive([((0, 0, 0), 3),
                           *((e, -c) for e, c in p.terms.items())])),
        ]
        for got, want in pairs:
            assert_canonical(got)
            assert got == want

    @given(polys, polys, st.integers(-3, 3))
    def test_product(self, p, q, k):
        # `polys` rarely draws a constant term, which takes its own path.
        for x, y in ((p, q), (p + k, q), (q, p + k)):
            got = x * y
            assert_canonical(got)
            assert got == naive(product_terms(x, y))
        assert k * p == naive((e, k * c) for e, c in p.terms.items())

    @given(polys)
    def test_product_with_one_is_the_other_factor(self, p):
        one = MultiPoly.one(GENS)
        assert p * one is p
        assert p * 1 is p
        assert 1 * p is p
        # When p is 1 too, the left factor comes back.
        assert one * p is (one if p == one else p)

    @given(polys, st.integers(-4, 4).filter(bool))
    def test_exact_div_int(self, p, k):
        scaled = naive((e, k * c) for e, c in p.terms.items())
        got = scaled.exact_div(k)
        assert_canonical(got)
        assert got == naive(p.terms.items())


WIDE = ("w", "x", "y", "z")
# Exponents at both ends of a byte and of half a packed field; two of them
# add up to at most EXPONENT_LIMIT - 2, so every product stays in range.
wide_exponents = st.sampled_from([0, 1, 2, 255, 256, EXPONENT_LIMIT // 2 - 1])
wide_pairs = st.lists(
    st.tuples(st.tuples(*[wide_exponents] * len(WIDE)), st.integers(-5, 5)),
    max_size=5,
)


def summed(pairs) -> dict:
    """The term map of (exponent vector, coefficient) pairs, by plain dict
    arithmetic on tuples."""
    out = {}
    for exps, c in pairs:
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


def render(gens, terms: dict) -> str:
    """Terms in descending exponent-tuple order, in the polynomial syntax."""
    text = ""
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [g if e == 1 else f"{g}^{e}" for g, e in zip(gens, exps) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        text += (f" {sign} " if text else sign.strip("+")) + "*".join(factors)
    return text or "0"


def render_over_terms(p: MultiPoly) -> str:
    """`str(p)` as it was computed from the unpacked `p.terms` view."""
    def term(exps, coeff):
        factors = []
        for g, e in zip(p.gens, exps):
            if e == 1:
                factors.append(g)
            elif e > 1:
                factors.append(f"{g}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    if not p.terms:
        return "0"
    parts = [term(e, c) for e, c in sorted(p.terms.items(), reverse=True)]
    return " + ".join(parts).replace("+ -", "- ")


# 0 to 4 generators; exponents anywhere below EXPONENT_LIMIT, with the
# small ones that render without `^` or not at all drawn often.
any_exponent = st.sampled_from([0, 1, 2]) | st.integers(0, EXPONENT_LIMIT - 1)
any_width_polys = st.integers(0, 4).flatmap(lambda width: st.builds(
    lambda pairs: MultiPoly(("w", "x", "y", "z")[:width], pairs),
    st.lists(st.tuples(st.tuples(*[any_exponent] * width),
                       st.integers(-3, 3) | st.integers(-10 ** 20, 10 ** 20)),
             max_size=6)))


class TestExactDiv:
    """Leading-term division by an int or a polynomial, exact or ValueError."""

    @given(polys, polys.filter(bool))
    def test_product_divided_by_a_factor(self, p, q):
        got = (p * q).exact_div(q)
        assert_canonical(got)
        assert got == p

    @given(polys, polys.filter(lambda q: q and not q.is_unit()))
    def test_a_non_multiple_raises(self, p, q):
        # q divides p*q + 1 only if it divides 1, that is, only if q = ±1.
        with pytest.raises(ValueError, match="not divisible"):
            (p * q + 1).exact_div(q)

    @given(wide_pairs, wide_pairs.filter(any))
    def test_wide_quotients(self, ps, qs):
        p, q = MultiPoly(WIDE, ps), MultiPoly(WIDE, qs)
        if q:
            assert dict((p * q).exact_div(q).terms) == dict(p.terms)
            if not q.is_unit():
                with pytest.raises(ValueError, match="not divisible"):
                    (p * q + 1).exact_div(q)

    @pytest.mark.parametrize("num, den", [
        # Each field of the dividend's leading monomial must be at least the
        # divisor's: one short field, and no other, makes it no multiple.
        ((256, 255, 0, 0), (255, 256, 0, 0)),
        ((1, 0, 0, 0), (0, 0, 0, 1)),
        ((EXPONENT_LIMIT // 2 - 1, 0, 0, 255), (0, 0, 0, 256)),
        ((2, 0, EXPONENT_LIMIT - 1, 0), (2, 1, 0, 0)),
    ])
    def test_a_field_that_borrows_is_no_multiple(self, num, den):
        p, q = MultiPoly(WIDE, [(num, 6)]), MultiPoly(WIDE, [(den, 2)])
        with pytest.raises(ValueError, match="not divisible"):
            p.exact_div(q)
        with pytest.raises(ValueError, match="not divisible"):
            p.exact_div(q + 1)

    def test_monomial_quotient_at_field_edges(self):
        top = EXPONENT_LIMIT - 1
        p = MultiPoly(WIDE, [((top, 256, 255, top), -12)])
        q = MultiPoly(WIDE, [((0, 255, 255, 1), 4)])
        assert p.exact_div(q) == MultiPoly(WIDE, [((top, 1, 0, top - 1), -3)])

    @given(polys)
    def test_division_by_a_unit(self, p):
        assert p.exact_div(1) is p
        assert p.exact_div(MultiPoly.one(GENS)) is p
        assert p.exact_div(-1) == -p
        assert p.exact_div(MultiPoly.const(GENS, -1)) == -p

    @given(polys)
    def test_division_by_zero(self, p):
        for zero in (0, MultiPoly.zero(GENS)):
            with pytest.raises(ZeroDivisionError):
                p.exact_div(zero)

    def test_other_ring_or_type(self):
        with pytest.raises(ValueError, match="generator mismatch"):
            P("a").exact_div(parse_poly("a", ("a",)))
        with pytest.raises(TypeError):
            P("a").exact_div(1.0)


class TestPackedKernel:
    """Exponent vectors are packed into one int per monomial; the tuple view
    `terms`, rendering, equality and hashing must not show it."""

    @given(wide_pairs)
    def test_terms_round_trip_through_the_constructor(self, pairs):
        p = MultiPoly(WIDE, pairs)
        assert dict(p.terms) == summed(pairs)
        assert MultiPoly(WIDE, p.terms) == p
        assert MultiPoly(WIDE, dict(p.terms)) == p
        with pytest.raises(TypeError):
            p.terms[(0,) * len(WIDE)] = 1

    @given(wide_pairs, wide_pairs)
    def test_product_against_tuple_arithmetic(self, ps, qs):
        # Constant terms take their own path through the product loop.
        for p, q in ((MultiPoly(WIDE, ps), MultiPoly(WIDE, qs)),
                     (MultiPoly(WIDE, ps) + 2, MultiPoly(WIDE, qs)),
                     (MultiPoly(WIDE, ps), MultiPoly(WIDE, qs) - 3)):
            want = summed(product_terms(p, q))
            assert dict((p * q).terms) == want
            got = _push({0: {0: q}}, [(0, p)]).get(0, MultiPoly.zero(WIDE))
            assert dict(got.terms) == want

    def test_constructor_rejects_an_exponent_at_the_limit(self):
        top = EXPONENT_LIMIT - 1
        p = MultiPoly(WIDE, {(top, 0, top, 1): 3})
        assert dict(p.terms) == {(top, 0, top, 1): 3}
        for exps in ((EXPONENT_LIMIT, 0, 0, 0), (0, 0, 0, EXPONENT_LIMIT),
                     (0, 10 ** 9, 0, 0)):
            with pytest.raises(ValueError, match="limit"):
                MultiPoly(WIDE, [(exps, 1)])

    @pytest.mark.parametrize("left, right", [
        ((0, 0, 0, EXPONENT_LIMIT // 2), (0, 0, 0, EXPONENT_LIMIT // 2)),
        ((0, EXPONENT_LIMIT - 1, 0, 0), (0, 1, 0, 0)),
        ((EXPONENT_LIMIT - 1, 0, 0, 1), (1, 0, 0, 0)),
    ])
    def test_a_product_reaching_the_limit_raises(self, left, right):
        """Such a product would be stored with a field's top bit set, and the
        next product could carry into the neighbouring field."""
        p, q = MultiPoly(WIDE, [(left, 1)]), MultiPoly(WIDE, [(right, 2)])
        with pytest.raises(ValueError, match="exponent"):
            p * q
        with pytest.raises(ValueError, match="exponent"):
            _push({0: {0: q}}, [(0, p)])

    def test_product_drops_cancelled_terms(self):
        """`_product` copies the term map only to drop a cancelled term."""
        x, y = MultiPoly.gen(WIDE, "x"), MultiPoly.gen(WIDE, "y")
        assert (x + y) * (x - y) == x * x - y * y
        assert dict(((x + y) * (x - y)).terms) == {
            (0, 2, 0, 0): 1, (0, 0, 2, 0): -1}
        cancelled = {1 << 16: 0, 5: 2, 0: 0}
        got = MultiPoly._product(WIDE, cancelled)
        assert got._packed == {5: 2} and cancelled == {1 << 16: 0, 5: 2, 0: 0}
        assert MultiPoly._product(WIDE, {0: 0}) == MultiPoly.zero(WIDE)
        kept = {1 << 16: 3, 5: -2}
        assert MultiPoly._product(WIDE, kept)._packed is kept

    @given(wide_pairs)
    def test_str_is_rendered_in_tuple_order(self, pairs):
        assert str(MultiPoly(WIDE, pairs)) == render(WIDE, summed(pairs))

    @given(any_width_polys)
    def test_str_matches_rendering_over_terms(self, p):
        assert str(p) == render_over_terms(p)

    def test_str_order_across_fields(self):
        p = MultiPoly(WIDE, [((0, 0, 0, 300), 1), ((0, 1, 0, 0), -2),
                             ((1, 0, 0, 0), 1), ((0, 0, 0, 0), 7)])
        assert str(p) == "w - 2*x + z^300 + 7"

    def test_equal_values_by_different_routes_hash_equal(self):
        def gen(name):
            return MultiPoly.gen(WIDE, name)
        one, x, y = MultiPoly.one(WIDE), gen("x"), gen("y")
        routes = [
            [parse_poly("x*y^2 - 1", WIDE),
             MultiPoly(WIDE, {(0, 1, 2, 0): 1, (0, 0, 0, 0): -1}),
             MultiPoly(WIDE, [((0, 1, 2, 0), 3), ((0, 0, 0, 0), -1),
                              ((0, 1, 2, 0), -2)]),
             x * y * y - one,
             (x + 1) * y ** 2 - y * y - 1,
             -(1 - x * y ** 2),
             parse_poly("y^2*x - 1", ("y", "x")).embed(WIDE),
             _push({0: {0: y * y}}, [(0, x)])[0] - 1],
            [MultiPoly.zero(WIDE), MultiPoly.const(WIDE, 0),
             MultiPoly(WIDE, []), MultiPoly(WIDE, {(3, 0, 0, 0): 0}),
             x - x, x * 0, parse_poly("w - w", WIDE)],
            [MultiPoly.const(WIDE, 5), 5 * one, one + 4, parse_poly("5", WIDE),
             MultiPoly(WIDE, {(0, 0, 0, 0): 5}), (x - x) + 5],
        ]
        for values in routes:
            for p in values:
                assert p == values[0] and hash(p) == hash(values[0])
            assert len({p: None for p in values}) == 1
        assert MultiPoly.const(WIDE, 5) == 5 and MultiPoly.zero(WIDE) == 0


class TestHelpers:
    def test_exact_div(self):
        assert P("2*a + 4").exact_div(2) == P("a + 2")
        with pytest.raises(ValueError, match="not divisible"):
            P("a").exact_div(2)

    def test_is_unit(self):
        assert P("1").is_unit() and P("-1").is_unit()
        assert not P("2").is_unit()
        assert not P("a").is_unit()

    def test_embed(self):
        p = P("a + 2")
        q = p.embed(("b", "a"))
        assert q == parse_poly("a + 2", ("b", "a"))
        with pytest.raises(ValueError, match="not present"):
            P("c").embed(("a", "b"))

    def test_embed_constant_into_empty_ring(self):
        assert P("-3").embed(()) == MultiPoly.const((), -3)


class TestTextSyntax:
    @pytest.mark.parametrize("src", [
        "a^2 + b", "-3", "2*a*b", "a^2 - b^2", "-a + 3*b*c^2 - 7", "0", "1",
    ])
    def test_round_trip(self, src):
        p = P(src)
        assert parse_poly(str(p), GENS) == p

    @given(polys)
    def test_round_trip_generated(self, p):
        assert parse_poly(str(p), GENS) == p

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            P("a + q")

    def test_malformed(self):
        with pytest.raises(ValueError, match="column"):
            P("a + + b")
        with pytest.raises(ValueError, match="column"):
            P("a *")

    def test_exponent_bound_per_product_term(self):
        k = MAX_EXPONENT
        assert P(f"a^{k} * b^{k} - a^{k}") == \
            P(f"a^{k}") * P(f"b^{k}") - P(f"a^{k}")
        assert P("*".join(["a"] * k)) == P(f"a^{k}")
        for src in (f"a^{k} * a", "a^60 * a^60", "*".join(["a"] * (k + 1)),
                    f"b + c * a^{k - 1} * 2 * a^2", f"2^{k + 1}"):
            with pytest.raises(ValueError,
                               match=f"exceeds the maximum {MAX_EXPONENT}"):
                P(src)

    def test_name_degrees(self):
        assert name_degrees("a^3*b + 2^9*a*a - X^2*X*a") == \
            {"a": 3, "b": 1, "X": 3}
        assert name_degrees("7") == {}

    def test_exponent_bound_is_checked_before_any_power(self, monkeypatch):
        # The bound is checked on the parsed term, before a value exists:
        # parse_poly wraps no polynomial for `x^60 * x^60`.
        names, built = [], []
        with pytest.raises(ValueError,
                           match="exponent 120 at column 10 exceeds"):
            parse_expression("x^60 * x^60", check_name=names.append)
        assert names == ["x", "x"]
        monkeypatch.setattr(MultiPoly, "_canonical", classmethod(
            lambda cls, gens, packed: built.append(packed)))
        with pytest.raises(ValueError,
                           match="exponent 120 at column 10 exceeds"):
            parse_poly("x^60 * x^60", ("x",))
        assert built == []

    def test_parse_expression_returns_product_terms(self):
        # Signs and integer factors fold into the coefficient; a name's
        # exponents add up over its term's factors.
        terms = parse_expression("-2*x^2*3*y*x + 5 - y^0 + 2^3",
                                 check_name=lambda name: None)
        assert terms == [(-6, {"x": 3, "y": 1}), (5, {}), (-1, {"y": 0}),
                         (8, {})]

    def test_deterministic_term_order(self):
        assert str(P("b + a^2")) == str(P("a^2 + b"))
