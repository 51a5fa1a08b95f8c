import pytest
from hypothesis import given, strategies as st

from foamalg.coeffring import MultiPoly, parse_poly

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
        got = scaled.exact_div_int(k)
        assert_canonical(got)
        assert got == naive(p.terms.items())


class TestHelpers:
    def test_exact_div(self):
        assert P("2*a + 4").exact_div_int(2) == P("a + 2")
        with pytest.raises(ValueError, match="not divisible"):
            P("a").exact_div_int(2)

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

    def test_deterministic_term_order(self):
        assert str(P("b + a^2")) == str(P("a^2 + b"))
