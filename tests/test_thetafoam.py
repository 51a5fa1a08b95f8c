import itertools

import pytest
from hypothesis import given, strategies as st

from foamalg.coeffring import MultiPoly
from foamalg.frobalg import AlgebraElement, algebra_from_modulus, \
    mv_algebra, truncated_algebra
from foamalg.thetafoam import ThetaTable, lie_theta, mv_theta


def const(v, gens=()):
    return MultiPoly.const(gens, v)


def is_cyclic(table: ThetaTable) -> bool:
    """Exhaustive check of cyclic symmetry over all rank^3 triples."""
    for i, j, k in itertools.product(range(table.rank), repeat=3):
        v = table.value(i, j, k)
        if v != table.value(j, k, i) or v != table.value(k, i, j):
            return False
    return True


class TestFromTable:
    def test_cyclic_closure(self):
        t = ThetaTable((), 3, [((0, 1, 2), 1)])
        for triple in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert t.value(*triple) == const(1)
        assert t.value(0, 2, 1) == const(0)
        assert len(t.entries) == 3

    def test_cyclic_conflict(self):
        with pytest.raises(ValueError, match="cyclic symmetry conflict"):
            ThetaTable((), 3, [((0, 1, 2), 1), ((1, 2, 0), -1)])

    @pytest.mark.parametrize("entries", [
        [((0, 1, 2), 5), ((1, 2, 0), 0)],
        [((1, 2, 0), 0), ((0, 1, 2), 5)],
    ])
    def test_zero_entry_conflicts_with_its_orbit(self, entries):
        # An explicit zero counts: it is not dropped before the orbit closes.
        with pytest.raises(ValueError, match="cyclic symmetry conflict"):
            ThetaTable((), 3, entries)

    def test_zero_entries_are_not_stored(self):
        t = ThetaTable((), 3, [((0, 1, 2), 0), ((1, 2, 0), 0),
                               ((0, 2, 1), 1)])
        assert set(t.entries) == {(0, 2, 1), (2, 1, 0), (1, 0, 2)}

    def test_empty(self):
        t = ThetaTable((), 4, [])
        assert all(
            t.value(i, j, k) == const(0)
            for i in range(4) for j in range(4) for k in range(4)
        )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ThetaTable((), 3, [((0, 1, 3), 1)])

    def test_out_of_range_evaluates_to_zero(self):
        t = ThetaTable((), 3, [((0, 1, 2), 1)])
        assert t.value(-1, 1, 2) == const(0)
        assert t.value(0, 1, 5) == const(0)


class TestLieTheta:
    def test_n3_values(self):
        t = lie_theta(3)
        assert t.value(0, 1, 2) == const(1)
        assert t.value(0, 2, 1) == const(-1)
        assert t.value(1, 1, 1) == const(0)

    def test_n5_values(self):
        t = lie_theta(5)
        assert t.value(0, 2, 3) == const(1)
        assert t.value(0, 3, 2) == const(-1)
        assert t.value(0, 1, 4) == const(0)

    @pytest.mark.parametrize("n", [4, 0, 1, -3, 2])
    def test_even_or_small_rejected(self, n):
        with pytest.raises(ValueError, match="odd N > 1"):
            lie_theta(n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_cyclic_symmetry_exhaustive(self, n):
        assert is_cyclic(lie_theta(n))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_antisymmetric_in_last_two(self, n):
        t = lie_theta(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert t.value(i, j, k) == -t.value(i, k, j)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_nontrivial(self, n):
        assert lie_theta(n).entries


class TestMvTheta:
    def test_values(self):
        A = mv_algebra()
        t = mv_theta()
        one, X, X2 = (A.basis_element(i) for i in range(3))
        assert t.eval(one, X, X2) == MultiPoly.const(A.gens, 1)
        assert t.eval(one, X2, X) == MultiPoly.const(A.gens, -1)
        assert t.eval(X, X, X) == MultiPoly.const(A.gens, 0)

    def test_cyclic(self):
        assert is_cyclic(mv_theta())


class TestEval:
    def test_trilinear_combination(self):
        A = mv_algebra()
        t = mv_theta()
        one = A.unit
        X = A.basis_element(1)
        X2 = A.basis_element(2)
        assert t.eval(one, X + X2, X2) == MultiPoly.const(A.gens, 1)

    def test_zero_argument(self):
        A = mv_algebra()
        t = mv_theta()
        assert t.eval(A.zero, A.basis_element(1), A.basis_element(2)) == \
            const(0, A.gens)

    def test_lie_cyclic_image(self):
        A = truncated_algebra(3)
        t = lie_theta(3)
        X2, one, X = A.basis_element(2), A.basis_element(0), A.basis_element(1)
        assert t.eval(X2, one, X) == MultiPoly.one(())

    def test_rank_mismatch(self):
        A = truncated_algebra(4)
        with pytest.raises(ValueError, match="rank mismatch"):
            lie_theta(3).eval(A.unit, A.unit, A.unit)

    def test_elements_of_two_algebras(self):
        # B has A's rank and ring but is another algebra, so the elements
        # do not share one coefficient vector space.
        A = truncated_algebra(3)
        B = algebra_from_modulus((), [1, 0, 0, 1], [0, 0, 1])
        with pytest.raises(ValueError, match="algebra mismatch"):
            lie_theta(3).eval(A.basis_element(0), B.basis_element(1),
                              A.basis_element(2))

    small = st.integers(-3, 3)

    @given(small, small, small, small)
    def test_linearity_each_argument(self, c1, c2, c3, c4):
        A = truncated_algebra(3)
        t = lie_theta(3)
        u1 = AlgebraElement(A, [c1, c2, 0])
        u2 = AlgebraElement(A, [0, c3, c4])
        v, w = A.basis_element(1), A.basis_element(2)
        assert t.eval(u1 + u2, v, w) == t.eval(u1, v, w) + t.eval(u2, v, w)
        assert t.eval(v, u1 + u2, w) == t.eval(v, u1, w) + t.eval(v, u2, w)
        assert t.eval(v, w, u1 + u2) == t.eval(v, w, u1) + t.eval(v, w, u2)


triples = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


class TestClosureProperty:
    @given(st.lists(st.tuples(triples, st.integers(-2, 2)), max_size=5))
    def test_closure_is_cyclic_or_conflicts(self, entries):
        try:
            table = ThetaTable((), 4, entries)
        except ValueError:
            return
        assert is_cyclic(table)

    @given(st.lists(st.tuples(triples, st.integers(-2, 2)), max_size=5))
    def test_closure_idempotent(self, entries):
        try:
            table = ThetaTable((), 4, entries)
        except ValueError:
            return
        again = ThetaTable((), 4, list(table.entries.items()))
        assert again == table


class TestEmbed:
    def test_into_named_ring(self):
        t = lie_theta(3).embed(("a", "b", "c"))
        assert t.gens == ("a", "b", "c")
        assert t.value(0, 1, 2) == const(1, ("a", "b", "c"))

    def test_identity_embed(self):
        t = mv_theta()
        assert t.embed(("a", "b", "c")) is t
