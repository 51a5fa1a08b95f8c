import itertools
from math import gcd, lcm

import pytest

from foamalg.branchops import BranchContext
from foamalg.coeffring import MultiPoly
from foamalg.frobalg import FrobeniusAlgebra, LinearMap, TensorElement, \
    truncated_algebra
from foamalg.groupfoam import (
    FiniteAbelianGroup,
    check_bialgebra,
    derive_bialgebra_theta,
    group_ring,
    hopf_delta,
)
from foamalg.thetafoam import ThetaTable


def element_order(g: FiniteAbelianGroup, i: int) -> int:
    """The order of element i: the lcm of its residues' orders."""
    return lcm(*(o // gcd(r, o) for r, o in zip(g.residues(i), g.orders)))


class TestGroup:
    def test_indexing_round_trip(self):
        g = FiniteAbelianGroup([2, 3])
        for i in range(g.size):
            assert g.index(g.residues(i)) == i

    def test_operation(self):
        g = FiniteAbelianGroup([4])
        assert g.add(g.index([3]), g.index([2])) == g.index([1])
        assert g.inverse(g.index([1])) == g.index([3])

    def test_element_orders(self):
        g = FiniteAbelianGroup([2, 3])
        orders = sorted(element_order(g, i) for i in range(g.size))
        assert orders == [1, 2, 3, 3, 6, 6]

    def test_add_is_residue_wise(self):
        g = FiniteAbelianGroup([2, 3, 4])
        for i, j in itertools.product(range(g.size), repeat=2):
            sums = (a + b for a, b in zip(g.residues(i), g.residues(j)))
            assert g.add(i, j) == g.index(sums)

    def test_bad_orders(self):
        with pytest.raises(ValueError, match="at least 2"):
            FiniteAbelianGroup([2, 1])


class TestGroupRing:
    def test_z2(self):
        A = group_ring([2])
        assert A.basis_labels == ("1", "x")
        x = A.parse_element("x")
        assert A.mul(x, x) == A.unit
        assert A.delta_one == A.tensor(A.unit, A.unit) + A.tensor(x, x)

    def test_z3(self):
        A = group_ring([3])
        x = A.parse_element("x")
        x2 = A.parse_element("x^2")
        assert A.delta_one == (
            A.tensor(A.unit, A.unit) + A.tensor(x, x2) + A.tensor(x2, x)
        )

    def test_z2z2_self_inverse(self):
        A = group_ring([2, 2])
        assert A.rank == 4
        for i in range(4):
            assert A.group.inverse(i) == i
            assert A.mul_basis(i, i) == A.unit

    def test_dual_basis_is_inverse(self):
        for orders in ([2], [3], [4], [2, 2], [2, 3]):
            A = group_ring(orders)
            for i in range(A.rank):
                assert A.dual_basis[i] == A.basis_element(A.group.inverse(i))

    def test_delta_one_is_inverse_pairing(self):
        for orders in ([2], [3], [5], [2, 2], [2, 4]):
            A = group_ring(orders)
            expected = TensorElement(A, 2, {})
            for y in range(A.rank):
                expected = expected + A.tensor(
                    A.basis_element(y),
                    A.basis_element(A.group.inverse(y)),
                )
            assert A.delta_one == expected

    def test_size_bound(self):
        with pytest.raises(ValueError, match="exceeds"):
            group_ring([5, 5, 3])

    def test_largest_supported_size(self):
        A = group_ring([2] * 6)
        assert A.rank == 64
        assert A.dual_basis[5] == A.basis_element(5)
        assert A.gram_det == MultiPoly.const(A.gens, 1)

    def test_counit(self):
        A = group_ring([2, 2])
        assert A.counit(A.unit) == MultiPoly.const(A.gens, 1)
        for i in range(1, 4):
            assert A.counit(A.basis_element(i)) == MultiPoly.const(A.gens, 0)

    def test_group_powers_reduce(self):
        A = group_ring([2])
        assert A.parse_element("x^3") == A.parse_element("x")
        assert A.parse_element("x^2") == A.unit

    def test_named_coefficient_ring(self):
        A = group_ring([2], generators=("q",))
        x = A.parse_element("x")
        scaled = A.parse_element("q*x")
        assert scaled == x.scale(A.parse_element("q").coeffs[0])
        theta = derive_bialgebra_theta(A)
        assert theta.gens == ("q",)
        report = check_bialgebra(BranchContext(A, theta))
        assert report.passed


def _order_tuples(limit, nondecreasing):
    """Every tuple of cyclic orders (each at least 2) whose product is at
    most `limit`, or only the nondecreasing ones."""
    out = []

    def extend(prefix, size):
        if prefix:
            out.append(prefix)
        low = prefix[-1] if nondecreasing and prefix else 2
        for o in range(low, limit // size + 1):
            extend(prefix + (o,), size * o)

    extend((), 1)
    return out


# Every ordering up to 16 elements, every nondecreasing tuple up to 64.
TENSOR_SPECS = sorted(set(_order_tuples(16, False))
                      | set(_order_tuples(64, True)))

VALIDATED_SPECS = [(2,) * 3, (2,) * 4, (2,) * 5, (2,) * 6, (4, 4, 4), (8, 8),
                   (64,), (3, 2, 5)]


class TestTensorConstruction:
    """A product of cyclic groups with at least four elements outside its
    largest factor is built as the tensor product of its cyclic group
    rings, and only the factors run Light's test, so the built ring is
    pinned here against the group law and the base-class checks."""

    def test_spec_count(self):
        assert len(TENSOR_SPECS) == 209

    @pytest.mark.parametrize("orders, gens", [
        *((o, ()) for o in TENSOR_SPECS),
        # Over Z[a], on both routes.
        *((o, ("a",)) for o in [(2, 3), (2, 2, 2), (4, 4)]),
    ], ids=lambda p: ",".join(map(str, p)))
    def test_matches_the_group_law(self, orders, gens):
        A = group_ring(orders, gens)
        g, n = A.group, A.rank
        one, zero = MultiPoly.one(gens), MultiPoly.zero(gens)
        assert n == g.size
        assert A.mul_map.cols == {i * n + j: {g.add(i, j): one}
                                  for i in range(n) for j in range(n)}
        assert A.counit_vec == (one,) + (zero,) * (n - 1)
        assert A.dual_map.cols == {i: {g.inverse(i): one} for i in range(n)}
        pairs = sum(1 for i in range(n) if g.inverse(i) > i)
        assert A.gram_det == MultiPoly.const(gens, (-1) ** pairs)

    @pytest.mark.parametrize("orders", VALIDATED_SPECS,
                             ids=lambda o: ",".join(map(str, o)))
    def test_passes_the_base_class_checks(self, orders):
        A = group_ring(orders)
        indices = A.generator_indices()
        assert indices == tuple(sorted(A.group._strides))
        FrobeniusAlgebra._validate_algebra(A)
        FrobeniusAlgebra._validate_frobenius(A)
        assert A.generator_indices() == indices

    @pytest.mark.parametrize("orders", [(2, 3), (2, 2, 2), (4, 4)])
    def test_a_replaced_table_is_checked_in_full(self, orders):
        """Only construction takes the theorem's word: a later check of a
        table, here one with e1 * e1 changed to e1 on both rings, runs
        Light's test."""
        A = group_ring(orders)
        cols = dict(A.mul_map.cols)
        cols[A.rank + 1] = {1: MultiPoly.one(())}
        A.mul_map = LinearMap((), A.rank, 2, 1, cols)
        assert A.generator_indices() is None
        with pytest.raises(ValueError, match="not associative"):
            A._validate_algebra()

    def test_generator_indices_of_group_2_4(self):
        assert group_ring([2] * 4).generator_indices() == (1, 2, 4, 8)

    @pytest.mark.parametrize("orders, built", [
        ([64], [64]), ([2] * 6, [2, 64]), ([4, 4, 4], [4, 64]),
        ([3, 2, 5], [2, 3, 5, 30]), ([2, 3, 2], [2, 3, 12]),
        ([4, 4], [4, 16]), ([2, 2, 16], [2, 16, 64]),
        # Fewer than four elements outside the largest factor: validated
        # whole.
        ([2, 2], [4]), ([2, 3], [6]), ([3, 3], [9]), ([4, 3], [12]),
        ([3, 12], [36]), ([2, 32], [64]),
    ])
    def test_each_order_is_built_once(self, monkeypatch, orders, built):
        """Every validated algebra that construction builds, by rank."""
        ranks = []
        init = FrobeniusAlgebra.__init__

        def counting_init(self, gens, labels, *args, **kwargs):
            ranks.append(len(labels))
            init(self, gens, labels, *args, **kwargs)

        monkeypatch.setattr(FrobeniusAlgebra, "__init__", counting_init)
        group_ring(orders)
        assert sorted(ranks) == built


class TestHopfDelta:
    def test_basis_element(self):
        A = group_ring([2])
        x = A.parse_element("x")
        assert hopf_delta(A, x) == A.tensor(x, x)

    def test_linear(self):
        A = group_ring([2])
        x = A.parse_element("x")
        u = A.unit + x
        assert hopf_delta(A, u) == A.tensor(A.unit, A.unit) + A.tensor(x, x)

    def test_zero(self):
        A = group_ring([2])
        assert not hopf_delta(A, A.zero)

    def test_needs_a_group_ring(self):
        A = truncated_algebra(3)
        with pytest.raises(TypeError,
                           match="hopf_delta needs a group ring algebra"):
            hopf_delta(A, A.unit)


class TestDeriveTheta:
    def test_z2(self):
        A = group_ring([2])
        t = derive_bialgebra_theta(A)
        for g in range(2):
            assert t.value(g, g, g) == MultiPoly.const(A.gens, 1)
        assert len(t.entries) == 2

    def test_z2_cubed(self):
        A = group_ring([2, 2, 2])
        t = derive_bialgebra_theta(A)
        assert len(t.entries) == 8
        assert all(i == j == k for (i, j, k) in t.entries)

    @pytest.mark.parametrize("orders", [[3], [4], [6], [2, 3]])
    def test_higher_order_rejected(self, orders):
        A = group_ring(orders)
        with pytest.raises(ValueError, match="order > 2"):
            derive_bialgebra_theta(A)

    def test_iff_exponent_two(self):
        singles = [[o] for o in (2, 3, 4, 5)]
        pairs = [list(p) for p in itertools.product((2, 3, 4, 5), repeat=2)]
        for orders in singles + pairs + [[2, 2, 2]]:
            A = group_ring(orders)
            if all(o == 2 for o in orders):
                table = derive_bialgebra_theta(A)
                assert len(table.entries) == A.rank
            else:
                with pytest.raises(ValueError):
                    derive_bialgebra_theta(A)


class TestCheckBialgebra:
    @pytest.mark.parametrize("orders", [[2], [2, 2], [2, 2, 2]])
    def test_exponent_two_passes(self, orders):
        A = group_ring(orders)
        ctx = BranchContext(A, derive_bialgebra_theta(A))
        report = check_bialgebra(ctx)
        assert report.passed
        n = A.rank
        assert report.checked_cases == n + n * n + 2 * n

    def test_cocomul_matches_diagonal(self):
        A = group_ring([2, 2])
        ctx = BranchContext(A, derive_bialgebra_theta(A))
        for g in range(A.rank):
            eg = A.basis_element(g)
            assert ctx.cocomul(eg) == A.tensor(eg, eg)

    def test_wrong_theta_fails(self):
        A = group_ring([2])
        t = ThetaTable(A.gens, 2, [((0, 0, 0), 1)])
        ctx = BranchContext(A, t)
        report = check_bialgebra(ctx)
        assert not report.passed
        assert report.counterexample["inputs"] == ["x"]
        assert report.counterexample["sublaw"] == "cocomul equals diagonal"
