"""Cycle constructions, the lower-bound basis, and its independence
certificate."""

import random

import pytest

from corpus import permutation_racks, random_chain
from rackhom.chains import Chain, DegreeTooLarge, apply_boundary
from rackhom.closed_forms import betti
from rackhom.cycles import (
    CycleRecipe,
    DifferenceFactor,
    MixedDegrees,
    NotFixedPoint,
    OrbitAverageFactor,
    TerminalFactor,
    basis_recipes,
    cycle_basis,
    difference_product,
    fixed_point_square,
    independence_certificate,
    orbit_average,
)
from rackhom.homology import is_cycle
from rackhom.racks import (
    NotPermutation,
    PermutationSpec,
    as_permutation,
    dihedral_rack,
    permutation_rack,
)

RACK_01 = permutation_rack(PermutationSpec((2,)))
RACK_01_2 = permutation_rack(PermutationSpec((2, 1)))  # orbits {0,1}, {2}
# Detection merges the monomials of each orbit, so the certificate's columns
# share leading entries and its rank needs real column updates.
RACK_012_3 = permutation_rack(PermutationSpec((3, 1)))  # orbits {0,1,2}, {3}


class TestDifferenceProduct:
    def test_bare_terminal(self):
        assert difference_product(RACK_01_2, [], 1) == Chain.monomial((1,))

    def test_one_pair(self):
        chain = difference_product(RACK_01_2, [(0, 2)], 0)
        assert chain == Chain(2, {(0, 0): 1, (2, 0): -1})
        assert is_cycle(RACK_01_2, chain)

    def test_equal_pair_collapses(self):
        assert not difference_product(RACK_01_2, [(1, 1)], 0)

    def test_expansion_size(self):
        rack = permutation_rack(PermutationSpec((1, 1, 1)))
        chain = difference_product(rack, [(0, 1), (0, 2), (1, 2)], 0)
        assert len(chain) == 8
        assert set(chain._coeffs.values()) == {1, -1}
        assert is_cycle(rack, chain)

    def test_rejects_non_permutation(self):
        with pytest.raises(NotPermutation):
            difference_product(dihedral_rack(3), [(0, 1)], 0)


class TestFixedPointSquare:
    def test_prepends_twice(self):
        chain = fixed_point_square(RACK_01_2, 2, Chain(1, {(0,): 1, (1,): -1}))
        assert chain == Chain(3, {(2, 2, 0): 1, (2, 2, 1): -1})
        assert is_cycle(RACK_01_2, chain)

    def test_cycle_from_degree_one(self):
        chain = fixed_point_square(RACK_01_2, 2, Chain.monomial((0,)))
        assert chain.degree == 3
        assert is_cycle(RACK_01_2, chain)

    def test_zero(self):
        assert not fixed_point_square(RACK_01_2, 2, Chain.zero(2))

    def test_rejects_moving_point(self):
        with pytest.raises(NotFixedPoint):
            fixed_point_square(RACK_01_2, 0, Chain.monomial((0,)))

    def test_commutes_with_boundary_on_any_chain(self):
        # d(t²·w) = t²·d(w) even when w is not a cycle
        rng = random.Random(8)
        for rack in permutation_racks(4):
            phi = as_permutation(rack)
            fixed = [t for t in range(rack.size) if phi[t] == t]
            for t in fixed:
                for degree in range(1, 4):
                    w = random_chain(rng, rack, degree)
                    lhs = apply_boundary(rack, fixed_point_square(rack, t, w))
                    rhs = fixed_point_square(rack, t, apply_boundary(rack, w))
                    assert lhs == rhs


class TestOrbitAverage:
    def test_fixed_point_reduces_to_square(self):
        c = Chain(1, {(0,): 1, (1,): -2})
        assert orbit_average(RACK_01_2, 2, c) == fixed_point_square(RACK_01_2, 2, c)

    def test_two_cycle_example(self):
        result = orbit_average(RACK_01, 0, Chain.monomial((0,)))
        assert result == Chain(3, {(0, 0, 0): 1, (0, 1, 1): 1})
        assert is_cycle(RACK_01, result)

    def test_zero(self):
        assert not orbit_average(RACK_01, 0, Chain.zero(1))

    def test_commutes_with_boundary_on_any_chain(self):
        rng = random.Random(9)
        for rack in permutation_racks(5):
            for t in range(rack.size):
                w = random_chain(rng, rack, rng.randint(1, 3))
                lhs = apply_boundary(rack, orbit_average(rack, t, w))
                rhs = orbit_average(rack, t, apply_boundary(rack, w))
                assert lhs == rhs

    def test_rejects_non_permutation(self):
        with pytest.raises(NotPermutation):
            orbit_average(dihedral_rack(3), 0, Chain.monomial((0,)))


class TestDifferenceIdentity:
    def test_boundary_anticommutes(self):
        # d((x-y)·w) = -(x-y)·d(w)
        rng = random.Random(10)
        for rack in permutation_racks(5):
            for _ in range(3):
                x, y = rng.randrange(rack.size), rng.randrange(rack.size)
                w = random_chain(rng, rack, rng.randint(1, 3))
                lhs = apply_boundary(rack, w.prepend(x) - w.prepend(y))
                dw = apply_boundary(rack, w)
                rhs = -(dw.prepend(x) - dw.prepend(y))
                assert lhs == rhs


class TestCycleRecipe:
    def test_terminal_must_come_last(self):
        with pytest.raises(ValueError):
            CycleRecipe(RACK_01_2, (TerminalFactor(0), DifferenceFactor(2, 0)))

    def test_degrees(self):
        recipe = CycleRecipe(
            RACK_01_2,
            (DifferenceFactor(2, 0), OrbitAverageFactor(0, 2), TerminalFactor(2)),
        )
        assert recipe.degree == 4
        assert recipe.evaluate().degree == 4

    def test_describe(self):
        assert CycleRecipe(RACK_01_2).describe() == "1"
        recipe = CycleRecipe(
            RACK_01_2, (DifferenceFactor(2, 0), OrbitAverageFactor(2, 1), TerminalFactor(0))
        )
        assert recipe.describe() == "(2-0)·avg(2)·(0)"

    def test_empty_recipe_evaluates_to_unit(self):
        assert CycleRecipe(RACK_01_2).evaluate() == Chain.monomial(())


class TestBasisRecipes:
    def test_degree_zero_and_one(self):
        assert [r.describe() for r in basis_recipes(RACK_01_2, 0)] == ["1"]
        assert [r.describe() for r in basis_recipes(RACK_01_2, 1)] == ["(0)", "(2)"]

    def test_degree_two_content(self):
        chains = cycle_basis(RACK_01_2, 2)
        assert chains == [
            Chain(2, {(2, 0): 1, (0, 0): -1}),
            Chain(2, {(2, 2): 1, (0, 2): -1}),
            Chain(2, {(0, 0): 1, (0, 1): 1}),
            Chain(2, {(2, 2): 1}),
        ]

    def test_cardinality_matches_betti(self):
        for rack in permutation_racks(5):
            spec = PermutationSpec.from_rack(rack)
            for n in range(5):
                assert len(basis_recipes(rack, n)) == betti(spec, n)

    def test_all_chains_are_cycles(self):
        for rack in permutation_racks(4):
            for n in range(5):
                for chain in cycle_basis(rack, n):
                    assert is_cycle(rack, chain)

    def test_deterministic(self):
        first = [r.describe() for r in basis_recipes(RACK_01_2, 3)]
        second = [r.describe() for r in basis_recipes(RACK_01_2, 3)]
        assert first == second

    def test_cap(self):
        with pytest.raises(DegreeTooLarge):
            basis_recipes(RACK_01_2, 4, cap=80)

    def test_rejects_non_permutation(self):
        with pytest.raises(NotPermutation):
            basis_recipes(dihedral_rack(3), 2)


class TestIndependenceCertificate:
    def test_degree_one_basis(self):
        for rack in permutation_racks(4):
            rank, independent = independence_certificate(rack, cycle_basis(rack, 1))
            assert independent
            assert rank == PermutationSpec.from_rack(rack).r

    def test_basis_is_independent_up_to_degree_three(self):
        spec = PermutationSpec.from_rack(RACK_01_2)
        for n in range(4):
            chains = cycle_basis(RACK_01_2, n)
            rank, independent = independence_certificate(RACK_01_2, chains)
            assert independent
            assert rank == betti(spec, n)

    def test_duplicate_dependent(self):
        chain = cycle_basis(RACK_01_2, 2)[0]
        rank, independent = independence_certificate(RACK_01_2, [chain, chain])
        assert (rank, independent) == (1, False)

    def test_empty_list(self):
        assert independence_certificate(RACK_01_2, []) == (0, True)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(MixedDegrees):
            independence_certificate(
                RACK_01_2, [Chain.monomial((0,)), Chain.monomial((0, 0))]
            )

    def test_zero_chain_detected_as_dependent(self):
        rank, independent = independence_certificate(RACK_01_2, [Chain.zero(1)])
        assert (rank, independent) == (0, False)

    def test_basis_on_a_three_element_orbit(self):
        basis = cycle_basis(RACK_012_3, 5)
        assert independence_certificate(RACK_012_3, basis) == (len(basis), True)
        assert len(basis) == betti(PermutationSpec.from_rack(RACK_012_3), 5)

    def test_sum_of_two_basis_chains_on_a_three_element_orbit(self):
        basis = cycle_basis(RACK_012_3, 5)
        dependent = basis + [basis[1] + basis[-1]]
        assert independence_certificate(RACK_012_3, dependent) == (len(basis), False)
