"""Cycle constructions, the lower-bound basis, and its independence
certificate."""

import ast
import random
from pathlib import Path

import pytest

import rackhom.cycles
from corpus import permutation_racks, random_chain, relabeled_rack
from rackhom.chains import Chain, DegreeTooLarge, _rank_of, apply_boundary, detection_map
from rackhom.closed_forms import betti
from rackhom.cycles import (
    CycleRecipe,
    DifferenceFactor,
    MixedDegrees,
    OrbitAverageFactor,
    TerminalFactor,
    basis_recipes,
    certified_levels,
    chain_term_counts,
    cycle_basis,
    difference_product,
    independence_certificate,
    orbit_average,
    recipe_factor_counts,
)
from rackhom.homology import is_cycle
from rackhom.racks import (
    NotPermutation,
    PermutationSpec,
    as_permutation,
    dihedral_rack,
    orbit_decomposition,
    permutation_rack,
)

RACK_01 = permutation_rack(PermutationSpec((2,)))
RACK_01_2 = permutation_rack(PermutationSpec((2, 1)))  # orbits {0,1}, {2}
# Detection merges the monomials of each orbit, so the certificate's columns
# share leading entries and its rank needs real column updates.
RACK_012_3 = permutation_rack(PermutationSpec((3, 1)))  # orbits {0,1,2}, {3}


# Orbits of size 1, 2, 3 and 4, relabeled so the cycles no longer run in id
# order.
ORACLE_RACKS = [relabeled_rack(rack, seed) for seed, rack in enumerate(permutation_racks(4))]
ORACLE_RACKS.append(relabeled_rack(permutation_rack(PermutationSpec((3, 2, 1))), 99))


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
    """The square t·t·c at a fixed point t, which is what orbit_average
    gives there."""

    def test_prepends_twice(self):
        chain = orbit_average(RACK_01_2, 2, Chain(1, {(0,): 1, (1,): -1}))
        assert chain == Chain(3, {(2, 2, 0): 1, (2, 2, 1): -1})
        assert is_cycle(RACK_01_2, chain)

    def test_cycle_from_degree_one(self):
        chain = orbit_average(RACK_01_2, 2, Chain.monomial((0,)))
        assert chain.degree == 3
        assert is_cycle(RACK_01_2, chain)

    def test_zero(self):
        assert not orbit_average(RACK_01_2, 2, Chain.zero(2))

    def test_commutes_with_boundary_on_any_chain(self):
        # d(t²·w) = t²·d(w) even when w is not a cycle
        rng = random.Random(8)
        for rack in permutation_racks(4):
            phi = as_permutation(rack)
            fixed = [t for t in range(rack.size) if phi[t] == t]
            for t in fixed:
                for degree in range(1, 4):
                    w = random_chain(rng, rack, degree)
                    square = w.prepend(t).prepend(t)
                    assert orbit_average(rack, t, w) == square
                    lhs = apply_boundary(rack, square)
                    rhs = apply_boundary(rack, w).prepend(t).prepend(t)
                    assert lhs == rhs


class TestOrbitAverage:
    def test_fixed_point_reduces_to_square(self):
        c = Chain(1, {(0,): 1, (1,): -2})
        assert orbit_average(RACK_01_2, 2, c) == c.prepend(2).prepend(2)

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

    def test_recipe_factors_are_held_to_the_cap(self):
        # perm (1,1,1,1) to degree 9: 4^9 monomials fit, 2479300 factors do not
        fixed_4 = permutation_rack(PermutationSpec((1, 1, 1, 1)))
        assert sum(recipe_factor_counts(4, 9)) == 2479300
        with pytest.raises(DegreeTooLarge, match=r"^2479300 cycle recipe factors exceed the cap of 1000000$"):
            basis_recipes(fixed_4, 9)
        assert len(basis_recipes(fixed_4, 9, cap=2479300)) == 4 ** 9

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


class TestCertifiedLevels:
    def test_every_level_matches_the_recipe_oracles(self):
        for rack in ORACLE_RACKS:
            for level in certified_levels(rack, 5):
                recipes = basis_recipes(rack, level.degree)
                assert level.recipes == [r.describe() for r in recipes]
                evaluated = [recipe.evaluate() for recipe in recipes]
                assert cycle_basis(rack, level.degree) == evaluated
                certificate = independence_certificate(rack, evaluated)
                assert (level.rank, level.independent) == certificate == (len(recipes), True)

    def test_dependent_sets_are_reported(self):
        for rack, size in ((RACK_012_3, 16), (ORACLE_RACKS[-1], 81)):
            basis = cycle_basis(rack, 4)
            assert len(basis) == size
            for chains, certificate in (
                (basis + [basis[1] + basis[-1]], (size, False)),
                (basis + [3 * basis[2] - basis[0]], (size, False)),
                ([basis[0], basis[0]], (1, False)),
                ([basis[0], Chain.zero(4)], (1, False)),
            ):
                assert independence_certificate(rack, chains) == certificate

    def test_terms_cancelling_under_detection(self):
        # 0 and 1 share an orbit, so (3,3,3,0) - (3,3,3,1) detects to 0, at
        # the highest orbit tuple of the first chain
        chains = [
            Chain(4, {(3, 3, 3, 0): 1, (3, 3, 3, 1): -1, (0, 0, 0, 0): 2}),
            Chain.monomial((0, 0, 0, 0)),
            Chain(4, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1}),
        ]
        assert independence_certificate(RACK_012_3, chains) == (1, False)

    @pytest.mark.parametrize(
        "rack",
        ORACLE_RACKS
        + [relabeled_rack(rack, seed) for seed, rack in enumerate(permutation_racks(5))]
        + permutation_racks(6),
    )
    def test_word_levels_match_the_chains_and_the_recipes(self, rack):
        """The images built on orbit words are the detection images of the
        evaluated basis recipes, and the texts are the recipes' own."""
        decomposition = orbit_decomposition(as_permutation(rack))
        orbit_of, r = decomposition.orbit_of, len(decomposition.orbits)
        for n, (texts, images) in enumerate(rackhom.cycles._word_levels(decomposition, 5)):
            recipes = basis_recipes(rack, n)
            detected = [
                {_rank_of(mono, r): v for mono, v in detection_map(recipe.evaluate(), orbit_of).terms()}
                for recipe in recipes
            ]
            assert images == detected, n
            assert texts == [recipe.describe() for recipe in recipes], n
        assert n == 5

    def test_chain_terms_follow_the_recursion(self):
        for rack in ORACLE_RACKS:
            counts = chain_term_counts(rack.size, PermutationSpec.from_rack(rack).r, 5)
            for n in range(6):
                assert sum(map(len, cycle_basis(rack, n))) == counts[n]
        fixed_4 = permutation_rack(PermutationSpec((1, 1, 1, 1)))
        assert chain_term_counts(4, 4, 6)[6] == 53056
        assert sum(map(len, cycle_basis(fixed_4, 6))) == 53056

    def test_cap_errors_come_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran past the cap")

        monkeypatch.setattr(rackhom.cycles, "_recipes", no_work)
        monkeypatch.setattr(rackhom.cycles, "_word_levels", no_work)
        swap = permutation_rack(PermutationSpec((2,)))
        fixed_3 = permutation_rack(PermutationSpec((1, 1, 1)))
        with pytest.raises(DegreeTooLarge, match=r"^2\^4 exceeds the cap of 10$"):
            certified_levels(swap, 4, cap=10)
        with pytest.raises(DegreeTooLarge, match=r"^3\^3 exceeds the cap of 26$"):
            certified_levels(fixed_3, 13, cap=26)
        with pytest.raises(DegreeTooLarge, match=r"^3\^13 exceeds the cap of 1000000$"):
            basis_recipes(permutation_rack(PermutationSpec((3,))), 20)  # the smallest degree over
        terms = r"^3226767 cycle chain terms exceed the cap of 1000000$"
        with pytest.raises(DegreeTooLarge, match=terms):
            certified_levels(fixed_3, 10)
        with pytest.raises(DegreeTooLarge, match=terms):
            cycle_basis(fixed_3, 10)
        with pytest.raises(DegreeTooLarge, match=r"^1491 cycle chain terms exceed the cap of 1000$"):
            certified_levels(fixed_3, 5, cap=1000)

    def test_recipe_factors_follow_the_recursion(self):
        for rack in ORACLE_RACKS + [permutation_rack(PermutationSpec((1,)))]:
            counts = recipe_factor_counts(PermutationSpec.from_rack(rack).r, 6)
            for n in range(7):
                assert sum(len(recipe.factors) for recipe in basis_recipes(rack, n)) == counts[n]

    def test_recipe_factors_are_held_to_the_cap(self, monkeypatch):
        fixed_3 = permutation_rack(PermutationSpec((1, 1, 1)))
        one = permutation_rack(PermutationSpec((1,)))
        # degrees 0..4 of perm (1,1,1): 321 chain terms on top, 342 factors
        assert len(list(certified_levels(fixed_3, 4, cap=342))) == 5
        assert len(cycle_basis(fixed_3, 4, cap=342)) == 81

        def no_work(*args, **kwargs):
            raise AssertionError("work ran past the cap")

        monkeypatch.setattr(rackhom.cycles, "_recipes", no_work)
        monkeypatch.setattr(rackhom.cycles, "_word_levels", no_work)
        for entry in (certified_levels, cycle_basis):
            with pytest.raises(DegreeTooLarge, match=r"^342 cycle recipe factors exceed the cap of 341$"):
                entry(fixed_3, 4, cap=341)
        # the one-element rack takes ⌈n/2⌉ factors in degree n in closed form
        for degree in (2, 7, 30, 31):
            factors = sum(recipe_factor_counts(1, degree))
            with pytest.raises(DegreeTooLarge, match=rf"^{factors} cycle recipe factors"):
                certified_levels(one, degree, cap=factors - 1)

    def test_work_at_the_cap_runs(self):
        fixed_3 = permutation_rack(PermutationSpec((1, 1, 1)))
        levels = list(certified_levels(fixed_3, 5, cap=1491))
        assert [level.rank for level in levels] == [3 ** n for n in range(6)]

    def test_rejects_non_permutation_before_the_cap(self):
        with pytest.raises(NotPermutation):
            certified_levels(dihedral_rack(3), 20, cap=1)


def test_cycles_imports_nothing_private_from_chains():
    # cycles builds its chains through the public `Chain`, so a private fast
    # path over the digit index of `chains` cannot grow back unseen
    text = Path(rackhom.cycles.__file__).read_text(encoding="utf-8")
    names = [
        alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.module == "chains"
        for alias in node.names
    ]
    assert "Chain" in names
    assert [name for name in names if name.startswith("_")] == []
    assert "chains._" not in text
