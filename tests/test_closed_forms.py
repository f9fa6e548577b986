"""Closed-form ranks: equivariant homology, E² rows, Betti recursion,
Poincaré series, free-rack formulas, and the consistency web between them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.closed_forms import (
    EquivariantRanks,
    IntPolynomial,
    betti,
    betti_numbers,
    betti_reaches,
    e2_rank,
    e2_row,
    equivariant_ranks,
    free_permutation_rack_rank,
    free_rack_rank,
    functional_equation_check,
    kunneth_gap,
    poincare_series,
    rational_series,
    row_polynomial,
    structure_group_rank,
)
from rackhom.racks import EmptySpec, PermutationSpec

FIB_SPEC = PermutationSpec((1,), free_orbit_count=1)  # r = 2, r_fin = 1


def all_specs(max_r):
    for r in range(1, max_r + 1):
        for r_fin in range(0, r + 1):
            yield PermutationSpec((1,) * r_fin, free_orbit_count=r - r_fin)


class TestIntPolynomial:
    def test_strips_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial((0, 0)).coefficients == ()
        assert IntPolynomial((0, 3, 0), order=2).coefficients == (0, 3)

    def test_rejects_overfull_truncation(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 2, 3), order=1)

    def test_coefficient_beyond_order_raises(self):
        series = IntPolynomial((1, 2), order=3)
        assert series.coefficient(3) == 0
        with pytest.raises(ValueError):
            series.coefficient(4)
        exact = IntPolynomial((1, 2))
        assert exact.coefficient(100) == 0

    def test_arithmetic(self):
        f = IntPolynomial((1, 1))
        g = IntPolynomial((1, -1))
        assert (f * g).coefficients == (1, 0, -1)
        assert (f + g).coefficients == (2,)
        assert (f - f).coefficients == ()
        assert (f ** 3).coefficients == (1, 3, 3, 1)
        assert (f ** 0).coefficients == (1,)

    def test_truncation_propagates(self):
        f = IntPolynomial((1, 1), order=1)
        g = IntPolynomial((1, 1, 1))
        product = f * g
        assert product.order == 1
        assert product.coefficients == (1, 2)

    def test_truncate(self):
        f = IntPolynomial((1, 2, 3))
        assert f.truncate(1).coefficients == (1, 2)
        with pytest.raises(ValueError):
            f.truncate(1).truncate(2)


class TestRationalSeries:
    def test_geometric(self):
        series = rational_series((1,), (1, -2), 6)
        assert series.coefficients == (1, 2, 4, 8, 16, 32)

    def test_denominator_must_be_monic(self):
        with pytest.raises(ValueError):
            rational_series((1,), (2, 1), 4)
        with pytest.raises(ValueError):
            rational_series((1,), (), 4)

    def test_reproduces_product(self):
        # c = num/den means c*den = num on the computed range
        num, den = (1, 1), (1, -1, -1)
        series = rational_series(num, den, 10)
        product = IntPolynomial(series.coefficients, order=9) * IntPolynomial(den)
        for k in range(10):
            expected = num[k] if k < len(num) else 0
            assert product.coefficient(k) == expected


class TestEquivariantRanks:
    def test_single_free_orbit(self):
        assert equivariant_ranks(PermutationSpec((), 1)) == EquivariantRanks(1, 0)

    def test_single_finite_orbit(self):
        assert equivariant_ranks(PermutationSpec((5,))) == EquivariantRanks(1, 1)

    def test_additive_over_orbits(self):
        ranks = equivariant_ranks(PermutationSpec((2, 3), free_orbit_count=2))
        assert (ranks.h0, ranks.h1) == (4, 2)
        assert (ranks.reduced_h0, ranks.reduced_h1) == (3, 2)

    def test_empty_spec(self):
        with pytest.raises(EmptySpec):
            equivariant_ranks(PermutationSpec(()))


class TestE2Page:
    def test_vanishes_above_diagonal(self):
        for spec in all_specs(4):
            for q in range(5):
                for p in range(q + 1, q + 4):
                    assert e2_rank(spec, p, q) == 0

    def test_row_zero(self):
        spec = PermutationSpec((2, 3))
        assert e2_rank(spec, 0, 0) == 1
        assert e2_rank(spec, 1, 0) == 0

    def test_row_one_bidegrees(self):
        spec = PermutationSpec((2, 3))  # r = r_fin = 2
        assert e2_rank(spec, 1, 1) == 2
        assert e2_rank(spec, 0, 1) == spec.r
        for other in all_specs(5):
            assert e2_rank(other, 0, 1) == other.r
            assert e2_rank(other, 1, 1) == other.r_fin

    def test_free_specs_concentrate_in_column_zero(self):
        for r in range(1, 5):
            spec = PermutationSpec((), free_orbit_count=r)
            for q in range(1, 5):
                assert e2_rank(spec, 0, q) == (r - 1) ** q + (r - 1) ** (q - 1)
                for p in range(1, q + 1):
                    assert e2_rank(spec, p, q) == 0

    def test_row_polynomial(self):
        spec = PermutationSpec((2,), free_orbit_count=1)
        assert row_polynomial(spec).coefficients == (1, 1)
        assert e2_row(spec, 0).coefficients == (1,)
        assert e2_row(spec, 1).coefficients == (2, 1)

    def test_binomial_oracle(self):
        # e2_rank reads the binomial expansion; e2_row multiplies out f**q
        for spec in all_specs(5):
            for q in range(13):
                row = e2_row(spec, q)
                for p in range(q + 2):
                    assert e2_rank(spec, p, q) == row.coefficient(p)

    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError):
            e2_rank(PermutationSpec((1,)), -1, 0)


class TestBetti:
    def test_single_orbit_all_ones(self):
        spec = PermutationSpec((1,))
        assert [betti(spec, n) for n in range(6)] == [1] * 6

    def test_free_rank_three(self):
        assert betti(PermutationSpec((), 3), 4) == 24

    def test_fibonacci(self):
        assert [betti(FIB_SPEC, n) for n in range(6)] == [1, 2, 3, 5, 8, 13]

    def test_all_finite_gives_r_to_n(self):
        for r in range(1, 6):
            spec = PermutationSpec((2,) * r)
            for n in range(8):
                assert betti(spec, n) == r ** n

    def test_no_finite_orbits_matches_free_formula(self):
        for r in range(1, 6):
            spec = PermutationSpec((), free_orbit_count=r)
            for n in range(8):
                assert betti(spec, n) == free_permutation_rack_rank(r, n)

    def test_empty_and_negative(self):
        with pytest.raises(EmptySpec):
            betti(PermutationSpec(()), 0)
        with pytest.raises(ValueError):
            betti(FIB_SPEC, -1)
        with pytest.raises(EmptySpec):
            betti_numbers(PermutationSpec(()), 0)
        with pytest.raises(ValueError):
            betti_numbers(FIB_SPEC, -1)

    def test_numbers_are_betti_of_every_degree(self):
        for spec in (FIB_SPEC, PermutationSpec((1,)), PermutationSpec((2, 1), 1)):
            for top in range(6):
                assert betti_numbers(spec, top) == [betti(spec, n) for n in range(top + 1)]

    def test_reaches_is_any_of_the_first_numbers(self):
        for spec in all_specs(4):
            for top in range(6):
                numbers = betti_numbers(spec, top)
                for bound in {0, 1, 2, *numbers, *(b + 1 for b in numbers)}:
                    expected = any(b >= bound for b in numbers)
                    assert betti_reaches(spec, top, bound) == expected, (spec, top, bound)

    def test_reaches_stops_at_the_first_large_value(self):
        # b_n has about 0.2 n digits here; running to 10**9 would never end
        assert betti_reaches(FIB_SPEC, 10**9, 10**100)
        assert not betti_reaches(FIB_SPEC, 478, 10**100)
        assert betti_reaches(FIB_SPEC, 479, 10**100)

    def test_reaches_requires_orbits(self):
        with pytest.raises(EmptySpec):
            betti_reaches(PermutationSpec(()), 0, 1)


class TestPoincareSeries:
    def test_two_finite_orbits(self):
        series = poincare_series(PermutationSpec((2, 2)), 6)
        assert series.coefficients == (1, 2, 4, 8, 16, 32)

    def test_two_free_orbits(self):
        series = poincare_series(PermutationSpec((), 2), 6)
        assert series.coefficients == (1, 2, 2, 2, 2, 2)

    def test_fibonacci(self):
        series = poincare_series(FIB_SPEC, 6)
        assert series.coefficients == (1, 2, 3, 5, 8, 13)

    def test_matches_betti_everywhere(self):
        for spec in all_specs(6):
            series = poincare_series(spec, 13)
            for n in range(13):
                assert series.coefficient(n) == betti(spec, n)

    def test_alternate_summation_form(self):
        # sum over n of (r-1)^n (1+T) T^n / (1 - r_fin T^2)^(n+1), an
        # equivalent rearrangement of the rational function
        terms = 12
        for spec in all_specs(5):
            r, r_fin = spec.r, spec.r_fin
            total = IntPolynomial((), order=terms - 1)
            for n in range(terms):
                summand = rational_series(
                    [0] * n + [(r - 1) ** n, (r - 1) ** n],
                    _power((1, 0, -r_fin), n + 1),
                    terms,
                )
                total = total + summand
            assert total.coefficients == poincare_series(spec, terms).coefficients

    def test_term_count_respected(self):
        series = poincare_series(PermutationSpec((1,)), 3)
        assert series.order == 2
        with pytest.raises(ValueError):
            poincare_series(PermutationSpec((1,)), 0)


def _power(coeffs, exponent):
    result = IntPolynomial((1,))
    base = IntPolynomial(coeffs)
    for _ in range(exponent):
        result = result * base
    padded = list(result.coefficients)
    return padded


class TestFunctionalEquation:
    def test_holds_for_small_r(self):
        for r in range(1, 11):
            assert functional_equation_check(r)

    def test_r_one_expansion(self):
        # f = T, both sides are 1 - T^2
        assert functional_equation_check(1, terms=12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            functional_equation_check(0)
        with pytest.raises(ValueError):
            functional_equation_check(2, terms=0)


class TestFreeRankFormulas:
    def test_monogenic_free_permutation_rack(self):
        assert [free_permutation_rack_rank(1, n) for n in range(5)] == [1, 1, 0, 0, 0]

    def test_examples(self):
        assert free_permutation_rack_rank(2, 3) == 2
        assert free_permutation_rack_rank(3, 2) == 6
        assert free_permutation_rack_rank(3, 2) == 2 ** 2 + 2  # (r-1)^n + (r-1)^(n-1)

    def test_free_rack(self):
        assert free_rack_rank(5, 0) == 1
        assert free_rack_rank(5, 1) == 5
        assert free_rack_rank(5, 3) == 0

    def test_structure_group(self):
        assert structure_group_rank(PermutationSpec((3,))) == 1
        assert structure_group_rank(PermutationSpec((1, 2), free_orbit_count=1)) == 3
        assert structure_group_rank(PermutationSpec((), 1)) == 1
        with pytest.raises(EmptySpec):
            structure_group_rank(PermutationSpec(()))

    def test_kunneth_gap(self):
        assert kunneth_gap(2, 2) == (2, 6)
        assert kunneth_gap(1, 1) == (1, 2)
        assert kunneth_gap(3, 3) == (12, 36)
        for r in range(1, 6):
            for n in range(2, 8):
                actual, naive = kunneth_gap(r, n)
                assert actual != naive

    def test_rejects_bad_arguments(self):
        for fn in (lambda: free_permutation_rack_rank(0, 1),
                   lambda: free_rack_rank(0, 1),
                   lambda: kunneth_gap(0, 1)):
            with pytest.raises(ValueError):
                fn()


class TestThreeWayConsistency:
    def test_betti_equals_series_equals_e2_totals(self):
        for spec in all_specs(6):
            series = poincare_series(spec, 13)
            for n in range(13):
                e2_total = sum(e2_rank(spec, p, n - p) for p in range(n + 1))
                assert betti(spec, n) == series.coefficient(n) == e2_total

    @settings(max_examples=100, deadline=None)
    @given(
        r_fin=st.integers(0, 5),
        free=st.integers(0, 5),
        n=st.integers(0, 15),
    )
    def test_recursion_matches_series_property(self, r_fin, free, n):
        if r_fin + free == 0:
            return
        spec = PermutationSpec((1,) * r_fin, free_orbit_count=free)
        assert poincare_series(spec, n + 1).coefficient(n) == betti(spec, n)

    def test_orbit_sizes_are_irrelevant(self):
        # only r and r_fin enter any closed form
        small = PermutationSpec((1, 1))
        large = PermutationSpec((7, 19))
        for n in range(10):
            assert betti(small, n) == betti(large, n)
        assert poincare_series(small, 9).coefficients == poincare_series(large, 9).coefficients
