"""The chain complex: boundary operator identities, matrices, detection,
and the start-set reduction of `oracles`, checked by the library's
boundary."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import mixed_racks, permutation_racks, random_chain
from oracles import NotGenerating, monomial_boundary, reduce_to_start_set
from rackhom.chains import (
    Chain,
    DegreeTooLarge,
    apply_boundary,
    boundary_columns,
    boundary_matrix,
    boundary_of_monomial,
    detection_map,
)
from rackhom.racks import (
    PermutationSpec,
    as_permutation,
    dihedral_rack,
    orbit_decomposition,
    permutation_rack,
    trivial_rack,
)

RACK_01 = permutation_rack(PermutationSpec((2,)))  # φ = (0 1)
RACK_01_2 = permutation_rack(PermutationSpec((2, 1)))  # φ = (0 1)(2)
RACK_012 = permutation_rack(PermutationSpec((3,)))  # φ = (0 1 2)


class TestChainAlgebra:
    def test_zero_coefficients_are_dropped(self):
        c = Chain(1, {(0,): 0, (1,): 2})
        assert c.coefficient((0,)) == 0
        assert len(c) == 1

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            Chain(2, {(0,): 1})
        with pytest.raises(ValueError):
            Chain(-1)

    def test_addition_cancels(self):
        c = Chain(1, {(0,): 1, (1,): 2})
        d = Chain(1, {(0,): -1, (1,): 3})
        assert (c + d) == Chain(1, {(1,): 5})
        assert not (c - c)

    def test_mixed_degree_addition_rejected(self):
        with pytest.raises(ValueError):
            Chain(1, {(0,): 1}) + Chain(2, {(0, 0): 1})

    def test_scalar_multiplication(self):
        c = Chain(1, {(0,): 2})
        assert 3 * c == Chain(1, {(0,): 6})
        assert 0 * c == Chain.zero(1)
        assert -1 * c == -c

    def test_equality_and_hash(self):
        a = Chain(2, {(0, 1): 1})
        b = Chain.monomial((0, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Chain(2, {(0, 1): 2})
        assert Chain.zero(1) != Chain.zero(2)

    def test_prepend(self):
        c = Chain(1, {(0,): 1, (1,): -1})
        assert c.prepend(2) == Chain(2, {(2, 0): 1, (2, 1): -1})

    def test_map_monomials_merges_collisions(self):
        c = Chain(1, {(0,): 1, (1,): -1})
        assert not c.map_monomials(lambda m: (0,) * len(m))

    def test_map_monomials_rejects_a_change_of_degree(self):
        with pytest.raises(ValueError, match="degree"):
            Chain.monomial((0, 1)).map_monomials(lambda m: m + (0,))
        with pytest.raises(ValueError, match="degree"):
            Chain(2, {(0, 1): 1, (1, 1): 1}).map_monomials(lambda m: m[:1])

    def test_mixed_degree_subtraction_rejected(self):
        with pytest.raises(ValueError):
            Chain(1, {(0,): 1}) - Chain(2, {(0, 0): 1})

    def test_operations_keep_the_invariants(self):
        # Every operation builds its result with the public constructor;
        # the results must pass its checks unchanged: tuple monomials of the
        # chain's degree and no stored zero.
        rng = random.Random(23)
        rack = RACK_012
        phi = as_permutation(rack)
        for _ in range(200):
            degree = rng.randint(0, 3)
            a = random_chain(rng, rack, degree, max_terms=5, max_coeff=2)
            b = random_chain(rng, rack, degree, max_terms=5, max_coeff=2)
            results = [
                a + b, a - b, a - a, -a, rng.choice([-2, 3]) * a,
                a.prepend(rng.randrange(rack.size)),
                a.map_monomials(lambda m: tuple(phi[v] for v in m)),
                a.map_monomials(lambda m: (0,) * len(m)),
                boundary_of_monomial(rack, tuple(rng.randrange(3) for _ in range(degree))),
                apply_boundary(rack, a),
            ]
            for c in results:
                assert c == Chain(c.degree, dict(c.terms()))
                assert all(type(m) is tuple and len(m) == c.degree for m in c.support())
            assert a - b == a + (-b)

    def test_terms_sorted(self):
        c = Chain(2, {(1, 0): 1, (0, 1): 2})
        assert [m for m, _ in c.terms()] == [(0, 1), (1, 0)]

    def test_str(self):
        assert str(Chain.zero(3)) == "0"
        c = Chain(2, {(0, 1): -2, (1, 1): 1})
        assert str(c) == "-2*(0,1) +(1,1)"


class TestBoundary:
    def test_trivial_rack_boundary_vanishes(self):
        assert not boundary_of_monomial(trivial_rack(2), (0, 1))

    def test_two_cycle_example(self):
        assert boundary_of_monomial(RACK_01, (0, 1)) == Chain(1, {(1,): 1, (0,): -1})

    def test_low_degrees_vanish(self):
        assert not boundary_of_monomial(RACK_012, (2,))
        assert not boundary_of_monomial(RACK_012, ())

    def test_linearity(self):
        c = Chain(2, {(0, 1): 1, (1, 0): 1})
        assert not apply_boundary(RACK_01, c)
        rng = random.Random(0)
        for rack in (RACK_01_2, dihedral_rack(4)):
            a = random_chain(rng, rack, 3)
            b = random_chain(rng, rack, 3)
            assert apply_boundary(rack, a + b) == apply_boundary(rack, a) + apply_boundary(rack, b)
            assert apply_boundary(rack, 5 * a) == 5 * apply_boundary(rack, a)

    def test_d_squared_zero_everywhere(self):
        for rack in mixed_racks(4):
            for degree in range(2, 5):
                rng = random.Random(rack.size * 100 + degree)
                for _ in range(5):
                    mono = tuple(rng.randrange(rack.size) for _ in range(degree))
                    assert not apply_boundary(rack, boundary_of_monomial(rack, mono))

    def test_rewrites_as_shift_plus_action(self):
        # d(x·w) = w - φ(w) - x·d(w) on permutation racks
        rng = random.Random(42)
        for rack in permutation_racks(4):
            phi = as_permutation(rack)
            for degree in range(1, 4):
                w = random_chain(rng, rack, degree)
                x = rng.randrange(rack.size)
                shifted = w.map_monomials(lambda m: tuple(phi[v] for v in m))
                lhs = apply_boundary(rack, w.prepend(x))
                rhs = w - shifted - apply_boundary(rack, w).prepend(x)
                assert lhs == rhs

    def test_chain_homotopy_identity(self):
        # d(x·w) + x·d(w) = w - φ(w): φ induces the identity on homology
        rng = random.Random(43)
        for rack in permutation_racks(4):
            phi = as_permutation(rack)
            for degree in range(1, 4):
                w = random_chain(rng, rack, degree)
                x = rng.randrange(rack.size)
                shifted = w.map_monomials(lambda m: tuple(phi[v] for v in m))
                lhs = apply_boundary(rack, w.prepend(x)) + apply_boundary(rack, w).prepend(x)
                assert lhs == w - shifted


class TestBoundaryMatrix:
    def test_trivial_rack_matrices_are_zero(self):
        for n in range(1, 4):
            assert boundary_matrix(trivial_rack(3), n).nnz == 0

    def test_degree_one_is_zero(self):
        matrix = boundary_matrix(RACK_012, 1)
        assert (matrix.row_count, matrix.col_count, matrix.nnz) == (1, 3, 0)

    def test_three_cycle_degree_two_columns(self):
        matrix = boundary_matrix(RACK_012, 2)
        assert (matrix.row_count, matrix.col_count) == (3, 9)
        assert set(matrix.entries.values()) <= {1, -1}
        basis = product(range(3), repeat=2)
        phi = as_permutation(RACK_012)
        for j, (x, y) in enumerate(basis):
            column = {i: v for (i, jj), v in matrix.entries.items() if jj == j}
            expected = {}
            expected[y] = expected.get(y, 0) + 1
            expected[phi[y]] = expected.get(phi[y], 0) - 1
            assert column == {k: v for k, v in expected.items() if v}

    def test_column_matches_boundary_of_monomial(self):
        rack = dihedral_rack(3)
        matrix = boundary_matrix(rack, 3)
        basis_rows = product(range(rack.size), repeat=2)
        basis_cols = list(product(range(rack.size), repeat=3))
        row_index = {mono: i for i, mono in enumerate(basis_rows)}
        for j in (0, 7, 13, 26):
            chain = boundary_of_monomial(rack, basis_cols[j])
            column = {i: v for (i, jj), v in matrix.entries.items() if jj == j}
            assert column == {row_index[m]: c for m, c in chain.terms()}

    def test_degree_and_cap_validation(self):
        with pytest.raises(ValueError):
            boundary_matrix(RACK_01, 0)
        with pytest.raises(DegreeTooLarge):
            boundary_matrix(RACK_012, 4, cap=80)


def columns_by_monomial(rack, n):
    """d_n assembled column by column from boundary_of_monomial."""
    row_index = {mono: i for i, mono in enumerate(product(range(rack.size), repeat=n - 1))}
    columns = {}
    for j, mono in enumerate(product(range(rack.size), repeat=n)):
        chain = boundary_of_monomial(rack, mono)
        if chain:
            columns[j] = {row_index[m]: c for m, c in chain.terms()}
    return columns


class TestBoundaryColumns:
    def test_equals_boundary_of_monomial_with_and_without_dropped_rows(self):
        rng = random.Random(8)
        for rack in mixed_racks(4):
            # six digits on the racks of at most three elements: face tables of five
            for n in range(1, 7 if rack.size <= 3 else 6):
                oracle = columns_by_monomial(rack, n)
                assert boundary_columns(rack, n) == oracle, (rack, n)
                rows = rack.size ** (n - 1)
                drops = [
                    set(range(0, rows, 3)),
                    set(rng.sample(range(rows), rows // 2)),
                    set(range(rows)),
                ]
                pair = tuple(sorted(rng.sample(range(rack.size), min(2, rack.size))))
                for drop in drops:
                    for start in (None, (0,), pair):
                        kept = {}
                        for j, col in oracle.items():
                            # column j starts with j // |X|^(n-1)
                            if start is None or j // rows in start:
                                col = {i: v for i, v in col.items() if i not in drop}
                                if col:
                                    kept[j] = col
                        built = boundary_columns(rack, n, starts=start, drop_rows=drop)
                        assert built == kept, (rack, n, start)

    def test_degree_and_cap_validation(self):
        with pytest.raises(ValueError):
            boundary_columns(RACK_01, 0)
        with pytest.raises(DegreeTooLarge):
            boundary_columns(RACK_012, 4, cap=80)
        assert boundary_columns(RACK_012, 1) == {}


class TestDetectionMap:
    def test_single_orbit_collapses(self):
        c = Chain.monomial((0, 1))
        assert detection_map(c, (0, 0)) == Chain.monomial((0, 0))

    def test_entrywise_projection(self):
        c = Chain(2, {(0, 2): 1, (2, 0): -1})
        assert detection_map(c, (0, 0, 1)) == Chain(2, {(0, 1): 1, (1, 0): -1})

    def test_collision_cancels(self):
        c = Chain(1, {(0,): 1, (1,): -1})
        assert not detection_map(c, (0, 0))

    def test_commutes_with_boundary(self):
        # the image lives on the trivial rack of orbits, where d = 0, so the
        # detection of any boundary must vanish
        rng = random.Random(4)
        for rack in permutation_racks(5):
            orbit_of = orbit_decomposition(as_permutation(rack)).orbit_of
            orbit_count = len(set(orbit_of))
            target = trivial_rack(orbit_count)
            for degree in range(1, 4):
                c = random_chain(rng, rack, degree)
                image_of_boundary = detection_map(apply_boundary(rack, c), orbit_of)
                boundary_of_image = apply_boundary(target, detection_map(c, orbit_of))
                assert image_of_boundary == boundary_of_image
                assert not image_of_boundary


def reduce_chain(rack, c, start):
    """The oracle's reduction of c on a permutation rack, as chains."""
    reduced, witness = reduce_to_start_set(as_permutation(rack), dict(c.terms()), start)
    return Chain(c.degree, reduced), Chain(c.degree + 1, witness)


class TestReduceToStartSet:
    def test_the_oracle_boundary_is_the_library_boundary(self):
        for rack in permutation_racks(4):
            phi = as_permutation(rack)
            for degree in range(4):
                for mono in product(range(rack.size), repeat=degree):
                    expected = boundary_of_monomial(rack, mono)
                    assert Chain(expected.degree, monomial_boundary(phi, mono)) == expected

    def test_already_reduced(self):
        c = Chain(2, {(0, 1): 3})
        reduced, witness = reduce_chain(RACK_01, c, {0})
        assert reduced == c
        assert not witness

    def test_single_substitution_example(self):
        c = Chain.monomial((1, 1))
        reduced, witness = reduce_chain(RACK_01, c, {0})
        assert reduced == Chain.monomial((0, 1))
        assert witness == Chain(3, {(0, 1, 1): -1})

    def test_degree_zero_untouched(self):
        c = Chain.monomial(())
        reduced, witness = reduce_chain(RACK_01, c, {0})
        assert reduced == c
        assert not witness

    def test_witness_oracle_on_random_chains(self):
        rng = random.Random(77)
        for rack in permutation_racks(5):
            phi = as_permutation(rack)
            orbits = orbit_decomposition(phi).orbits
            for _ in range(3):
                # a start set with one random pick per orbit, plus noise
                start = {orbit[rng.randrange(len(orbit))] for orbit in orbits}
                if rng.random() < 0.3:
                    start.add(rng.randrange(rack.size))
                degree = rng.randint(0, 3)
                c = random_chain(rng, rack, degree)
                reduced, witness = reduce_chain(rack, c, start)
                assert apply_boundary(rack, witness) + c - reduced == Chain.zero(degree)
                if degree > 0:
                    assert all(mono[0] in start for mono in reduced.support())

    def test_missing_orbit_rejected(self):
        with pytest.raises(NotGenerating):
            reduce_chain(RACK_01_2, Chain.monomial((2,)), {2})


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    data=st.data(),
)
def test_d_squared_zero_property(sizes, data):
    rack = permutation_rack(PermutationSpec(tuple(sizes)))
    degree = data.draw(st.integers(2, 4))
    mono = tuple(
        data.draw(st.integers(0, rack.size - 1)) for _ in range(degree)
    )
    assert not apply_boundary(rack, boundary_of_monomial(rack, mono))
