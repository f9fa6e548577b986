"""Brute-force homology groups and cycle predicates."""

import pytest

import rackhom.homology
from corpus import mixed_racks, permutation_racks
from rackhom.chains import Chain, DegreeTooLarge, boundary_matrix
from rackhom.homology import (
    HomologyGroup,
    NotACycle,
    homology_table,
    is_cycle,
    is_rational_boundary,
    rack_homology,
)
from rackhom.linalg import (
    SparseIntMatrix,
    rank_mod_prime,
    rational_rank,
    smith_normal_form,
    smith_reduce,
)
from rackhom.racks import (
    FiniteRack,
    PermutationSpec,
    dihedral_rack,
    permutation_rack,
    trivial_rack,
)


class TestHomologyGroup:
    def test_validates_torsion_chain(self):
        HomologyGroup(2, (2, 4))
        with pytest.raises(ValueError):
            HomologyGroup(-1)
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, (2, 3))


class TestRackHomology:
    def test_degree_zero_is_one_copy_of_z(self):
        for rack in (trivial_rack(3), dihedral_rack(4), permutation_rack(PermutationSpec((3, 2)))):
            assert rack_homology(rack, 0) == HomologyGroup(1, ())

    def test_trivial_rack_degree_two(self):
        assert rack_homology(trivial_rack(2), 2) == HomologyGroup(4, ())

    def test_three_cycle_degree_three(self):
        rack = permutation_rack(PermutationSpec((3,)))
        assert rack_homology(rack, 3) == HomologyGroup(1, ())

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            rack_homology(trivial_rack(2), -1)

    def test_cap_propagates(self):
        with pytest.raises(DegreeTooLarge):
            rack_homology(permutation_rack(PermutationSpec((3,))), 3, cap=80)


class TestHomologyTable:
    def test_trivial_is_powers_of_size(self):
        groups = homology_table(trivial_rack(3), 3)
        assert [g.free_rank for g in groups] == [1, 3, 9, 27]
        assert all(not g.torsion for g in groups)

    def test_two_two(self):
        rack = permutation_rack(PermutationSpec((2, 2)))
        assert [g.free_rank for g in homology_table(rack, 3)] == [1, 2, 4, 8]

    def test_one_fixed_point(self):
        rack = permutation_rack(PermutationSpec((1,)))
        assert [g.free_rank for g in homology_table(rack, 2)] == [1, 1, 1]

    def test_reduces_each_boundary_once_per_call(self, monkeypatch):
        built, reduced = [], []
        build = rackhom.homology.boundary_columns
        reduce = rackhom.homology.smith_reduce

        def recording_build(rack, n, *args, **kwargs):
            built.append(n)
            return build(rack, n, *args, **kwargs)

        def counting_reduce(columns):
            reduced.append(built[-1])
            return reduce(columns)

        monkeypatch.setattr(rackhom.homology, "boundary_columns", recording_build)
        monkeypatch.setattr(rackhom.homology, "smith_reduce", counting_reduce)
        rack = dihedral_rack(3)
        homology_table(rack, 3)
        assert reduced == [4, 3, 2]  # d_4, d_3, d_2, top down
        homology_table(rack, 3)
        assert reduced == [4, 3, 2] * 2
        assert built == reduced

    def test_cap_error_names_the_smallest_degree_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran past the cap")

        monkeypatch.setattr(rackhom.homology, "boundary_columns", no_work)
        monkeypatch.setattr(rackhom.homology, "smith_reduce", no_work)
        swap = permutation_rack(PermutationSpec((2,)))
        with pytest.raises(DegreeTooLarge, match=r"^2\^4 basis monomials exceed the cap of 10$"):
            homology_table(swap, 4, cap=10)
        with pytest.raises(DegreeTooLarge, match=r"^3\^3 basis monomials exceed the cap of 26$"):
            homology_table(dihedral_rack(3), 6, cap=26)

    def test_permutation_racks_are_free_of_rank_r_to_n(self):
        for rack in permutation_racks(4):
            spec = PermutationSpec.from_rack(rack)
            for n, group in enumerate(homology_table(rack, 3)):
                assert group.free_rank == spec.r ** n
                assert group.torsion == ()

    def test_dihedral_regression_values(self):
        # frozen from this implementation after cross-checking its Smith
        # engine against independent rank routes; dihedral racks are the
        # torsion-bearing corpus
        groups3 = homology_table(dihedral_rack(3), 3)
        assert [(g.free_rank, g.torsion) for g in groups3] == [
            (1, ()), (1, ()), (1, ()), (1, (3,)),
        ]
        groups4 = homology_table(dihedral_rack(4), 2)
        assert [(g.free_rank, g.torsion) for g in groups4] == [
            (1, ()), (2, ()), (4, (2, 2)),
        ]

    def test_rank_sums_are_consistent(self):
        # rank d_n + rank d_{n+1} <= dim CR_n is forced by d∘d = 0
        rack = dihedral_rack(5)
        ranks = [0] + [rational_rank(boundary_matrix(rack, n)) for n in (1, 2, 3)]
        for n in range(3):
            assert ranks[n] + ranks[n + 1] <= rack.size ** n


def alexander_quandle(m: int, t: int) -> FiniteRack:
    """x ▷ y = t·y + (1 - t)·x on Z/m, t a unit."""
    return FiniteRack(tuple(tuple((t * y + (1 - t) * x) % m for y in range(m)) for x in range(m)))


TABLE_CASES = (
    [pytest.param(rack, 4, id=f"mixed-{i}") for i, rack in enumerate(mixed_racks(4))]
    + [pytest.param(dihedral_rack(k), 3, id=f"dihedral-{k}") for k in (3, 5, 6, 7)]
    + [
        pytest.param(alexander_quandle(m, t), 3, id=f"alexander-{m}-{t}")
        for m, t in ((4, 3), (8, 3), (9, 2))
    ]
)


@pytest.mark.parametrize(("rack", "max_degree"), TABLE_CASES)
def test_table_matches_each_degree_reduced_whole(rack, max_degree):
    # rack_homology reduces d_n and d_{n+1} whole, with no column cleared;
    # the Alexander quandles bring Z/2, Z/8 and Z/3 torsion
    oracle = [rack_homology(rack, n) for n in range(max_degree + 1)]
    assert homology_table(rack, max_degree) == oracle


def prime_factors(n: int) -> set[int]:
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    if n > 1:
        factors.add(n)
    return factors


@pytest.fixture(scope="module")
def boundary_forms():
    """d_2 .. d_5 of every rack in mixed_racks(4), d_2 .. d_4 of dihedral 5
    (Z/5 torsion) and dihedral 4 d_6 (a residual of 2s only), with the
    default Smith form of each."""
    cases = [(rack, n) for rack in mixed_racks(4) for n in range(2, 6)]
    cases.extend((dihedral_rack(5), n) for n in range(2, 5))
    cases.append((dihedral_rack(4), 6))
    forms = []
    for rack, n in cases:
        matrix = boundary_matrix(rack, n)
        forms.append((rack, n, matrix, smith_normal_form(matrix)))
    return forms


class TestBoundarySmithOracles:
    def test_unit_sweep_matches_transform_path(self, boundary_forms):
        # Transforms take 0.4-0.6 s a matrix at d_5 of a 4-element rack, so
        # d_5 is checked here only where torsion can occur.  The d_5 of a
        # permutation rack (x ▷ y independent of x) is torsion-free with rank
        # fixed by the closed forms (criteria 1-5) and is left to the F_p
        # oracle below, as is dihedral 4 d_6 (transforms take 9 s there).
        for rack, n, matrix, form in boundary_forms:
            if n == 6 or n == 5 and len(set(rack.table)) == 1:
                continue
            oracle = smith_normal_form(matrix, with_transforms=True)
            assert (form.rank, form.divisors) == (oracle.rank, oracle.divisors), (rack, n)

    def test_ranks_mod_p_match_torsion(self, boundary_forms):
        # over F_p the rank drops by the number of divisors p divides; the
        # small primes also catch torsion the Smith form might have missed
        for rack, n, matrix, form in boundary_forms:
            primes = {2, 3, 5, 1000003}.union(*map(prime_factors, form.divisors))
            for p in primes:
                dropped = sum(1 for d in form.divisors if d % p == 0)
                assert rank_mod_prime(matrix, p) == form.rank - dropped, (rack, n, p)

    def test_cleared_rows_are_unimodular_pivot_rows(self, boundary_forms):
        # the rows smith_reduce names were ±1 pivots of an elimination by
        # row operations alone, so the submatrix they form has full rank
        # over Q and over every F_p (all its divisors are 1); it is ranked
        # transposed, which is faster for these wide rows
        for rack, n, matrix, form in boundary_forms:
            columns = {}
            for (i, j), v in matrix.entries.items():
                columns.setdefault(j, {})[i] = v
            divisors, cleared = smith_reduce(columns)
            assert divisors == form.divisors
            assert len(cleared) <= divisors.count(1), (rack, n)
            index = {i: k for k, i in enumerate(sorted(cleared))}
            sub = SparseIntMatrix(matrix.col_count, len(index), {
                (j, index[i]): v for (i, j), v in matrix.entries.items() if i in index
            })
            assert rational_rank(sub) == len(cleared), (rack, n)
            for p in (2, 3, 5):
                assert rank_mod_prime(sub, p) == len(cleared), (rack, n, p)


class TestIsCycle:
    def test_degree_one_always(self):
        rack = permutation_rack(PermutationSpec((2,)))
        assert is_cycle(rack, Chain(1, {(0,): 5, (1,): -2}))

    def test_difference_times_terminal(self):
        rack = permutation_rack(PermutationSpec((2, 1)))
        c = Chain(2, {(0, 1): 1, (2, 1): -1})  # (0 - 2)·1
        assert is_cycle(rack, c)

    def test_non_cycle(self):
        rack = permutation_rack(PermutationSpec((2,)))
        assert not is_cycle(rack, Chain.monomial((0, 1)))


class TestIsRationalBoundary:
    def test_zero_chain(self):
        rack = permutation_rack(PermutationSpec((2,)))
        assert is_rational_boundary(rack, Chain.zero(1))

    def test_cross_orbit_difference_is_not(self):
        rack = permutation_rack(PermutationSpec((2, 1)))
        c = Chain(1, {(0,): 1, (2,): -1})
        assert not is_rational_boundary(rack, c)

    def test_same_orbit_difference_is(self):
        rack = permutation_rack(PermutationSpec((2,)))
        c = Chain(1, {(0,): 1, (1,): -1})  # bounded by -(0,1)
        assert is_rational_boundary(rack, c)

    def test_rejects_non_cycles(self):
        rack = permutation_rack(PermutationSpec((2,)))
        with pytest.raises(NotACycle):
            is_rational_boundary(rack, Chain.monomial((0, 1)))
