"""Brute-force homology groups and cycle predicates."""

import random
import time

import pytest

import rackhom.homology
from corpus import mixed_racks, permutation_racks, random_chain, relabeled_rack
from oracles import rank_mod_prime, smith_form
from rackhom.chains import (
    Chain,
    DegreeTooLarge,
    apply_boundary,
    boundary_columns,
    boundary_matrix,
)
from rackhom.cycles import basis_recipes, cycle_basis
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
    rational_rank,
    smith_normal_form,
    smith_reduce,
)
from rackhom.racks import (
    FiniteRack,
    PermutationSpec,
    dihedral_rack,
    orbit_count,
    orbit_decomposition,
    permutation_rack,
    start_set,
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

    def test_both_degrees_are_checked_before_either_is_built(self):
        # d_1000000 fits the cap and took 9 s and 291 MB to build and reduce
        start = time.perf_counter()
        with pytest.raises(DegreeTooLarge, match=r"^degree 1000001 exceeds the cap of 1000000$"):
            rack_homology(trivial_rack(1), 10**6)
        assert time.perf_counter() - start < 1.0
        # where both fail, the smaller degree is named
        with pytest.raises(DegreeTooLarge, match=r"^3\^4 basis monomials exceed the cap of 80$"):
            rack_homology(permutation_rack(PermutationSpec((3,))), 4, cap=80)

    def test_no_entry_point_computes_a_power_past_the_cap(self):
        # 3^(10^7) alone takes seconds, and each tenfold degree some 28 times more
        dihedral, cycle = dihedral_rack(3), permutation_rack(PermutationSpec((3,)))
        monomials = r"^3\^1000000000 basis monomials exceed the cap of 1000000$"
        for entry, rack, message in (
            (boundary_columns, dihedral, monomials),
            (boundary_matrix, dihedral, monomials),
            (rack_homology, dihedral, monomials),
            (basis_recipes, cycle, r"^3\^13 exceeds the cap of 1000000$"),
        ):
            start = time.perf_counter()
            with pytest.raises(DegreeTooLarge, match=message):
                entry(rack, 10**9)
            assert time.perf_counter() - start < 1.0, entry

    def test_one_element_rack_is_held_to_the_cap_at_every_entry_point(self):
        # |X|^n is 1 in every degree there, but a boundary's or a level's
        # work grows with n, and the recipes' factors with n²
        point = trivial_rack(1)
        degree = r"^degree 1000000000 exceeds the cap of 1000000$"
        factors = r"^250000000500000000 cycle recipe factors exceed the cap of 1000000$"
        for entry, message in (
            (rack_homology, degree),
            (boundary_matrix, degree),
            (boundary_columns, degree),
            (cycle_basis, factors),
            (basis_recipes, factors),
        ):
            start = time.perf_counter()
            with pytest.raises(DegreeTooLarge, match=message):
                entry(point, 10**9)
            assert time.perf_counter() - start < 1.0, entry
        with pytest.raises(DegreeTooLarge, match=r"^degree 7 exceeds the cap of 6$"):
            boundary_columns(point, 7, cap=6)
        boundary_columns(point, 7, cap=7)
        # degrees 0..7 there take 16 recipe factors, which cycle_basis evaluates
        with pytest.raises(DegreeTooLarge, match=r"^16 cycle recipe factors exceed the cap of 15$"):
            cycle_basis(point, 7, cap=15)
        assert cycle_basis(point, 7, cap=16) == [Chain.monomial((0,) * 7)]
        assert rack_homology(point, 6, cap=7) == HomologyGroup(1)


class TestHomologyTable:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match=r"^negative degree$"):
            homology_table(dihedral_rack(3), -1)
        with pytest.raises(ValueError, match=r"^negative degree$"):
            homology_table(trivial_rack(2), -1, cap=0)  # before the cap

    def test_free_ranks_are_checked_against_the_orbit_count(self, monkeypatch):
        reduce = rackhom.homology.smith_reduce
        degrees = iter(range(2, 5))  # d_2, d_3, d_4, bottom up

        def dropping_d3(columns):
            divisors, pivots = reduce(columns)
            return (divisors[1:] if next(degrees) == 3 else divisors), pivots

        monkeypatch.setattr(rackhom.homology, "smith_reduce", dropping_d3)
        # rank d_3 one short leaves HR_2 one too wide
        with pytest.raises(AssertionError, match=r"^free rank 2 of HR_2 is not o\^2 = 1$"):
            homology_table(dihedral_rack(3), 3)
        assert next(degrees) == 4

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
        built, reduced, dropped, returned = [], [], [], []
        build = rackhom.homology.boundary_columns
        reduce = rackhom.homology.smith_reduce

        def recording_build(rack, n, cap, starts, drop_rows):
            built.append(n)
            dropped.append(set(drop_rows))
            return build(rack, n, cap, starts, drop_rows)

        def recording_reduce(columns):
            reduced.append(built[-1])
            divisors, pivots = reduce(columns)
            returned.append(set(pivots))
            return divisors, pivots

        monkeypatch.setattr(rackhom.homology, "boundary_columns", recording_build)
        monkeypatch.setattr(rackhom.homology, "smith_reduce", recording_reduce)
        rack = dihedral_rack(3)
        homology_table(rack, 3)
        assert reduced == [2, 3, 4]  # d_2, d_3, d_4, bottom up
        homology_table(rack, 3)
        assert reduced == [2, 3, 4] * 2
        assert built == reduced
        # d_2 drops nothing; each d_n drops the rows d_{n-1} returned
        for call in (0, 3):
            assert dropped[call] == set()
            assert dropped[call + 1 : call + 3] == returned[call : call + 2]
        assert all(returned[:2]), "dihedral 3 compresses d_3 and d_4"

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
        # on one element every |X|^n is 1, but the digits of the bases,
        # the sum of n·|X|^n over d_2 .. d_{D+1}, grow with D²
        point = trivial_rack(1)
        message = r"^1000404 basis digits of d_2 \.\. d_1414 exceed the cap of 1000000$"
        for degree in (1413, 10000, 10**9):
            with pytest.raises(DegreeTooLarge, match=message):
                homology_table(point, degree)
        with pytest.raises(DegreeTooLarge, match=r"^230 basis digits of d_2 \.\. d_21 "):
            homology_table(point, 20, cap=229)
        monkeypatch.undo()
        assert homology_table(point, 20, cap=230) == [HomologyGroup(1)] * 21

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


ALEXANDER = ((4, 3), (8, 3), (9, 2))

TABLE_CASES = (
    [pytest.param(rack, 4, id=f"mixed-{i}") for i, rack in enumerate(mixed_racks(4))]
    + [pytest.param(dihedral_rack(k), 3, id=f"dihedral-{k}") for k in (3, 5, 6, 7)]
    + [
        pytest.param(alexander_quandle(m, t), 3, id=f"alexander-{m}-{t}")
        for m, t in ALEXANDER
    ]
    # relabeled, so that the start set is no longer {0, 1}
    + [
        pytest.param(relabeled_rack(dihedral_rack(k), k), 3, id=f"dihedral-{k}-relabeled")
        for k in (4, 5, 6, 7, 8)
    ]
    + [
        pytest.param(
            relabeled_rack(alexander_quandle(m, t), m), 3, id=f"alexander-{m}-{t}-relabeled"
        )
        for m, t in ((8, 3), (9, 2))
    ]
)


@pytest.mark.parametrize(("rack", "max_degree"), TABLE_CASES)
def test_table_matches_each_degree_reduced_whole(rack, max_degree):
    # rack_homology reduces d_n and d_{n+1} whole, with no start set and no
    # column cleared; the Alexander quandles bring Z/2, Z/8 and Z/3 torsion
    oracle = [rack_homology(rack, n) for n in range(max_degree + 1)]
    assert homology_table(rack, max_degree) == oracle


def inner_orbit_count(rack: FiniteRack) -> int:
    """The number of orbits of X under the maps x▷(-), found by a search
    that follows every map forwards (each is a permutation)."""
    seen: set[int] = set()
    count = 0
    for root in range(rack.size):
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            y = stack.pop()
            for x in range(rack.size):
                z = rack.op(x, y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return count


@pytest.mark.parametrize(("rack", "max_degree"), TABLE_CASES)
def test_free_rank_is_the_orbit_count_to_the_degree(rack, max_degree):
    # Etingof & Graña: the free rank of HR_n of a finite rack is o^n, o the
    # number of orbits under the maps x▷(-); no reduction is needed for it
    o = inner_orbit_count(rack)
    assert orbit_count(rack) == o
    ranks = [group.free_rank for group in homology_table(rack, max_degree)]
    assert ranks == [o ** n for n in range(max_degree + 1)]


def reaches(rack: FiniteRack, starts: tuple[int, ...]) -> set[int]:
    """The elements that some sequence of moves t▷(-), t in starts, takes
    into starts, found by growing the set backwards from starts."""
    reached = set(starts)
    grown = True
    while grown:
        grown = False
        for x in range(rack.size):
            if x not in reached and any(rack.op(t, x) in reached for t in starts):
                reached.add(x)
                grown = True
    return reached


START_SET_RACKS = (
    mixed_racks(5)
    + [dihedral_rack(k) for k in range(3, 9)]
    + [alexander_quandle(m, t) for m, t in ALEXANDER]
    + [relabeled_rack(dihedral_rack(k), seed) for k in (4, 5, 6, 8) for seed in range(3)]
    + [relabeled_rack(alexander_quandle(m, t), seed) for m, t in ALEXANDER for seed in range(3)]
)


class TestStartSet:
    def test_every_element_reaches_the_start_set(self):
        for rack in START_SET_RACKS:
            assert reaches(rack, start_set(rack)) == set(range(rack.size)), rack

    def test_one_element_per_orbit_on_permutation_racks(self):
        for rack in permutation_racks(6):
            orbits = orbit_decomposition(rack.table[0]).orbits
            assert start_set(rack) == tuple(sorted(orbit[0] for orbit in orbits))

    def test_two_elements_on_relabeled_dihedral_and_alexander_racks(self):
        racks = [dihedral_rack(k) for k in (4, 5, 6, 7, 8)]
        racks += [alexander_quandle(m, t) for m, t in ((8, 3), (9, 2))]
        for rack in racks:
            for seed in range(30):
                assert len(start_set(relabeled_rack(rack, seed))) == 2, (rack, seed)

    def test_start_set_columns_keep_the_smith_form(self, boundary_forms):
        # the fixture's racks and degrees: mixed_racks(4) d_2 .. d_5,
        # dihedral 5 d_2 .. d_4 and dihedral 4 d_6
        for rack, n, _, form in boundary_forms:
            divisors, _ = smith_reduce(boundary_columns(rack, n, starts=start_set(rack)))
            assert divisors == form.divisors, (rack, n)

    @pytest.mark.parametrize(
        "rack",
        [pytest.param(dihedral_rack(k), id=f"dihedral-{k}") for k in (3, 6, 7)]
        + [pytest.param(alexander_quandle(m, t), id=f"alexander-{m}-{t}") for m, t in ALEXANDER]
        + [
            pytest.param(relabeled_rack(dihedral_rack(k), k), id=f"dihedral-{k}-relabeled")
            for k in (5, 6, 7)
        ]
        + [
            pytest.param(
                relabeled_rack(alexander_quandle(m, t), m), id=f"alexander-{m}-{t}-relabeled"
            )
            for m, t in ALEXANDER
        ],
    )
    def test_start_set_columns_keep_the_smith_form_with_torsion(self, rack):
        for n in (2, 3, 4):
            whole = smith_normal_form(boundary_matrix(rack, n)).divisors
            divisors, _ = smith_reduce(boundary_columns(rack, n, starts=start_set(rack)))
            assert divisors == whole, n

    def test_a_set_that_misses_an_orbit_loses_rank(self):
        # {0} never reaches the orbit {3, 4} of perm (3, 2): the columns
        # that start with 0 span less than d_3 and d_4, so the check can fail
        rack = permutation_rack(PermutationSpec((3, 2)))
        for n in (3, 4):
            whole = smith_normal_form(boundary_matrix(rack, n)).rank
            divisors, _ = smith_reduce(boundary_columns(rack, n, starts={0}))
            assert len(divisors) < whole, n


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
        # The oracle's elimination (oracles.smith_form, which tracks the
        # transforms) takes up to 0.3 s a matrix at d_5 of a 4-element rack
        # (2-core host, CPython 3.11), so d_5 is checked here only where
        # torsion can occur.  The d_5 of a permutation rack (x ▷ y
        # independent of x) is torsion-free with rank fixed by the closed
        # forms (criteria 1-5) and is left to the F_p oracle below, as is
        # dihedral 4 d_6 (the oracle takes 7 s there).
        for rack, n, matrix, form in boundary_forms:
            if n == 6 or n == 5 and len(set(rack.table)) == 1:
                continue
            divisors, _, _ = smith_form(matrix)
            assert (form.rank, form.divisors) == (len(divisors), divisors), (rack, n)

    def test_ranks_mod_p_match_torsion(self, boundary_forms):
        # over F_p the rank drops by the number of divisors p divides; the
        # small primes also catch torsion the Smith form might have missed
        for rack, n, matrix, form in boundary_forms:
            primes = {2, 3, 5, 1000003}.union(*map(prime_factors, form.divisors))
            for p in primes:
                dropped = sum(1 for d in form.divisors if d % p == 0)
                assert rank_mod_prime(matrix, p) == form.rank - dropped, (rack, n, p)

    def test_pivot_columns_are_unimodular(self, boundary_forms):
        # the columns smith_reduce names were ±1 pivots of an elimination by
        # row operations alone, so the submatrix they form has full rank
        # over Q and over every F_p (a unimodular block lies in it)
        for rack, n, matrix, form in boundary_forms:
            divisors, pivots = smith_reduce(boundary_columns(rack, n))
            assert divisors == form.divisors
            assert len(pivots) <= divisors.count(1), (rack, n)
            index = {j: k for k, j in enumerate(sorted(pivots))}
            sub = SparseIntMatrix(matrix.row_count, len(index), {
                (i, index[j]): v for (i, j), v in matrix.entries.items() if j in index
            })
            assert rational_rank(sub) == len(pivots), (rack, n)
            for p in (2, 3, 5):
                assert rank_mod_prime(sub, p) == len(pivots), (rack, n, p)

    def test_next_boundary_without_the_pivot_rows_keeps_its_smith_form(self, boundary_forms):
        # the compression lemma on whole boundaries, without start sets
        forms = {(id(rack), n): form for rack, n, _, form in boundary_forms}
        for rack, n, _, _ in boundary_forms:
            above = forms.get((id(rack), n + 1))
            if above is None:
                continue
            _, pivots = smith_reduce(boundary_columns(rack, n))
            divisors, _ = smith_reduce(boundary_columns(rack, n + 1, drop_rows=pivots))
            assert divisors == above.divisors, (rack, n)


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

    @pytest.mark.parametrize("rack", [
        relabeled_rack(dihedral_rack(4), 1),
        relabeled_rack(alexander_quandle(8, 3), 2),
        relabeled_rack(permutation_rack(PermutationSpec((2, 2, 1))), 3),
        permutation_rack(PermutationSpec((2, 1))),
        permutation_rack(PermutationSpec((3, 2))),
        dihedral_rack(6),
    ])
    def test_relabeled_racks_match_the_whole_boundary(self, rack):
        # whole-boundary oracle: does c raise the rank of all of d_{n+1}?
        def bounds(c):
            matrix = boundary_matrix(rack, c.degree + 1)
            extra = {(sum(v * rack.size ** k for k, v in enumerate(reversed(mono))),
                      matrix.col_count): coeff for mono, coeff in c.terms()}
            stacked = SparseIntMatrix(
                matrix.row_count, matrix.col_count + 1, {**matrix.entries, **extra}
            )
            return rational_rank(stacked) == rational_rank(matrix)

        rng = random.Random(rack.size)
        cycles = [Chain(1, {(x,): 1, (y,): -1}) for x in range(rack.size) for y in range(x)]
        cycles += [apply_boundary(rack, random_chain(rng, rack, 3)) for _ in range(10)]
        if len(set(rack.table)) == 1:
            for degree in (2, 3):
                basis = cycle_basis(rack, degree)
                cycles += basis + [
                    b + apply_boundary(rack, random_chain(rng, rack, degree + 1)) for b in basis
                ]
        answers = [is_rational_boundary(rack, c) for c in cycles]
        assert answers == [bounds(c) for c in cycles]
        assert True in answers and False in answers
