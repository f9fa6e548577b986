"""Acceptance suite: nine end-to-end checks, one test per criterion.

Every comparison is exact integer arithmetic; there are no tolerances.
Criteria 1 and 2 carry wall-clock budgets, measured cold within the test.
"""

import random
import time

from rackhom import (
    Chain,
    PermutationSpec,
    SparseIntMatrix,
    apply_boundary,
    basis_recipes,
    betti,
    boundary_matrix,
    dihedral_rack,
    e2_rank,
    free_permutation_rack_rank,
    free_rack_rank,
    functional_equation_check,
    homology_table,
    independence_certificate,
    kunneth_gap,
    orbit_average,
    orbit_decomposition,
    permutation_rack,
    poincare_series,
    rational_rank,
    smith_normal_form,
    trivial_rack,
    validate_rack,
)

from corpus import finite_specs, random_chain
from oracles import determinant, diagonal, matmul, reduce_to_start_set, smith_form


def e2_total(spec: PermutationSpec, n: int) -> int:
    return sum(e2_rank(spec, n - q, q) for q in range(n + 1))


def shifted(rack, c):
    phi = rack.table[0]
    return c.map_monomials(lambda mono: tuple(phi[v] for v in mono))


def report(number: int, detail: str) -> None:
    print(f"criterion {number} PASS: {detail}")


def test_criterion_1_single_orbit_cycles():
    started = time.perf_counter()
    for d in (1, 2, 3, 5):
        rack = permutation_rack(PermutationSpec((d,)))
        top = 4 if d == 5 else 5
        for n, group in enumerate(homology_table(rack, top)):
            assert group.free_rank == 1, (d, n)
            assert group.torsion == (), (d, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"d-cycles d=1,2,3,5 all rank 1, torsion free, {elapsed:.1f}s")


def test_criterion_2_two_orbit_doubling():
    spec = PermutationSpec((2, 2))
    rack = permutation_rack(spec)
    started = time.perf_counter()
    groups = homology_table(rack, 4)
    elapsed = time.perf_counter() - started
    ranks = [group.free_rank for group in groups]
    assert ranks == [1, 2, 4, 8, 16]
    assert all(group.torsion == () for group in groups)
    assert ranks == [betti(spec, n) for n in range(5)]
    assert ranks == [e2_total(spec, n) for n in range(5)]
    assert elapsed < 60.0
    report(2, f"(0 1)(2 3) ranks {ranks} match recursion and page totals, {elapsed:.1f}s")


def test_criterion_3_trivial_racks_zero_differential():
    for size in (2, 3):
        rack = trivial_rack(size)
        for n in range(1, 6):
            assert boundary_matrix(rack, n).nnz == 0, (size, n)
        for n, group in enumerate(homology_table(rack, 4)):
            assert group.free_rank == size ** n, (size, n)
            assert group.torsion == (), (size, n)
    report(3, "trivial racks on 2 and 3 elements: zero matrices, ranks |S|^n")


def test_criterion_4_mixed_orbit_sizes():
    spec = PermutationSpec((3, 1))
    rack = permutation_rack(spec)
    group = homology_table(rack, 2)[2]
    formula = spec.r * (spec.r - 1) + spec.r_fin
    assert formula == 4
    assert group.free_rank == formula
    assert group.torsion == ()
    report(4, "(0 1 2)(3) degree 2 rank 4, brute force equals formula")


def test_criterion_5_four_way_rank_agreement():
    checked = 0
    for spec in finite_specs(5):
        rack = permutation_rack(spec)
        groups = homology_table(rack, 4)
        for n in range(5):
            brute = groups[n].free_rank
            assert groups[n].torsion == (), (spec, n)
            assert e2_total(spec, n) == brute, (spec, n)
            recipes = basis_recipes(rack, n)
            assert len(recipes) == brute, (spec, n)
            rank, independent = independence_certificate(
                rack, [recipe.evaluate() for recipe in recipes]
            )
            assert independent and rank == brute, (spec, n)
            checked += 1
    report(5, f"page totals = brute rank = basis size = certificate on {checked} cells")


def test_criterion_6_closed_form_consistency():
    terms = 20
    for r in range(1, 7):
        for r_fin in range(0, r + 1):
            spec = PermutationSpec((1,) * r_fin, r - r_fin)
            series = poincare_series(spec, terms)
            for n in range(terms):
                value = series.coefficient(n)
                assert value == betti(spec, n), (r, r_fin, n)
                assert value == e2_total(spec, n), (r, r_fin, n)
    for r in range(1, 11):
        assert functional_equation_check(r)
    for r in range(1, 7):
        spec = PermutationSpec((), r)
        for n in range(terms):
            assert free_permutation_rack_rank(r, n) == betti(spec, n), (r, n)
    assert kunneth_gap(2, 2) == (2, 6)
    for r in range(1, 7):
        for n in range(2, 9):
            actual, naive = kunneth_gap(r, n)
            assert actual != naive, (r, n)
    report(6, "series = recursion = page totals, functional equation, product gap")


def test_criterion_7_property_suites():
    rng = random.Random(20260815)

    def random_rack(index):
        variant = index % 3
        if variant == 0:
            size = rng.randint(1, 5)
            phi = list(range(size))
            rng.shuffle(phi)
            return validate_rack([phi] * size)
        if variant == 1:
            return validate_rack(dihedral_rack(rng.randint(1, 5)).table)
        spec = rng.choice(finite_specs(5))
        return validate_rack(permutation_rack(spec).table)

    for index in range(100):
        rack = random_rack(index)
        c = random_chain(rng, rack, rng.randint(0, 4))
        assert not apply_boundary(rack, apply_boundary(rack, c)), index

    perm_racks = [permutation_rack(spec) for spec in finite_specs(5)]
    for index in range(100):
        rack = rng.choice(perm_racks)
        c = random_chain(rng, rack, rng.randint(1, 3))
        x = rng.randrange(rack.size)
        left = apply_boundary(rack, c.prepend(x)) + apply_boundary(rack, c).prepend(x)
        assert left == c - shifted(rack, c), index

    fixed_point_racks = [
        permutation_rack(spec) for spec in finite_specs(5)
        if 1 in spec.finite_orbit_sizes
    ]
    for index in range(100):
        rack = rng.choice(fixed_point_racks)
        phi = rack.table[0]
        c = random_chain(rng, rack, rng.randint(1, 3))
        dc = apply_boundary(rack, c)
        x, y = rng.randrange(rack.size), rng.randrange(rack.size)
        difference = c.prepend(x) - c.prepend(y)
        assert apply_boundary(rack, difference) == -(dc.prepend(x) - dc.prepend(y))
        t = rng.choice([v for v in range(rack.size) if phi[v] == v])
        square = c.prepend(t).prepend(t)
        assert apply_boundary(rack, square) == dc.prepend(t).prepend(t)
        t = rng.randrange(rack.size)
        averaged = orbit_average(rack, t, c)
        assert apply_boundary(rack, averaged) == orbit_average(rack, t, dc)

    for index in range(50):
        rack = rng.choice(perm_racks)
        starts = [orbit[0] for orbit in orbit_decomposition(rack.table[0]).orbits]
        c = random_chain(rng, rack, rng.randint(1, 3))
        reduced, witness = reduce_to_start_set(rack.table[0], dict(c.terms()), starts)
        reduced, witness = Chain(c.degree, reduced), Chain(c.degree + 1, witness)
        assert reduced == c + apply_boundary(rack, witness), index
        assert all(mono[0] in starts for mono in reduced.support()), index

    report(7, "d after d, homotopy, three chain map identities, 50 reductions")


def test_criterion_8_smith_form_on_random_matrices():
    rng = random.Random(97)

    def random_matrix():
        rows = rng.randint(1, 50)
        cols = rng.randint(1, 50)
        density = rng.choice([0.08, 0.2, 0.5])
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    entries[(i, j)] = rng.randint(1, 9) * rng.choice([1, -1])
        return SparseIntMatrix(rows, cols, entries)

    for index in range(200):
        matrix = random_matrix()
        form = smith_normal_form(matrix)
        divisors, left, right = smith_form(matrix)
        assert form.divisors == divisors, index
        for a, b in zip(form.divisors, form.divisors[1:]):
            assert b % a == 0, index
        product = matmul(matmul(left, matrix), right)
        assert product == diagonal(
            matrix.row_count, matrix.col_count, list(divisors)
        ), index
        assert abs(determinant(left)) == 1, index
        assert abs(determinant(right)) == 1, index
        assert form.rank == rational_rank(matrix), index
        rperm = list(range(matrix.row_count))
        cperm = list(range(matrix.col_count))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        shuffled = SparseIntMatrix(
            matrix.row_count,
            matrix.col_count,
            {(rperm[i], cperm[j]): v for (i, j), v in matrix.entries.items()},
        )
        assert smith_normal_form(shuffled).divisors == form.divisors, index

    report(8, "200 matrices: chain, reconstruction, unimodularity, rank, permutation")


def test_criterion_9_infinite_cases_by_formula():
    assert [free_permutation_rack_rank(1, n) for n in range(9)] == [1, 1] + [0] * 7
    for generators in range(1, 6):
        values = [free_rack_rank(generators, m) for m in range(7)]
        assert values == [1, generators, 0, 0, 0, 0, 0]
    report(9, "monogenic free permutation rack 1,1,0,..; free rack 1,n,0")
