"""Exact linear algebra: Smith normal form, ranks, determinants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.linalg import (
    SparseIntMatrix,
    _Eliminator,
    column_rank,
    determinant,
    diagonal,
    matmul,
    rank_mod_prime,
    rational_rank,
    reduce_column,
    smith_normal_form,
    smith_reduce,
)


def dense(rows):
    return SparseIntMatrix.from_dense(rows)


def check_smith_contract(matrix: SparseIntMatrix) -> None:
    """Every structural promise of smith_normal_form, on one input."""
    form = smith_normal_form(matrix, with_transforms=True)
    assert form.rank == len(form.divisors)
    assert all(d > 0 for d in form.divisors)
    for a, b in zip(form.divisors, form.divisors[1:]):
        assert b % a == 0
    assert form.rank == rational_rank(matrix)
    product = matmul(matmul(form.left, matrix), form.right)
    expected = diagonal(matrix.row_count, matrix.col_count, list(form.divisors))
    assert product.entries == expected.entries
    assert abs(determinant(form.left)) == 1
    assert abs(determinant(form.right)) == 1


class TestSmithNormalForm:
    def test_two_by_two_with_torsion(self):
        form = smith_normal_form(dense([[2, 4], [6, 8]]))
        assert form.rank == 2
        assert form.divisors == (2, 4)

    def test_zero_matrix(self):
        form = smith_normal_form(SparseIntMatrix(3, 3), with_transforms=True)
        assert form.rank == 0
        assert form.divisors == ()
        assert form.left.entries == SparseIntMatrix.identity(3).entries

    def test_identity(self):
        form = smith_normal_form(SparseIntMatrix.identity(3))
        assert form.rank == 3
        assert form.divisors == (1, 1, 1)

    def test_rank_deficient(self):
        form = smith_normal_form(dense([[1, 2], [2, 4]]))
        assert form.rank == 1
        assert form.divisors == (1,)

    def test_empty_dimensions(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            form = smith_normal_form(SparseIntMatrix(*shape), with_transforms=True)
            assert form.rank == 0
            assert form.left.row_count == shape[0]
            assert form.right.row_count == shape[1]

    def test_single_entry_sign_and_value(self):
        form = smith_normal_form(dense([[-6]]), with_transforms=True)
        assert form.divisors == (6,)
        check_smith_contract(dense([[-6]]))

    def test_divisor_chain_forced_across_positions(self):
        # diag(4, 6) is not in Smith form; the chain is (2, 12)
        form = smith_normal_form(dense([[4, 0], [0, 6]]))
        assert form.divisors == (2, 12)

    def test_contract_on_fixed_corpus(self):
        fixtures = [
            [[0, 0], [0, 0]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[2, 0], [0, 2], [2, 2]],
            [[3, 6], [9, 12], [15, 18]],
            [[5]],
            [[0, 7, 0], [0, 0, 0]],
        ]
        for rows in fixtures:
            check_smith_contract(dense(rows))

    def test_contract_on_random_corpus(self):
        rng = random.Random(20240817)
        for _ in range(150):
            m = rng.randint(0, 7)
            n = rng.randint(0, 7)
            rows = [
                [rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -12)) for _ in range(n)]
                for _ in range(m)
            ]
            check_smith_contract(dense(rows))

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            base = smith_normal_form(dense(rows)).divisors
            for _ in range(3):
                row_perm = list(range(m))
                col_perm = list(range(n))
                rng.shuffle(row_perm)
                rng.shuffle(col_perm)
                shuffled = [[rows[i][j] for j in col_perm] for i in row_perm]
                assert smith_normal_form(dense(shuffled)).divisors == base

    def test_transpose_has_same_divisors(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            matrix = dense(rows)
            assert (
                smith_normal_form(matrix).divisors
                == smith_normal_form(matrix.transpose()).divisors
            )

    def test_deterministic(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        first = smith_normal_form(dense(rows), with_transforms=True)
        second = smith_normal_form(dense(rows), with_transforms=True)
        assert first.divisors == second.divisors
        assert first.left.entries == second.left.entries
        assert first.right.entries == second.right.entries

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_contract_property(self, rows):
        check_smith_contract(dense(rows))


class TestUnitSweep:
    """The default path sweeps unit pivots before the full elimination; the
    transform path does not, so it is the oracle for (rank, divisors)."""

    @staticmethod
    def both_paths(matrix):
        fast = smith_normal_form(matrix)
        slow = smith_normal_form(matrix, with_transforms=True)
        assert (fast.rank, fast.divisors) == (slow.rank, slow.divisors)
        return fast.divisors

    def test_empty(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            assert self.both_paths(SparseIntMatrix(*shape)) == ()

    def test_no_unit_entry(self):
        assert self.both_paths(dense([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == (2, 2, 2)

    def test_signed_permutation_is_all_units(self):
        matrix = dense([[0, -1, 0, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 0, 1, 0]])
        assert self.both_paths(matrix) == (1, 1, 1, 1)

    def test_unit_pivot_row_with_non_units(self):
        assert self.both_paths(dense([[1, 2], [3, 4]])) == (1, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3)),
                    min_size=n,
                    max_size=n,
                ),
                max_size=8,
            )
        )
    )
    def test_mostly_unit_matrices(self, rows):
        self.both_paths(dense(rows))


def _block_diagonal(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    width_a = len(a[0]) if a else 0
    width_b = len(b[0]) if b else 0
    return [row + [0] * width_b for row in a] + [[0] * width_a + row for row in b]


class TestContentSweep:
    """The default path sweeps ±c pivots, c the content of what is left, and
    takes a full elimination step only when a round finds none; the
    transform path is the oracle."""

    both_paths = staticmethod(TestUnitSweep.both_paths)

    @staticmethod
    def round_contents(matrix, monkeypatch):
        """The content of every sweep round, in order."""
        contents = []
        sweep = _Eliminator.sweep

        def recording_sweep(self, c):
            contents.append(c)
            return sweep(self, c)

        monkeypatch.setattr(_Eliminator, "sweep", recording_sweep)
        smith_normal_form(matrix)
        monkeypatch.undo()
        return contents

    def test_no_content_entry_takes_the_fallback(self, monkeypatch):
        matrix = dense([[2, 0], [0, 3]])
        assert self.both_paths(matrix) == (1, 6)
        # the round at content 1 finds nothing; the step leaves a 6
        assert self.round_contents(matrix, monkeypatch) == [1, 6]

    def test_content_rises_between_rounds(self, monkeypatch):
        matrix = dense([[2, 0, 0], [0, 4, 4], [0, 0, 4]])
        assert self.both_paths(matrix) == (2, 4, 4)
        assert self.round_contents(matrix, monkeypatch) == [2, 4]

    def test_scaled_identity_is_one_round(self, monkeypatch):
        matrix = dense([[6 if i == j else 0 for j in range(4)] for i in range(4)])
        assert self.both_paths(matrix) == (6, 6, 6, 6)
        assert self.round_contents(matrix, monkeypatch) == [6]

    def test_negative_content_pivots(self):
        assert self.both_paths(dense([[-3, 6, 0], [0, -3, 9], [3, 0, -3]])) == (3, 3, 15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=5
            )
        ),
        st.integers(0, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4
            )
        ),
        st.sampled_from((2, 3, 6)),
    )
    def test_scaled_blocks(self, a, b, c):
        scaled_a = [[c * v for v in row] for row in a]
        scaled_b = [[c * v for v in row] for row in b]
        divisors = self.both_paths(dense(scaled_a))
        assert all(d % c == 0 for d in divisors)
        assert divisors == tuple(c * d for d in smith_normal_form(dense(a)).divisors)
        self.both_paths(dense(_block_diagonal(a, scaled_b)))


class TestSmithReduce:
    """The reducer behind smith_normal_form's default path, which also
    returns the pivot columns of its first round when that round's content
    is 1: the rows to drop from the next boundary up."""

    @staticmethod
    def columns(rows):
        matrix = dense(rows)
        columns = {}
        for (i, j), v in matrix.entries.items():
            columns.setdefault(j, {})[i] = v
        return columns

    def test_returns_the_unit_round_pivot_columns_only(self):
        # round 1 pivots at column 1, row 0, and leaves a 2 at column 0,
        # which the round at content 2 takes; that column is not returned
        assert smith_reduce(self.columns([[0, 1], [2, 1]])) == ((1, 2), {1})

    def test_no_rows_when_the_first_content_exceeds_one(self):
        assert smith_reduce(self.columns([[2, 0], [0, 2]])) == ((2, 2), set())

    def test_no_rows_from_the_fallback_step(self):
        assert smith_reduce(self.columns([[2, 0], [0, 3]])) == ((1, 6), set())

    def test_empty_and_emptied(self):
        assert smith_reduce({}) == ((), set())
        columns = self.columns([[1, 1], [0, 1]])
        assert smith_reduce(columns) == ((1, 1), {0, 1})
        assert columns == {}  # taken over


class TestRationalRank:
    def test_zero(self):
        assert rational_rank(SparseIntMatrix(4, 2)) == 0

    def test_identity(self):
        assert rational_rank(SparseIntMatrix.identity(5)) == 5

    def test_proportional_rows(self):
        assert rational_rank(dense([[1, 2], [2, 4]])) == 1

    def test_full_rank_rectangular(self):
        assert rational_rank(dense([[1, 0, 2], [0, 1, 3]])) == 2

    def test_rank_unchanged_by_scaling(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
            doubled = [[2 * v for v in row] for row in rows]
            assert rational_rank(dense(rows)) == rational_rank(dense(doubled))

    def test_smith_oracle_on_rank_deficient_sparse_matrices(self):
        # Columns appended and shuffled in: a zero column, a duplicate, and
        # a combination a·x + b·y of two others with non-unit a and b, so
        # the reduction has to clear non-unit leading entries.
        rng = random.Random(11)
        for _ in range(60):
            row_count = rng.randint(1, 14)
            cols = [
                {i: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5, 7])
                 for i in range(row_count) if rng.random() < 0.3}
                for _ in range(rng.randint(2, 12))
            ]
            x, y = rng.sample(cols, 2)
            a, b = rng.choice([2, -3, 4, 6]), rng.choice([-2, 3, 5, -9])
            combo = {i: a * x.get(i, 0) + b * y.get(i, 0) for i in set(x) | set(y)}
            cols += [{}, dict(rng.choice(cols)), combo]
            rng.shuffle(cols)
            matrix = SparseIntMatrix(row_count, len(cols), {
                (i, j): v for j, col in enumerate(cols) for i, v in col.items() if v
            })
            rank = rational_rank(matrix)
            assert rank == smith_normal_form(matrix).rank
            assert rank <= len(cols) - 3
            assert rational_rank(matrix.transpose()) == rank

    def test_full_rank_exactly_when_determinant_nonzero(self):
        # dense 30x30 with entries near 10^12 guards coefficient growth
        rng = random.Random(13)
        n = 30
        for singular in (False, False, True):
            rows = [[10 ** 12 + rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
            if singular:
                for row in rows:
                    row[n - 1] = 3 * row[0] - 7 * row[1]
            matrix = dense(rows)
            assert (rational_rank(matrix) == n) == (determinant(matrix) != 0)
            assert (determinant(matrix) == 0) == singular


class TestColumnRank:
    def test_matches_the_matrix_wrapper_on_sparse_row_keys(self):
        # Rows renamed by an increasing map keep their order, which is all
        # the reduction reads; zero columns are allowed in the column form.
        rng = random.Random(17)
        for _ in range(40):
            row_count = rng.randint(1, 10)
            cols = [
                {i: rng.choice([-4, -2, -1, 1, 3, 6]) for i in range(row_count) if rng.random() < 0.35}
                for _ in range(rng.randint(1, 9))
            ]
            cols.append(dict(rng.choice(cols)))
            matrix = SparseIntMatrix(row_count, len(cols), {
                (i, j): v for j, col in enumerate(cols) for i, v in col.items()
            })
            renamed = [{1000 * i + 7: v for i, v in col.items()} for col in cols]
            rank = column_rank(iter(renamed))
            assert rank == rational_rank(matrix) == smith_normal_form(matrix).rank
            rng.shuffle(cols)
            assert column_rank(cols) == rank

    def test_empty(self):
        assert column_rank([]) == 0
        assert column_rank([{}, {}]) == 0

    def test_reduce_column_joins_the_owners_unless_it_is_in_their_span(self):
        owners = {}
        assert reduce_column(owners, {0: 2, 3: 4})
        assert reduce_column(owners, {1: 1, 3: 6})
        assert not reduce_column(owners, {0: 6, 1: -2})  # 3·first - 2·second
        assert not reduce_column(owners, {})
        assert sorted(owners) == [1, 3]
        assert reduce_column(owners, {0: 1})
        assert sorted(owners) == [0, 1, 3]


class TestRankModPrime:
    def test_drops_exactly_on_torsion_primes(self):
        matrix = dense([[2, 4], [6, 8]])  # divisors (2, 4): both vanish mod 2
        assert rank_mod_prime(matrix, 2) == 0
        assert rank_mod_prime(matrix, 3) == 2
        assert rank_mod_prime(matrix, 2147483647) == 2
        assert rank_mod_prime(dense([[2, 0], [0, 3]]), 2) == 1

    def test_never_exceeds_rational_rank(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            matrix = dense(rows)
            rank = rational_rank(matrix)
            for p in (2, 3, 5, 65537):
                assert rank_mod_prime(matrix, p) <= rank

    def test_counts_smith_divisors_p_does_not_divide(self):
        rng = random.Random(17)
        for _ in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(n)] for _ in range(m)]
            matrix = dense(rows)
            divisors = smith_normal_form(matrix).divisors
            for p in (2, 3, 5, 7):
                expected = sum(1 for d in divisors if d % p)
                assert rank_mod_prime(matrix, p) == expected, (rows, p)


class TestDeterminant:
    def test_small_oracles(self):
        assert determinant(dense([[5]])) == 5
        assert determinant(dense([[1, 2], [3, 4]])) == -2
        assert determinant(dense([[2, 4], [6, 8]])) == -8
        assert determinant(dense([[0, 1], [1, 0]])) == -1
        assert determinant(SparseIntMatrix.identity(6)) == 1
        assert determinant(SparseIntMatrix(3, 3)) == 0
        assert determinant(SparseIntMatrix(0, 0)) == 1

    def test_multiplicative(self):
        rng = random.Random(13)
        for _ in range(25):
            a = dense([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            b = dense([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            assert determinant(matmul(a, b)) == determinant(a) * determinant(b)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant(SparseIntMatrix(2, 3))


class TestSparseIntMatrix:
    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(0, 0): 0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(2, 0): 1})
        with pytest.raises(ValueError):
            SparseIntMatrix(2, 2, {(0, -1): 1})

    def test_dense_round_trip(self):
        rows = [[0, 3], [-1, 0], [0, 0]]
        assert dense(rows).to_dense() == rows

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            dense([[1, 2], [3]])

    def test_matmul_identity(self):
        rng = random.Random(1)
        a = dense([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
        assert matmul(a, SparseIntMatrix.identity(4)).entries == a.entries
        assert matmul(SparseIntMatrix.identity(3), a).entries == a.entries

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(SparseIntMatrix(2, 3), SparseIntMatrix(2, 3))

    def test_diagonal_overflow(self):
        with pytest.raises(ValueError):
            diagonal(2, 2, [1, 2, 3])


def test_big_integer_growth_is_exact():
    # elimination on this matrix forces multi-word intermediate values
    rows = [[10 ** 12 + i * j for j in range(5)] for i in range(5)]
    rows[4][4] += 1
    matrix = dense(rows)
    check_smith_contract(matrix)
    assert rational_rank(matrix) == smith_normal_form(matrix).rank
