"""Exact sparse linear algebra over the integers.

All arithmetic uses Python's arbitrary-precision ints: coefficient growth
during elimination is unbounded and must never wrap.  The two rank routines
(`smith_normal_form` and `rational_rank`) are deliberately independent
implementations so each can serve as an oracle for the other.

`rational_rank` is a leading-entry column reduction, the column algorithm
of persistent homology (Edelsbrunner, Letscher & Zomorodian; Zomorodian &
Carlsson), run by `column_rank` on columns given as they are built (the
cycle certificate passes its detection images straight to it): each column
is reduced by its lowest nonzero row against the earlier column that owns
that row, with fraction-free integer updates, and the rank is the number of
columns left nonzero.  An update touches only the two columns involved, so
the work follows the sizes of the columns that need updates, not the square
of the row count.

`smith_normal_form` goes through `smith_reduce`, which reduces a matrix
given by its columns in rounds.  Each round takes the content c of what is
left (the gcd of its entries) and sweeps the ±c pivots column by column,
dropping each pivot row whole (the elementary reductions of Kaczynski,
Mrozek & Ślusarek, as used for simplicial homology by Dumas, Heckenbach,
Saunders & Welker, extended from ±1 to ±c).  Only a round that finds no
±c entry falls back to one step of the full eliminator.  Boundary matrices
of racks are almost all ±1, and on nearly every rack boundary measured,
one more round at the content of what the ±1 round leaves finishes the
reduction without that step.  The eliminator keeps only the divisors, not
the transforms; the tests check it against a Smith elimination with
transforms of their own, which shares none of its code.

`smith_reduce` also returns the columns of the ±1 pivots its first round
takes when that round's content is 1.  Reducing d_n (or any columns of
it) first, `homology` leaves those rows out of d_{n+1}: the cycles of d_n
are fixed by their other coordinates, so the Smith form of d_{n+1} does
not change.  This is the compression of persistent homology (Bauer,
Kerber & Reininghaus), carried over to Z with unit pivots; the lemma is in
the docstring of `smith_reduce`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .racks import Record, is_int


class SparseIntMatrix(Record):
    """Sparse integer matrix; ``entries`` maps (row, col) to a nonzero int,
    and is a new empty dict when not given.

    Treated as immutable after construction: all algorithms copy before
    eliminating.
    """

    __slots__ = ("row_count", "col_count", "entries")
    _defaults = {"entries": None}
    row_count: int
    col_count: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.entries is None:
            object.__setattr__(self, "entries", {})
        for (i, j), v in self.entries.items():
            if not (is_int(i) and is_int(j) and is_int(v)):
                raise ValueError(f"entry ({i!r},{j!r}) = {v!r}: indices and value must be ints")
            if not (0 <= i < self.row_count and 0 <= j < self.col_count):
                raise ValueError(f"entry ({i},{j}) out of range")
            if v == 0:
                raise ValueError(f"stored zero at ({i},{j})")

    @property
    def nnz(self) -> int:
        return len(self.entries)


class SmithForm(Record):
    """Elementary divisors of an integer matrix.

    ``divisors`` is the full chain d1 | d2 | ... | d_rank (all positive,
    including any leading 1s), and ``rank`` is their number.
    """

    __slots__ = ("divisors",)
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


class _Eliminator:
    """Shared mutable state for one Smith reduction.

    Rows are dicts col->value, plus a column support index.  Pivots are never
    moved physically; each retires with its row and column, and only the
    divisors are kept: no transform is tracked.
    """

    def __init__(self, columns: dict[int, dict[int, int]]):
        """Takes over columns ({col: {row: nonzero}}), emptying it as the
        rows are built."""
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        rows = self.rows
        while columns:
            j, col = columns.popitem()
            self.cols[j] = set(col)
            for i, v in col.items():
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: v}
                else:
                    row[j] = v

    def add_row(self, dst: int, src: int, c: int) -> None:
        # row_dst += c * row_src, c != 0
        rows, cols = self.rows, self.cols
        rdst = rows[dst]
        for j, v in rows[src].items():
            old = rdst.get(j)
            if old is None:
                rdst[j] = c * v
                cols[j].add(dst)
                continue
            w = old + c * v
            if w:
                rdst[j] = w
            else:
                del rdst[j]
                self._drop_support(dst, j)
        if not rdst:
            del rows[dst]

    def negate_row(self, i: int) -> None:
        row = self.rows[i]
        for j in row:
            row[j] = -row[j]

    def _drop_support(self, i: int, j: int) -> None:
        s = self.cols[j]
        s.discard(i)
        if not s:
            del self.cols[j]

    def find_pivot(self) -> tuple[int, int] | None:
        """The entry of least key (|value|, Markowitz fill (r-1)(c-1), i, j).

        `smith_reduce` steps only after a round at content c finds no ±c
        entry, so no entry left is a unit: the whole key is compared.
        """
        cols = self.cols
        best = min(
            ((abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
             for i, row in self.rows.items() for j, v in row.items()),
            default=None,
        )
        return None if best is None else best[2:]

    def clear_column(self, pi: int, pj: int) -> None:
        """row_i -= ⌊a_i/p⌋·row_pi for every other row i holding column pj,
        where p is the pivot at (pi, pj) and a_i the entry of row i there."""
        p = self.rows[pi][pj]
        for i in sorted(self.cols[pj]):
            if i != pi:
                q = self.rows[i][pj] // p
                if q:
                    self.add_row(i, pi, -q)

    def isolate(self, pi: int, pj: int) -> tuple[int, int, int]:
        """Reduce until the pivot is alone in its row and column and divides
        every remaining entry.  Returns (row, col, divisor>0)."""
        rows, cols = self.rows, self.cols
        while True:
            p = rows[pi][pj]
            if p < 0:
                self.negate_row(pi)
                p = -p
            self.clear_column(pi, pj)
            leftover_rows = [i for i in cols[pj] if i != pi]
            if leftover_rows:
                # remainders in (0, p): the smallest becomes the new pivot
                pi = min(leftover_rows, key=lambda i: (rows[i][pj], i))
                continue
            # clear the pivot row with column operations: column pj holds p
            # alone, so col_j -= q·col_pj, q = ⌊a_j/p⌋ for row pi's entry
            # a_j, touches no other row and only turns a_j into a_j mod p
            row = rows[pi]
            for j in sorted(row):
                q, r = divmod(row[j], p)
                if j == pj or not q:
                    continue
                if r:
                    row[j] = r
                else:
                    del row[j]
                    self._drop_support(pi, j)
            leftover_cols = [j for j in row if j != pj]
            if leftover_cols:
                pj = min(leftover_cols, key=lambda j: (rows[pi][j], j))
                continue
            if p > 1:
                bad = self._find_nondivisible(pi, p)
                if bad is not None:
                    self.add_row(pi, bad, 1)
                    continue
            return pi, pj, p

    def _find_nondivisible(self, pi: int, p: int) -> int | None:
        """The least row other than pi holding an entry that p does not
        divide, or None."""
        return min(
            (i for i, row in self.rows.items()
             if i != pi and any(v % p for v in row.values())),
            default=None,
        )

    def step(self) -> tuple[int, int, int]:
        """One pivot of the full elimination: find it, isolate it, drop its
        row and column.  Returns (row, col, divisor)."""
        pi, pj, d = self.isolate(*self.find_pivot())
        del self.rows[pi]
        del self.cols[pj]
        return pi, pj, d

    def content(self) -> int:
        """The gcd of every entry left; stops at the first row that makes
        it 1."""
        c = 0
        for row in self.rows.values():
            c = gcd(c, *row.values())
            if c == 1:
                break
        return c

    def sweep(self, c: int) -> list[int]:
        """Eliminate ±c pivots column by column, where c divides every entry
        left; returns their columns.

        Columns are visited in increasing order of their support at the
        start of the round, the later column first on a tie.  In each, a ±c
        entry of the shortest row clears the column by row operations, whose
        multipliers are exact because c divides every entry.  Column
        operations with that pivot would then clear its row without touching
        any other row, so the row is dropped whole: it adds one divisor c
        and leaves the Smith form of the rest unchanged, every entry of
        which is still a multiple of c.  Columns without a ±c entry stay for
        the next round.
        """
        rows, cols = self.rows, self.cols
        swept = []
        for pj in sorted(cols, key=lambda j: (len(cols[j]), -j)):
            support = cols.get(pj)
            if not support:
                continue
            pi = min(
                (i for i in support if rows[i][pj] in (c, -c)),
                key=lambda i: (len(rows[i]), i),
                default=None,
            )
            if pi is None:
                continue
            self.clear_column(pi, pj)
            for j in rows.pop(pi):
                self._drop_support(pi, j)
            swept.append(pj)
        return swept


def _columns_of(matrix: SparseIntMatrix) -> dict[int, dict[int, int]]:
    columns: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        columns.setdefault(j, {})[i] = v
    return columns


def smith_reduce(columns: dict[int, dict[int, int]]) -> tuple[tuple[int, ...], set[int]]:
    """The elementary divisors of the matrix with these columns
    ({col: {row: nonzero}}, taken over and emptied), and the rows that can
    be dropped from the next boundary up.

    The reduction runs in rounds on the eliminator's row and column maps.
    Each round takes the content c of what is left (the gcd of its entries)
    and sweeps ±c pivots (`_Eliminator.sweep`), each removing one row and
    one column and adding a divisor c.  A round that finds no ±c entry
    takes one step of the full elimination instead, whose pivot divides
    everything left and so is c again.  Row operations keep every entry a
    multiple of c, so the next round's content is a multiple of this one's
    and the divisors come out as a divisibility chain in order.

    The set returned holds the pivot columns P of the first round when its
    content is 1, and nothing otherwise; every round adds a divisor, so the
    first is the one that starts with none.  Up to then only row operations
    have run, so U·d_n, with U unimodular, is triangular with ±1 on the
    diagonal on the pivot rows and the columns P: each pivot row has ±1 at
    its own column and 0 at every earlier pivot column.  Every v in ker d_n is
    therefore fixed, over Z, by its coordinates off P, so forgetting the P
    coordinates maps ker d_n isomorphically onto a saturated sublattice.
    Since Im d_{n+1} ⊆ ker d_n, d_{n+1} without the rows P has the same
    rank and divisors.  The argument uses only the columns reduced, so it
    holds for any columns of d_n, such as those that start in a start set.
    (A later round of content c would also do until a full elimination
    step runs: each of its pivot rows is c times an integral row with ±1
    at its column.  Those pivots are few and are not returned.)  A step of
    the full elimination uses column operations, which change the basis of
    C_n, so no column is returned from it or from any round after it.
    """
    elim = _Eliminator(columns)
    divisors: list[int] = []
    unit_pivots: list[int] = []
    while elim.rows:
        c = elim.content()
        pivots = elim.sweep(c)
        if not divisors and c == 1:
            unit_pivots = pivots
        divisors += [c] * len(pivots)
        if not pivots:
            divisors.append(elim.step()[2])
    return tuple(divisors), set(unit_pivots)


def smith_normal_form(matrix: SparseIntMatrix) -> SmithForm:
    """Smith normal form over Z: the elementary divisors of the matrix.

    Deterministic for a given input.  The columns of the matrix go through
    `smith_reduce`, the content rounds that `homology` also runs on the
    boundaries it builds; a round that finds no pivot equal to ± its
    content takes one step of the full elimination, which enforces the
    divisor chain itself: a non-unit pivot absorbs any row containing an
    entry it does not divide before it is retired.
    """
    divisors, _ = smith_reduce(_columns_of(matrix))
    return SmithForm(divisors)


def column_rank(columns: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of the matrix with these columns ({row:
    nonzero} each, taken over), by leading-entry column reduction.

    The columns are reduced in the order given (`reduce_column`), and the
    rank is the number of columns left nonzero.  This is the column
    algorithm of persistent homology: each update costs the two columns'
    support, and a column whose lowest row no earlier column owns is kept
    as it is.  Row indices need not be dense: only their order matters.
    """
    owners: dict[int, dict[int, int]] = {}
    for col in columns:
        reduce_column(owners, col)
    return len(owners)


def reduce_column(owners: dict[int, dict[int, int]], col: dict[int, int]) -> bool:
    """Reduce col ({row: nonzero}, taken over) against the reduced columns
    in owners, each keyed by its lowest nonzero row; a col left nonzero
    joins them.  Returns whether it did: false when col is a rational
    combination of the owners.

    col is reduced by its lowest nonzero row (the largest row index).
    While an owner holds that row, the fraction-free update col = p·col -
    a·owner clears it, where p and a are the owner's and the column's
    entries there divided by their gcd and signed so that p > 0.  When
    p ≠ 1 the result is divided by the gcd of its entries, so every value
    stays an exact int and the scaling does not pile up from one update to
    the next.
    """
    while col:
        low = max(col)
        owner = owners.get(low)
        if owner is None:
            # a fresh copy: updates in place leave the table sized
            # for the fill, and owners live to the end
            owners[low] = dict(col)
            return True
        p, a = owner[low], col[low]
        g = gcd(p, a) if p > 0 else -gcd(p, a)
        p, a = p // g, a // g  # p > 0 now
        if p != 1:
            col = {i: p * v for i, v in col.items()}
        for i, v in owner.items():
            w = col.get(i, 0) - a * v
            if w:
                col[i] = w
            else:
                del col[i]
        if col and p != 1:
            g = gcd(*col.values())
            if g > 1:
                col = {i: v // g for i, v in col.items()}
    return False


def rational_rank(matrix: SparseIntMatrix) -> int:
    """Rank over the rationals: `column_rank` of the matrix's columns in
    column order.  Independent of `smith_normal_form` by design."""
    columns = _columns_of(matrix)
    return column_rank(columns.pop(j) for j in sorted(columns))

