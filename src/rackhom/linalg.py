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

Without transforms, `smith_normal_form` goes through `smith_reduce`,
which reduces a matrix given by its columns in rounds.  Each round takes
the content c of what is left (the gcd of its entries) and sweeps the ±c
pivots column by column, dropping each pivot row whole (the elementary
reductions of Kaczynski, Mrozek & Ślusarek, as used for simplicial
homology by Dumas, Heckenbach, Saunders & Welker, extended from ±1 to
±c).  Only a round that finds no ±c entry falls back to one step of the
full eliminator.  Boundary matrices of racks are almost all ±1, and on
nearly every rack boundary measured, one more round at the content of what
the ±1 round leaves finishes the reduction without that step.  With
transforms, the full eliminator runs alone; it is the oracle for the sweep.

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

from .racks import Record


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
            if not (0 <= i < self.row_count and 0 <= j < self.col_count):
                raise ValueError(f"entry ({i},{j}) out of range")
            if v == 0:
                raise ValueError(f"stored zero at ({i},{j})")

    @classmethod
    def from_dense(cls, rows: list[list[int]]) -> "SparseIntMatrix":
        m = len(rows)
        n = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(m, n, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.col_count for _ in range(self.row_count)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.col_count, self.row_count,
            {(j, i): v for (i, j), v in self.entries.items()},
        )


def diagonal(row_count: int, col_count: int, values: list[int]) -> SparseIntMatrix:
    """diag(values) padded with zeros to the requested shape."""
    if len(values) > min(row_count, col_count):
        raise ValueError("too many diagonal values")
    return SparseIntMatrix(
        row_count, col_count,
        {(k, k): v for k, v in enumerate(values) if v},
    )


def matmul(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    if a.col_count != b.row_count:
        raise ValueError("shape mismatch")
    b_rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), v in b.entries.items():
        b_rows.setdefault(k, []).append((j, v))
    out: dict[tuple[int, int], int] = {}
    for (i, k), u in a.entries.items():
        for j, v in b_rows.get(k, ()):
            key = (i, j)
            w = out.get(key, 0) + u * v
            if w:
                out[key] = w
            elif key in out:
                del out[key]
    return SparseIntMatrix(a.row_count, b.col_count, out)


class SmithForm(Record):
    """Elementary divisors of an integer matrix.

    ``divisors`` is the full chain d1 | d2 | ... | d_rank (all positive,
    including any leading 1s).  When transforms were requested, ``left`` and
    ``right`` are unimodular and satisfy left @ A @ right = diag(divisors).
    """

    __slots__ = ("rank", "divisors", "left", "right")
    _defaults = {"left": None, "right": None}
    rank: int
    divisors: tuple[int, ...]
    left: SparseIntMatrix | None
    right: SparseIntMatrix | None


class _Eliminator:
    """Shared mutable state for one Smith reduction.

    Rows are dicts col->value, plus a column support index.  Pivots are never
    moved physically; positions are tracked and permuted into place at the
    end when transforms are requested.
    """

    def __init__(
        self, columns: dict[int, dict[int, int]], shape: tuple[int, int] | None = None
    ):
        """Takes over columns ({col: {row: nonzero}}), emptying it as the
        rows are built.  With shape (row count, column count), the left and
        right transforms are tracked too."""
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
        # left transform rows / right transform columns, both start as I
        self.urows = {i: {i: 1} for i in range(shape[0])} if shape else None
        self.vcols = {j: {j: 1} for j in range(shape[1])} if shape else None

    def row_addmul(self, dst: int, src: int, c: int) -> None:
        # row_dst += c * row_src, c != 0
        rows, cols = self.rows, self.cols
        rdst = rows.setdefault(dst, {})
        for j, v in rows.get(src, {}).items():
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
        if self.urows is not None:
            udst = self.urows[dst]
            for j, v in self.urows[src].items():
                w = udst.get(j, 0) + c * v
                if w:
                    udst[j] = w
                elif j in udst:
                    del udst[j]

    def col_addmul(self, dst: int, src: int, c: int) -> None:
        # col_dst += c * col_src
        for i in list(self.cols.get(src, ())):
            row = self.rows[i]
            w = row.get(dst, 0) + c * row[src]
            if w:
                if dst not in row:
                    self.cols.setdefault(dst, set()).add(i)
                row[dst] = w
            elif dst in row:
                del row[dst]
                self._drop_support(i, dst)
        if self.vcols is not None:
            vdst = self.vcols[dst]
            for i, v in self.vcols[src].items():
                w = vdst.get(i, 0) + c * v
                if w:
                    vdst[i] = w
                elif i in vdst:
                    del vdst[i]

    def negate_row(self, i: int) -> None:
        row = self.rows.get(i)
        if row:
            for j in row:
                row[j] = -row[j]
        if self.urows is not None:
            urow = self.urows[i]
            for j in urow:
                urow[j] = -urow[j]

    def _drop_support(self, i: int, j: int) -> None:
        s = self.cols[j]
        s.discard(i)
        if not s:
            del self.cols[j]

    def find_pivot(self) -> tuple[int, int] | None:
        """Minimal |value| first, then Markowitz fill (r-1)(c-1), then (i, j).

        A unit entry with zero fill is a global optimum, so the scan
        short-circuits on one.
        """
        best = None
        best_key = None
        for i, row in self.rows.items():
            rfill = len(row) - 1
            for j, v in row.items():
                av = -v if v < 0 else v
                if av == 1 and rfill == 0:
                    return (i, j)
                key = (av, rfill * (len(self.cols[j]) - 1), i, j)
                if best_key is None or key < best_key:
                    if av == 1 and key[1] == 0:
                        return (i, j)
                    best_key = key
                    best = (i, j)
        return best

    def isolate(self, pi: int, pj: int) -> tuple[int, int, int]:
        """Reduce until the pivot is alone in its row and column and divides
        every remaining entry.  Returns (row, col, divisor>0)."""
        rows, cols = self.rows, self.cols
        while True:
            p = rows[pi][pj]
            if p < 0:
                self.negate_row(pi)
                p = -p
            # clear the pivot column with row operations
            for i in sorted(cols[pj]):
                if i == pi:
                    continue
                q = rows[i][pj] // p
                if q:
                    self.row_addmul(i, pi, -q)
            leftover_rows = [i for i in cols[pj] if i != pi]
            if leftover_rows:
                # remainders in (0, p): the smallest becomes the new pivot
                pi = min(leftover_rows, key=lambda i: (rows[i][pj], i))
                continue
            # clear the pivot row with column operations; the column is
            # already clean, so these touch row pi only
            for j in sorted(rows[pi]):
                if j == pj:
                    continue
                q = rows[pi][j] // p
                if q:
                    self.col_addmul(j, pj, -q)
            leftover_cols = [j for j in rows[pi] if j != pj]
            if leftover_cols:
                pj = min(leftover_cols, key=lambda j: (rows[pi][j], j))
                continue
            if p > 1:
                bad = self._find_nondivisible(pi, p)
                if bad is not None:
                    self.row_addmul(pi, bad, 1)
                    continue
            return pi, pj, p

    def _find_nondivisible(self, pi: int, p: int) -> int | None:
        cands = []
        for i, row in self.rows.items():
            if i == pi:
                continue
            for j, v in row.items():
                if v % p:
                    cands.append((i, j))
                    break
        if not cands:
            return None
        return min(cands)[0]

    def retire(self, pi: int, pj: int) -> None:
        del self.rows[pi]
        del self.cols[pj]

    def step(self) -> tuple[int, int, int]:
        """One pivot of the full elimination: find it, isolate it, retire
        its row and column.  Returns (row, col, divisor)."""
        pi, pj, d = self.isolate(*self.find_pivot())
        self.retire(pi, pj)
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
            p = rows[pi][pj]
            for i in sorted(support):
                if i != pi:
                    self.row_addmul(i, pi, -(rows[i][pj] // p))
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
    content is 1, and nothing otherwise.  Up to then only row operations
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
    unit_pivots: list[int] | None = None
    while elim.rows:
        c = elim.content()
        pivots = elim.sweep(c)
        if unit_pivots is None:
            unit_pivots = pivots if c == 1 else []
        divisors += [c] * len(pivots)
        if not pivots:
            divisors.append(elim.step()[2])
    return tuple(divisors), set(unit_pivots or ())


def smith_normal_form(matrix: SparseIntMatrix, with_transforms: bool = False) -> SmithForm:
    """Smith normal form over Z.

    Deterministic for a given input.  Without transforms, the columns of the
    matrix go through `smith_reduce`, the content rounds that `homology`
    also runs on the boundaries it builds.  With transforms, the full
    elimination runs alone on the whole matrix; it is the oracle for the
    rounds.

    The full elimination enforces the divisor chain itself: a non-unit
    pivot absorbs any row containing an entry it does not divide before it
    is retired, so divisors come out already ordered by divisibility.
    """
    if not with_transforms:
        divisors, _ = smith_reduce(_columns_of(matrix))
        return SmithForm(rank=len(divisors), divisors=divisors)

    elim = _Eliminator(_columns_of(matrix), (matrix.row_count, matrix.col_count))
    pivots: list[tuple[int, int, int]] = []
    while elim.rows:
        pivots.append(elim.step())

    # permute pivot k to position (k, k)
    pivot_rows = [i for i, _, _ in pivots]
    pivot_cols = [j for _, j, _ in pivots]
    row_order = pivot_rows + sorted(set(range(matrix.row_count)) - set(pivot_rows))
    col_order = pivot_cols + sorted(set(range(matrix.col_count)) - set(pivot_cols))
    u_entries = {}
    for new_i, old_i in enumerate(row_order):
        for j, v in elim.urows[old_i].items():
            u_entries[(new_i, j)] = v
    v_entries = {}
    for new_j, old_j in enumerate(col_order):
        for i, v in elim.vcols[old_j].items():
            v_entries[(i, new_j)] = v
    left = SparseIntMatrix(matrix.row_count, matrix.row_count, u_entries)
    right = SparseIntMatrix(matrix.col_count, matrix.col_count, v_entries)
    divisors = tuple(d for _, _, d in pivots)
    return SmithForm(rank=len(pivots), divisors=divisors, left=left, right=right)


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


def rank_mod_prime(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over Z/p.  A lower bound on the rational rank; used only as a
    fast consistency assertion, never as the answer.

    A leading-entry column reduction like `rational_rank`'s, but over Z/p
    and written out separately so that it stays independent of both other
    rank routines: each column is reduced by its lowest nonzero row against
    the earlier column that owns that row, scaled so that its entry there
    is 1, until the column is zero or owns a row of its own.
    """
    columns: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        w = v % p
        if w:
            columns.setdefault(j, {})[i] = w
    owners: dict[int, dict[int, int]] = {}
    for j in sorted(columns):
        col = columns.pop(j)
        while col:
            low = max(col)
            owner = owners.get(low)
            if owner is None:
                scale = pow(col[low], -1, p)
                owners[low] = {i: v * scale % p for i, v in col.items()}
                break
            c = col[low]
            for i, v in owner.items():
                w = (col.get(i, 0) - c * v) % p
                if w:
                    col[i] = w
                elif i in col:
                    del col[i]
    return len(owners)


def determinant(matrix: SparseIntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if matrix.row_count != matrix.col_count:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.row_count
    if n == 0:
        return 1
    a = matrix.to_dense()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]
