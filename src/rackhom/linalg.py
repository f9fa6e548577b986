"""Exact sparse linear algebra over the integers.

All arithmetic uses Python's arbitrary-precision ints: coefficient growth
during elimination is unbounded and must never wrap.  The two rank routines
(`smith_normal_form` and `rational_rank`) are deliberately independent
implementations so each can serve as an oracle for the other.

Without transforms, `smith_normal_form` runs in two phases: a sweep that
eliminates ±1 pivots column by column (the elementary reductions of
Kaczynski, Mrozek & Ślusarek, as used for simplicial homology by Dumas,
Heckenbach, Saunders & Welker), then the full eliminator on the small
residual that has no unit left to pivot on.  Boundary matrices of racks are
almost all ±1, so the sweep does nearly all the work.  With transforms, the
full eliminator runs alone; it is the oracle for the two-phase path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


@dataclass(frozen=True)
class SparseIntMatrix:
    """Sparse integer matrix; ``entries`` maps (row, col) to a nonzero int.

    Treated as immutable after construction: all algorithms copy before
    eliminating.
    """

    row_count: int
    col_count: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class SmithForm:
    """Elementary divisors of an integer matrix.

    ``divisors`` is the full chain d1 | d2 | ... | d_rank (all positive,
    including any leading 1s).  When transforms were requested, ``left`` and
    ``right`` are unimodular and satisfy left @ A @ right = diag(divisors).
    """

    rank: int
    divisors: tuple[int, ...]
    left: SparseIntMatrix | None = None
    right: SparseIntMatrix | None = None


class _Eliminator:
    """Shared mutable state for one Smith reduction.

    Rows are dicts col->value, plus a column support index.  Pivots are never
    moved physically; positions are tracked and permuted into place at the
    end when transforms are requested.
    """

    def __init__(self, matrix: SparseIntMatrix, with_transforms: bool):
        self.m = matrix.row_count
        self.n = matrix.col_count
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for (i, j), v in matrix.entries.items():
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        self.with_transforms = with_transforms
        # left transform rows / right transform columns, both start as I
        self.urows = {i: {i: 1} for i in range(self.m)} if with_transforms else None
        self.vcols = {j: {j: 1} for j in range(self.n)} if with_transforms else None

    def row_addmul(self, dst: int, src: int, c: int) -> None:
        # row_dst += c * row_src
        rdst = self.rows.setdefault(dst, {})
        for j, v in self.rows.get(src, {}).items():
            w = rdst.get(j, 0) + c * v
            if w:
                if j not in rdst:
                    self.cols[j].add(dst)
                rdst[j] = w
            elif j in rdst:
                del rdst[j]
                self._drop_support(dst, j)
        if not rdst:
            del self.rows[dst]
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

    def sweep_units(self) -> int:
        """Eliminate unit pivots column by column; returns how many.

        Columns are visited in increasing order of their initial support.
        In each, a ±1 entry of the shortest row clears the column by row
        operations.  Column operations with that unit would then clear its
        row without touching any other row, so the row is dropped whole: it
        adds one divisor 1 and leaves the Smith form of the rest unchanged.
        Columns without a ±1 entry stay for the full elimination.
        """
        rows, cols = self.rows, self.cols
        units = 0
        for pj in sorted(cols, key=lambda j: (len(cols[j]), j)):
            support = cols.get(pj)
            if not support:
                continue
            pi = min(
                (i for i in support if rows[i][pj] in (1, -1)),
                key=lambda i: (len(rows[i]), i),
                default=None,
            )
            if pi is None:
                continue
            p = rows[pi][pj]
            for i in sorted(support):
                if i != pi:
                    self.row_addmul(i, pi, -p * rows[i][pj])
            for j in rows.pop(pi):
                self._drop_support(pi, j)
            units += 1
        return units


def smith_normal_form(matrix: SparseIntMatrix, with_transforms: bool = False) -> SmithForm:
    """Smith normal form over Z.

    Deterministic for a given input.  Without transforms, a sweep of unit
    pivots (`_Eliminator.sweep_units`) first removes one row and one column
    per ±1 pivot, each adding a divisor 1; the full elimination below then
    reduces only the residual, in the same row and column maps.  The
    divisors are the sweep's 1s followed by the residual's, which is a
    divisibility chain since 1 divides everything.  With transforms, the
    sweep is skipped and the full elimination runs on the whole matrix.

    The divisor chain is enforced during elimination: a non-unit pivot
    absorbs any row containing an entry it does not divide before it is
    retired, so divisors come out already ordered by divisibility.
    """
    elim = _Eliminator(matrix, with_transforms)
    units = 0 if with_transforms else elim.sweep_units()
    pivots: list[tuple[int, int, int]] = []
    while elim.rows:
        pos = elim.find_pivot()
        if pos is None:  # pragma: no cover - rows holds only nonempty rows
            break
        pi, pj, d = elim.isolate(*pos)
        pivots.append((pi, pj, d))
        elim.retire(pi, pj)
    divisors = tuple(d for _, _, d in pivots)
    if not with_transforms:
        return SmithForm(rank=units + len(pivots), divisors=(1,) * units + divisors)

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
    return SmithForm(rank=len(pivots), divisors=divisors, left=left, right=right)


def rational_rank(matrix: SparseIntMatrix) -> int:
    """Rank over the rationals by fraction-free row elimination.

    Rows are rescaled by the pivot before subtraction and divided by their
    gcd afterwards, so everything stays in Z while the rank over Q is
    preserved.  Independent of `smith_normal_form` by design.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
    work = [rows[i] for i in sorted(rows)]
    rank = 0
    while work:
        r_star = min(range(len(work)), key=lambda r: (len(work[r]), r))
        prow = work.pop(r_star)
        j_star = min(prow, key=lambda j: (abs(prow[j]), j))
        p = prow[j_star]
        rank += 1
        reduced = []
        for row in work:
            a = row.get(j_star)
            if a is None:
                reduced.append(row)
                continue
            new = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                w = new.get(j, 0) - a * v
                if w:
                    new[j] = w
                elif j in new:
                    del new[j]
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
                reduced.append(new)
        work = reduced
    return rank


def rank_mod_prime(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over Z/p.  A lower bound on the rational rank; used only as a
    fast consistency assertion, never as the answer."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        w = v % p
        if w:
            rows.setdefault(i, {})[j] = w
    work = [rows[i] for i in sorted(rows)]
    rank = 0
    while work:
        prow = work.pop(min(range(len(work)), key=lambda r: (len(work[r]), r)))
        j_star = min(prow)
        pinv = pow(prow[j_star], -1, p)
        rank += 1
        reduced = []
        for row in work:
            a = row.get(j_star)
            if a is None:
                reduced.append(row)
                continue
            c = (a * pinv) % p
            new = dict(row)
            for j, v in prow.items():
                w = (new.get(j, 0) - c * v) % p
                if w:
                    new[j] = w
                elif j in new:
                    del new[j]
            if new:
                reduced.append(new)
        work = reduced
    return rank


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
