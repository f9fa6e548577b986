"""Reference algebra for the tests, written apart from the engine.

`smith_form` is a plain Smith elimination with transforms: it returns the
elementary divisors of a matrix and unimodular U and V with
U·A·V = diag(divisors).  `rank_mod_prime` is the rank over Z/p, a
column reduction of its own.  `reduce_to_start_set` rewrites a chain of a
permutation rack, given by its permutation φ, modulo boundaries so that
every monomial starts in a start set, with `monomial_boundary` as its
boundary.  None of them shares code with `rackhom`, so a fault there
cannot hide by reaching both sides of a comparison; of `rackhom` this
module uses only `SparseIntMatrix` as the matrix type.  The helpers
`dense`, `rows_of`, `identity`, `transpose`, `diagonal`, `matmul` and
`determinant` build inputs and check the transforms.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from rackhom.linalg import SparseIntMatrix

Monomial = tuple[int, ...]


def dense(rows: list[list[int]]) -> SparseIntMatrix:
    """The matrix with these rows, all of one length."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    return SparseIntMatrix(len(rows), width, {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v
    })


def rows_of(matrix: SparseIntMatrix) -> list[list[int]]:
    """The rows of the matrix, zeros included."""
    rows = [[0] * matrix.col_count for _ in range(matrix.row_count)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
    return rows


def identity(n: int) -> SparseIntMatrix:
    return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(matrix: SparseIntMatrix) -> SparseIntMatrix:
    return SparseIntMatrix(
        matrix.col_count, matrix.row_count,
        {(j, i): v for (i, j), v in matrix.entries.items()},
    )


def diagonal(row_count: int, col_count: int, values: list[int]) -> SparseIntMatrix:
    """diag(values) padded with zeros to the requested shape."""
    if len(values) > min(row_count, col_count):
        raise ValueError("too many diagonal values")
    return SparseIntMatrix(row_count, col_count, {(k, k): v for k, v in enumerate(values) if v})


def matmul(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    if a.col_count != b.row_count:
        raise ValueError("shape mismatch")
    b_rows: dict[int, dict[int, int]] = {}
    for (k, j), v in b.entries.items():
        b_rows.setdefault(k, {})[j] = v
    out: dict[tuple[int, int], int] = {}
    for (i, k), u in a.entries.items():
        for j, v in b_rows.get(k, {}).items():
            out[i, j] = out.get((i, j), 0) + u * v
    return SparseIntMatrix(a.row_count, b.col_count, {key: v for key, v in out.items() if v})


def determinant(matrix: SparseIntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if matrix.row_count != matrix.col_count:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.row_count
    a = rows_of(matrix)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * row_k[j]) // prev
            row[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def _add(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """dst += c·src on sparse vectors ({index: nonzero})."""
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def _nearest_quotient(x: int, p: int) -> int:
    """The q that makes |x - q·p| least, for p > 0."""
    return (2 * x + p) // (2 * p)


def smith_form(
    matrix: SparseIntMatrix,
) -> tuple[tuple[int, ...], SparseIntMatrix, SparseIntMatrix]:
    """(divisors, U, V) with U and V unimodular, U·A·V = diag(divisors)
    and each divisor dividing the next.

    A's rows are kept as sparse dicts, U by its rows and V by its columns,
    and every row operation on A is made on U, every column operation on
    V.  Each pivot is an entry of least absolute value, made positive.
    Row operations by nearest quotients clear its column; when one leaves
    a remainder, the least remainder becomes the pivot.  Column operations
    then clear its row the same way.  A pivot that is alone in its row and
    column but does not divide some entry left takes that entry's row into
    its own and starts again with a smaller remainder.  Otherwise its row
    is set aside, and at the end U's rows and V's columns are permuted so
    that the k-th pivot lands at (k, k).
    """
    m, n = matrix.row_count, matrix.col_count
    a: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        a.setdefault(i, {})[j] = v
    u_rows = {i: {i: 1} for i in range(m)}
    v_cols = {j: {j: 1} for j in range(n)}
    pivots: list[tuple[int, int, int]] = []

    def add_row(dst: int, src: int, c: int) -> None:
        _add(a[dst], a[src], c)
        _add(u_rows[dst], u_rows[src], c)
        if not a[dst]:
            del a[dst]

    while a:
        _, _, pi, pj = min(
            (abs(x), len(row), i, j) for i, row in a.items() for j, x in row.items()
        )
        while True:
            if a[pi][pj] < 0:
                a[pi] = {j: -x for j, x in a[pi].items()}
                u_rows[pi] = {j: -x for j, x in u_rows[pi].items()}
            p = a[pi][pj]
            for i in [i for i in a if i != pi and pj in a[i]]:
                add_row(i, pi, -_nearest_quotient(a[i][pj], p))
            rest = [i for i in a if i != pi and pj in a[i]]
            if rest:
                pi = min(rest, key=lambda i: (abs(a[i][pj]), i))
                continue
            # only row pi holds column pj: a column operation touches A there alone
            row = a[pi]
            for j in [j for j in row if j != pj]:
                q = _nearest_quotient(row[j], p)
                if q:
                    _add(row, {j: p}, -q)
                    _add(v_cols[j], v_cols[pj], -q)
            rest = [j for j in row if j != pj]
            if rest:
                pj = min(rest, key=lambda j: (abs(row[j]), j))
                continue
            bad = next((i for i in sorted(a) if any(x % p for x in a[i].values())), None)
            if bad is None:
                break
            add_row(pi, bad, 1)
        pivots.append((pi, pj, p))
        del a[pi]

    row_order = [i for i, _, _ in pivots]
    row_order += sorted(set(range(m)) - set(row_order))
    col_order = [j for _, j, _ in pivots]
    col_order += sorted(set(range(n)) - set(col_order))
    left = SparseIntMatrix(m, m, {
        (new, j): x for new, old in enumerate(row_order) for j, x in u_rows[old].items()
    })
    right = SparseIntMatrix(n, n, {
        (i, new): x for new, old in enumerate(col_order) for i, x in v_cols[old].items()
    })
    return tuple(p for _, _, p in pivots), left, right


def rank_mod_prime(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over Z/p.  A lower bound on the rational rank.

    A leading-entry column reduction over Z/p: each column is reduced by
    its lowest nonzero row against the earlier column that owns that row,
    scaled so that its entry there is 1, until the column is zero or owns
    a row of its own.
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


def monomial_boundary(phi: Sequence[int], w: Monomial) -> dict[Monomial, int]:
    """d(w) on the permutation rack x ▷ y = φ(y), as {monomial: nonzero}:
    the sum over k = 1..n-1 of (-1)^(k-1) times w without its k-th entry,
    minus the same with every entry after the k-th moved by φ."""
    out: dict[Monomial, int] = {}
    for k in range(1, len(w)):
        sign = 1 if k % 2 else -1
        head, tail = w[: k - 1], w[k:]
        _add(out, {head + tail: 1}, sign)
        _add(out, {head + tuple(phi[v] for v in tail): 1}, -sign)
    return out


class NotGenerating(ValueError):
    """The start set misses an orbit of φ, so no reduction exists."""


def reduce_to_start_set(
    phi: Sequence[int], chain: dict[Monomial, int], start_set: Iterable[int]
) -> tuple[dict[Monomial, int], dict[Monomial, int]]:
    """(reduced, witness) for a chain ({monomial: nonzero}, one degree) of
    the permutation rack x ▷ y = φ(y): every monomial of reduced starts in
    start_set, and reduced = chain + d(witness) exactly.

    The least monomial w not yet starting in start_set is replaced by
    φ(w) + t·d(w), which is w - d(t·w), where t is the first element of
    start_set after w's first entry on its φ-orbit; -t·w joins the
    witness.  Both new pieces start with an entry nearer to start_set, or
    in it, so the rewrite ends.  Degree 0 monomials are left as they are.
    """
    allowed = frozenset(start_set)
    for x in range(len(phi)):
        orbit = [x]
        while phi[orbit[-1]] != x:
            orbit.append(phi[orbit[-1]])
        if allowed.isdisjoint(orbit):
            raise NotGenerating(f"start set misses the orbit of {x}: {tuple(orbit)}")
    work = dict(chain)
    reduced: dict[Monomial, int] = {}
    witness: dict[Monomial, int] = {}
    while work:
        w = min(work)
        coeff = work.pop(w)
        if not w or w[0] in allowed:
            _add(reduced, {w: 1}, coeff)
            continue
        t = phi[w[0]]
        while t not in allowed:
            t = phi[t]
        _add(work, {tuple(phi[v] for v in w): 1}, coeff)
        _add(work, {(t,) + sub: v for sub, v in monomial_boundary(phi, w).items()}, coeff)
        _add(witness, {(t,) + w: 1}, -coeff)
    return reduced, witness
