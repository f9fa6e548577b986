"""Brute-force integral rack homology.

HR_n is read off two Smith normal forms: the free rank is
dim CR_n - rank(d_n) - rank(d_{n+1}) and the torsion consists of the
elementary divisors of d_{n+1} that exceed 1.  No kernel basis is ever
constructed.

`homology_table` reduces the boundaries from the top down.  The top one,
d_{N+1}, is built from the columns whose first entry lies in a start set
(`racks.start_set`): they span the same lattice as all of d_{N+1}, so its
Smith form does not change (the lemma is in `chains.boundary_columns`).
Each lower d_n is cleared (Chen & Kerber's twist, over Z): every ±1 pivot
of the first round of d_{n+1}, taken while that round's content is 1,
names a column of d_n that is an integer combination of the columns kept,
so d_n is built without those columns and its Smith form does not change.
That lemma, in `linalg.smith_reduce`, holds for any input columns that lie
in Im d_{n+1}, so it holds for the start-set columns of the top one too.
Pivots ±c with c > 1, and those of the full elimination's fallback step,
are never cleared.  `rack_homology` reduces its two boundaries whole, with
no start set and no clearing, and is the oracle for the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    DEFAULT_BASIS_CAP,
    Chain,
    apply_boundary,
    boundary_columns,
    boundary_matrix,
    _check_cap,
    _rank_of,
)
from .linalg import SparseIntMatrix, rational_rank, smith_normal_form, smith_reduce
from .racks import FiniteRack, start_set


class NotACycle(ValueError):
    """The chain has a nonzero boundary."""


@dataclass(frozen=True)
class HomologyGroup:
    """free_rank copies of Z plus cyclic groups of the torsion orders;
    torsion orders exceed 1 and form a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative rank")
        for a, b in zip((1,) + self.torsion, self.torsion):
            if b <= 1 or b % a:
                raise ValueError("torsion must be a divisibility chain of ints > 1")


def _boundary_smith(rack: FiniteRack, n: int, cap: int) -> tuple[int, tuple[int, ...]]:
    """(rank, divisors) of d_n; d_0 and d_1 are zero by convention."""
    if n <= 1:
        return 0, ()
    form = smith_normal_form(boundary_matrix(rack, n, cap))
    return form.rank, form.divisors


def rack_homology(rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP) -> HomologyGroup:
    """HR_n of a finite rack, computed from d_n and d_{n+1}."""
    if n < 0:
        raise ValueError("negative degree")
    rank_here, _ = _boundary_smith(rack, n, cap)
    rank_next, divisors = _boundary_smith(rack, n + 1, cap)
    free_rank = rack.size ** n - rank_here - rank_next
    torsion = tuple(d for d in divisors if d > 1)
    return HomologyGroup(free_rank, torsion)


def check_table_cap(size: int, max_degree: int, cap: int) -> None:
    """Raise DegreeTooLarge unless every boundary d_2 .. d_{max_degree+1}
    that `homology_table` builds fits the cap, smallest degree first."""
    for n in range(2, max_degree + 2):
        _check_cap(size, n, cap)


def homology_table(
    rack: FiniteRack, max_degree: int, cap: int = DEFAULT_BASIS_CAP
) -> list[HomologyGroup]:
    """HR_0 .. HR_max_degree; reduces each of d_{max_degree+1} .. d_2 once
    per call, top down, and keeps nothing between calls.

    Every d_n is checked against the cap, smallest n first, before any is
    built.  The top boundary is built from the columns that start in
    `racks.start_set`, and each lower d_n without the columns that
    d_{n+1}'s reduction clears; either leaves the rank and divisors as they
    are.  Clearing needs only that the columns reduced lie in Im d_{n+1},
    which the start-set columns do.  No boundary drops columns by both
    rules: each rule keeps a set that spans, and what the two keep
    together need not.
    """
    size = rack.size
    top = max_degree + 1
    check_table_cap(size, max_degree, cap)
    ranks = [0] * (top + 2)  # ranks[n] = rank d_n; d_0 and d_1 are zero
    torsion: list[tuple[int, ...]] = [()] * (top + 2)
    cleared: set[int] = set()
    for n in range(top, 1, -1):
        if n == top:
            columns = boundary_columns(rack, n, cap, starts=start_set(rack))
        else:
            columns = boundary_columns(rack, n, cap, cleared)
        divisors, cleared = smith_reduce(columns)
        ranks[n] = len(divisors)
        torsion[n] = tuple(d for d in divisors if d > 1)
    return [
        HomologyGroup(size ** n - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n in range(max_degree + 1)
    ]


def is_cycle(rack: FiniteRack, c: Chain) -> bool:
    return not apply_boundary(rack, c)


def is_rational_boundary(rack: FiniteRack, c: Chain, cap: int = DEFAULT_BASIS_CAP) -> bool:
    """Whether the cycle c bounds over the rationals: appending c as a column
    to d_{n+1} must not raise the rank.  Only the columns of d_{n+1} that
    start in `racks.start_set` are ranked; they span the same lattice."""
    if not is_cycle(rack, c):
        raise NotACycle(str(c))
    if not c:
        return True
    size = rack.size
    rows, extra = size ** c.degree, size ** (c.degree + 1)
    columns = boundary_columns(rack, c.degree + 1, cap, starts=start_set(rack))
    entries = {(i, j): v for j, col in columns.items() for i, v in col.items()}
    cycle = {(_rank_of(mono, size), extra): coeff for mono, coeff in c.terms()}
    stacked = SparseIntMatrix(rows, extra + 1, {**entries, **cycle})
    return rational_rank(stacked) == rational_rank(SparseIntMatrix(rows, extra, entries))
