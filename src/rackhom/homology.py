"""Brute-force integral rack homology.

HR_n is read off two Smith normal forms: the free rank is
dim CR_n - rank(d_n) - rank(d_{n+1}) and the torsion consists of the
elementary divisors of d_{n+1} that exceed 1.  No kernel basis is ever
constructed.

`homology_table` reduces d_2 .. d_{N+1} from the bottom up, each built
from the columns whose first entry lies in a start set (`racks.start_set`):
they span the same lattice as all of d_n (the lemma is in
`chains.boundary_columns`).  Each d_n is built without the rows named by
the ±1 pivot columns that the first round of d_{n-1} takes while its
content is 1: the cycles of d_{n-1} are fixed by their other coordinates,
so the Smith form of d_n does not change (the compression of Bauer,
Kerber & Reininghaus, over Z; the lemma is in `linalg.smith_reduce`).
`rack_homology` reduces its two boundaries whole, with no start set and no
rows dropped, and is the oracle for the table.
"""

from __future__ import annotations

from .chains import (
    DEFAULT_BASIS_CAP,
    Chain,
    DegreeTooLarge,
    apply_boundary,
    boundary_columns,
    boundary_matrix,
    _check_cap,
    _check_degree,
    _rank_of,
)
from .linalg import reduce_column, smith_normal_form, smith_reduce
from .racks import FiniteRack, Record, start_set


class NotACycle(ValueError):
    """The chain has a nonzero boundary."""


class HomologyGroup(Record):
    """free_rank copies of Z plus cyclic groups of the torsion orders;
    torsion orders exceed 1 and form a divisibility chain."""

    __slots__ = ("free_rank", "torsion")
    _defaults = {"torsion": ()}
    free_rank: int
    torsion: tuple[int, ...]

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
    """HR_n of a finite rack, computed from d_n and d_{n+1}; both are
    checked against the cap, d_n first, before either is built."""
    if n < 0:
        raise ValueError("negative degree")
    for degree in range(max(n, 2), n + 2):
        _check_degree(rack.size, degree, cap)
    rank_here, _ = _boundary_smith(rack, n, cap)
    rank_next, divisors = _boundary_smith(rack, n + 1, cap)
    free_rank = rack.size ** n - rank_here - rank_next
    torsion = tuple(d for d in divisors if d > 1)
    return HomologyGroup(free_rank, torsion)


def check_table_cap(size: int, max_degree: int, cap: int) -> None:
    """Raise DegreeTooLarge unless every boundary d_2 .. d_{max_degree+1}
    that `homology_table` builds fits the cap, smallest degree first."""
    # size^n exceeds the cap once n > cap.bit_length(), unless size is 1
    for n in range(2, min(max_degree, cap.bit_length() + 1) + 2):
        _check_cap(size, n, cap)


def _check_table_work(size: int, max_degree: int, cap: int) -> None:
    """Raise DegreeTooLarge if the sum of n·size^n over d_2 .. d_{max_degree+1},
    the digits of their bases, exceeds the cap.  On the one-element rack
    each boundary fits, but the table's work grows with max_degree²."""
    work = 0
    for n in range(2, max_degree + 2):
        work += n * size ** n
        if work > cap:
            raise DegreeTooLarge(f"{work} basis digits of d_2 .. d_{n} exceed the cap of {cap}")


def homology_table(
    rack: FiniteRack, max_degree: int, cap: int = DEFAULT_BASIS_CAP
) -> list[HomologyGroup]:
    """HR_0 .. HR_max_degree; reduces each of d_2 .. d_{max_degree+1} once
    per call, bottom up, and keeps nothing between calls.

    Every d_n is checked against the cap, smallest n first, and then the
    digits of all their bases, before any is built.  Each d_n is built
    from the columns that start in `racks.start_set` and without the rows
    named by the pivot columns that d_{n-1}'s reduction returns; both
    leave the rank and divisors as they are.
    """
    size = rack.size
    check_table_cap(size, max_degree, cap)
    _check_table_work(size, max_degree, cap)
    starts = start_set(rack)
    ranks, torsion = [0, 0], [(), ()]  # d_0 and d_1 are zero
    pivots: set[int] = set()
    for n in range(2, max_degree + 2):
        divisors, pivots = smith_reduce(boundary_columns(rack, n, cap, starts, pivots))
        ranks.append(len(divisors))
        torsion.append(tuple(d for d in divisors if d > 1))
    return [
        HomologyGroup(size ** n - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n in range(max_degree + 1)
    ]


def is_cycle(rack: FiniteRack, c: Chain) -> bool:
    return not apply_boundary(rack, c)


def is_rational_boundary(rack: FiniteRack, c: Chain, cap: int = DEFAULT_BASIS_CAP) -> bool:
    """Whether the cycle c bounds over the rationals: c must reduce to zero
    against the reduced columns of d_{n+1}.  Only the columns of d_{n+1}
    that start in `racks.start_set` are reduced; they span the same
    lattice."""
    if not is_cycle(rack, c):
        raise NotACycle(str(c))
    if not c:
        return True
    owners: dict[int, dict[int, int]] = {}
    for column in boundary_columns(rack, c.degree + 1, cap, starts=start_set(rack)).values():
        reduce_column(owners, column)
    cycle = {_rank_of(mono, rack.size): coeff for mono, coeff in c.terms()}
    return not reduce_column(owners, cycle)
