"""Brute-force integral rack homology.

HR_n is read off two Smith normal forms: the free rank is
dim CR_n - rank(d_n) - rank(d_{n+1}) and the torsion consists of the
elementary divisors of d_{n+1} that exceed 1.  No kernel basis is ever
constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import DEFAULT_BASIS_CAP, Chain, apply_boundary, boundary_matrix, _rank_of
from .linalg import SparseIntMatrix, rational_rank, smith_normal_form
from .racks import FiniteRack


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


def homology_table(
    rack: FiniteRack, max_degree: int, cap: int = DEFAULT_BASIS_CAP
) -> list[HomologyGroup]:
    """HR_0 .. HR_max_degree; reduces each of d_1 .. d_{max_degree+1} once
    per call and keeps nothing between calls."""
    groups = []
    rank_here = 0  # d_0
    for n in range(max_degree + 1):
        rank_next, divisors = _boundary_smith(rack, n + 1, cap)
        torsion = tuple(d for d in divisors if d > 1)
        groups.append(HomologyGroup(rack.size ** n - rank_here - rank_next, torsion))
        rank_here = rank_next
    return groups


def is_cycle(rack: FiniteRack, c: Chain) -> bool:
    return not apply_boundary(rack, c)


def is_rational_boundary(rack: FiniteRack, c: Chain, cap: int = DEFAULT_BASIS_CAP) -> bool:
    """Whether the cycle c bounds over the rationals: appending c as a column
    to d_{n+1} must not raise the rank."""
    if not is_cycle(rack, c):
        raise NotACycle(str(c))
    if not c:
        return True
    matrix = boundary_matrix(rack, c.degree + 1, cap)
    augmented = dict(matrix.entries)
    extra = matrix.col_count
    for mono, coeff in c.terms():
        augmented[(_rank_of(mono, rack.size), extra)] = coeff
    stacked = SparseIntMatrix(matrix.row_count, extra + 1, augmented)
    return rational_rank(stacked) == rational_rank(matrix)
