"""Explicit cycle constructions and a certified lower-bound cycle basis.

The basis in degree n is built inductively: multiply the previous degree by
(q - q*) for each non-minimal orbit representative q, and raise the degree
two below by the orbit-average map for every representative.  Both steps
send cycles to cycles, and the images of the resulting chains under the
orbit detection map stay linearly independent, which a rank computation
certifies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .chains import DEFAULT_BASIS_CAP, Chain, DegreeTooLarge, detection_map
from .linalg import SparseIntMatrix, rational_rank
from .racks import (
    FiniteRack,
    NotPermutation,
    as_permutation,
    orbit_decomposition,
)


class NotFixedPoint(ValueError):
    """The element is not fixed by the rack's permutation."""


class MixedDegrees(ValueError):
    """The chains do not all share one degree."""


@dataclass(frozen=True)
class DifferenceFactor:
    """Left multiplication by (x - y); raises degree by one."""

    x: int
    y: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        return c.prepend(self.x) - c.prepend(self.y)

    def describe(self) -> str:
        return f"({self.x}-{self.y})"


@dataclass(frozen=True)
class OrbitAverageFactor:
    """The map c -> t·sum of φ^i(t·c) over t's orbit of size d; degree +2."""

    t: int
    d: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        return orbit_average(rack, self.t, c)

    def describe(self) -> str:
        return f"avg({self.t})"


@dataclass(frozen=True)
class TerminalFactor:
    """The rightmost bare element of a product cycle."""

    x: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        if c.degree != 0:
            raise ValueError("terminal factor must come last")
        return c.prepend(self.x)

    def describe(self) -> str:
        return f"({self.x})"


Factor = Union[DifferenceFactor, OrbitAverageFactor, TerminalFactor]


@dataclass(frozen=True)
class CycleRecipe:
    """An ordered product of factors over a fixed rack, evaluated right to
    left starting from the empty monomial.  Only the last factor may be a
    TerminalFactor."""

    rack: FiniteRack
    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
        for factor in self.factors[:-1]:
            if isinstance(factor, TerminalFactor):
                raise ValueError("terminal factor must come last")

    @property
    def degree(self) -> int:
        total = 0
        for factor in self.factors:
            total += 2 if isinstance(factor, OrbitAverageFactor) else 1
        return total

    def evaluate(self) -> Chain:
        chain = Chain.monomial(())
        for factor in reversed(self.factors):
            chain = factor.apply(self.rack, chain)
        return chain

    def describe(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(factor.describe() for factor in self.factors)


def difference_product(
    rack: FiniteRack, pairs: Sequence[tuple[int, int]], terminal: int
) -> Chain:
    """The cycle (x_1-y_1)···(x_k-y_k)·terminal, expanded.

    On a permutation rack every chain of this shape is a cycle.
    """
    _require_permutation(rack)
    chain = Chain.monomial((terminal,))
    for x, y in reversed(tuple(pairs)):
        chain = chain.prepend(x) - chain.prepend(y)
    return chain


def fixed_point_square(rack: FiniteRack, t: int, c: Chain) -> Chain:
    """t·t·c; commutes with the boundary when t is a fixed point."""
    phi = _require_permutation(rack)
    if phi[t] != t:
        raise NotFixedPoint(f"{t} is not fixed")
    return c.prepend(t).prepend(t)


def orbit_average(rack: FiniteRack, t: int, c: Chain) -> Chain:
    """t · sum of φ^i(t·c) for i = 0..d-1, where d is t's orbit size.

    φ acts entrywise on monomials.  The map commutes with the boundary, so
    cycles go to cycles; for a fixed point (d = 1) it is exactly t·t·c.
    """
    phi = _require_permutation(rack)
    d = 1
    x = phi[t]
    while x != t:
        d += 1
        x = phi[x]
    inner = c.prepend(t)
    total = Chain.zero(inner.degree)
    for _ in range(d):
        total = total + inner
        inner = inner.map_monomials(lambda mono: tuple(phi[v] for v in mono))
    return total.prepend(t)


def basis_recipes(
    rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP
) -> list[CycleRecipe]:
    """Recipes for the degree-n lower-bound basis.

    Degree 0 is the empty product, degree 1 one bare representative per
    orbit; higher degrees take (q - q*)·b over the non-minimal
    representatives q and the orbit average of every representative applied
    two degrees down.  The count reproduces the Betti recursion with
    r_fin = r.
    """
    phi = _require_permutation(rack)
    if n < 0:
        raise ValueError("negative degree")
    if rack.size ** n > cap:
        raise DegreeTooLarge(f"{rack.size}^{n} exceeds the cap of {cap}")
    decomposition = orbit_decomposition(phi)
    reps = [orbit[0] for orbit in decomposition.orbits]
    sizes = decomposition.sizes
    base = reps[0]
    levels: list[list[CycleRecipe]] = [[CycleRecipe(rack)]]
    if n >= 1:
        levels.append([CycleRecipe(rack, (TerminalFactor(q),)) for q in reps])
    for _ in range(2, n + 1):
        level = [
            CycleRecipe(rack, (DifferenceFactor(q, base),) + sub.factors)
            for q in reps[1:]
            for sub in levels[-1]
        ]
        level.extend(
            CycleRecipe(rack, (OrbitAverageFactor(t, d),) + sub.factors)
            for t, d in zip(reps, sizes)
            for sub in levels[-2]
        )
        levels.append(level)
    return levels[n]


def cycle_basis(rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP) -> list[Chain]:
    """The evaluated lower-bound basis chains; all are cycles and their
    number equals the closed-form Betti number."""
    return [recipe.evaluate() for recipe in basis_recipes(rack, n, cap)]


def independence_certificate(
    rack: FiniteRack, chains: Sequence[Chain]
) -> tuple[int, bool]:
    """Exact rank of the detection images, stacked as matrix columns.

    Rows are indexed by the monomials actually hit, which leaves the rank
    unchanged.  independent means the rank equals the number of chains.
    """
    if not chains:
        return 0, True
    degrees = {c.degree for c in chains}
    if len(degrees) != 1:
        raise MixedDegrees(f"degrees {sorted(degrees)}")
    phi = _require_permutation(rack)
    orbit_of = orbit_decomposition(phi).orbit_of
    images = [detection_map(c, orbit_of) for c in chains]
    support = sorted({mono for image in images for mono in image.support()})
    row_of = {mono: i for i, mono in enumerate(support)}
    entries = {
        (row_of[mono], j): coeff
        for j, image in enumerate(images)
        for mono, coeff in image.terms()
    }
    matrix = SparseIntMatrix(len(support), len(chains), entries)
    rank = rational_rank(matrix)
    return rank, rank == len(chains)


def _require_permutation(rack: FiniteRack) -> tuple[int, ...]:
    phi = as_permutation(rack)
    if phi is None:
        raise NotPermutation("rows of the table differ")
    return phi
