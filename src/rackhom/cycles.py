"""Explicit cycle constructions and a certified lower-bound cycle basis.

The basis in degree n is built inductively: multiply the previous degree by
(q - q*) for each non-minimal orbit representative q, and raise the degree
two below by the orbit-average map for every representative.  Both steps
send cycles to cycles, and the images of the resulting chains under the
orbit detection map stay linearly independent, which a rank computation
certifies exactly.

`certified_levels` builds the basis of every degree 0..D in one pass, each
level from the two below it, on `chains.IndexedChain`s, keyed by their
monomials' lexicographic indices: (q - q*)·c is two shifted copies of c,
and avg(t)(c) is d copies of t·t·c with φ applied digit by digit.  Every
term of every chain is then read through an orbit-id table into a base-r
index, whose numeric order is the lexicographic order of orbit tuples, and
the images go as columns straight to `linalg.column_rank`.  Both tables
come from `chains._DigitwiseMap`, split into high and low digits so that
none outgrows the work it serves.  No factor cancels, so the number of
terms is known before any work and is held to the cap.
`CycleRecipe.evaluate` and `independence_certificate`, on tuple-keyed
`Chain`s, are the oracles for the pass.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from .chains import (
    DEFAULT_BASIS_CAP,
    Chain,
    DegreeTooLarge,
    IndexedChain,
    detection_map,
    _as_chain,
    _DigitwiseMap,
)
from .linalg import SparseIntMatrix, column_rank, rational_rank
from .racks import (
    FiniteRack,
    NotPermutation,
    OrbitDecomposition,
    Record,
    as_permutation,
    orbit_decomposition,
)


class NotFixedPoint(ValueError):
    """The element is not fixed by the rack's permutation."""


class MixedDegrees(ValueError):
    """The chains do not all share one degree."""


class DifferenceFactor(Record):
    """Left multiplication by (x - y); raises degree by one."""

    __slots__ = ("x", "y")
    x: int
    y: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        return c.prepend(self.x) - c.prepend(self.y)

    def describe(self) -> str:
        return f"({self.x}-{self.y})"


class OrbitAverageFactor(Record):
    """The map c -> t·sum of φ^i(t·c) over t's orbit of size d; degree +2."""

    __slots__ = ("t", "d")
    t: int
    d: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        return orbit_average(rack, self.t, c)

    def describe(self) -> str:
        return f"avg({self.t})"


class TerminalFactor(Record):
    """The rightmost bare element of a product cycle."""

    __slots__ = ("x",)
    x: int

    def apply(self, rack: FiniteRack, c: Chain) -> Chain:
        if c.degree != 0:
            raise ValueError("terminal factor must come last")
        return c.prepend(self.x)

    def describe(self) -> str:
        return f"({self.x})"


Factor = Union[DifferenceFactor, OrbitAverageFactor, TerminalFactor]


class CycleRecipe(Record):
    """An ordered product of factors over a fixed rack, evaluated right to
    left starting from the empty monomial.  Only the last factor may be a
    TerminalFactor."""

    __slots__ = ("rack", "factors")
    _defaults = {"factors": ()}
    rack: FiniteRack
    factors: tuple[Factor, ...]

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
    _check_cycle_work(rack, n, cap, chains=False, recipes=True)
    return _last(_recipe_levels(rack, orbit_decomposition(phi), n))


def _recipe_levels(
    rack: FiniteRack, decomposition: OrbitDecomposition, max_degree: int
) -> Iterator[list[CycleRecipe]]:
    """The recipes of degrees 0..max_degree, one list per degree."""
    reps = [orbit[0] for orbit in decomposition.orbits]
    older: list[CycleRecipe] = []
    old = [CycleRecipe(rack)]
    yield old
    if max_degree >= 1:
        older, old = old, [CycleRecipe(rack, (TerminalFactor(q),)) for q in reps]
        yield old
    for _ in range(2, max_degree + 1):
        level = [
            CycleRecipe(rack, (factor,) + sub.factors)
            for factor in [DifferenceFactor(q, reps[0]) for q in reps[1:]]
            for sub in old
        ]
        level.extend(
            CycleRecipe(rack, (factor,) + sub.factors)
            for factor in [OrbitAverageFactor(t, d) for t, d in zip(reps, decomposition.sizes)]
            for sub in older
        )
        older, old = old, level
        yield level


def _chain_levels(
    phi: Sequence[int], decomposition: OrbitDecomposition, max_degree: int
) -> Iterator[list[IndexedChain]]:
    """The evaluated basis chains of degrees 0..max_degree, in the order of
    `basis_recipes`, each level built from the two below it.

    (q - q*)·c is q·c minus q*·c, two copies of c shifted by q and q* times
    |X|^(n-1) whose keys are disjoint.  avg(t)(c) is the sum over i < d of
    t·φ^i(t)·φ^i(c): the copies differ in their second digit, so their keys
    are disjoint too, and φ^i(c) is φ applied digitwise to φ^(i-1)(c).
    """
    size = len(phi)
    reps = [orbit[0] for orbit in decomposition.orbits]
    shift = _DigitwiseMap(phi, size)
    older: list[IndexedChain] = []
    old = [{0: 1}]
    yield old
    if max_degree >= 1:
        older, old = old, [{q: 1} for q in reps]
        yield old
    for n in range(2, max_degree + 1):
        first, second = size ** (n - 1), size ** (n - 2)
        level = []
        for q in reps[1:]:
            plus, minus = q * first, reps[0] * first
            for c in old:
                chain = {i + plus: v for i, v in c.items()}
                chain.update({i + minus: -v for i, v in c.items()})
                level.append(chain)
        high, low, divisor = shift.split(n - 2)
        for t, d in zip(reps, decomposition.sizes):
            for c in older:
                head = t * (first + second)
                chain = {i + head: v for i, v in c.items()}
                x, moved = t, c
                for _ in range(d - 1):
                    x = phi[x]
                    moved = {high[i // divisor] + low[i % divisor]: v for i, v in moved.items()}
                    head = t * first + x * second
                    chain.update({i + head: v for i, v in moved.items()})
                level.append(chain)
        older, old = old, level
        yield level


def chain_term_counts(size: int, r: int, max_degree: int) -> list[int]:
    """T_0..T_max_degree, the total number of terms of the basis chains of
    each degree on a permutation rack of this size with r orbits.

    No factor cancels: (q - q*)·c has twice the terms of c and avg(t)(c)
    d_t times as many, with the d_t summing to |X| over the
    representatives.  So T_0 = 1, T_1 = r and
    T_n = 2(r-1)·T_{n-1} + |X|·T_{n-2}.
    """
    counts = [1, r]
    while len(counts) <= max_degree:
        counts.append(2 * (r - 1) * counts[-1] + size * counts[-2])
    return counts[: max_degree + 1]


def recipe_factor_counts(r: int, max_degree: int) -> list[int]:
    """F_0..F_max_degree, the total number of factors of the basis recipes
    of each degree on a permutation rack with r orbits.

    A recipe of degree n >= 2 is one factor in front of a recipe of degree
    n-1 ((q - q*), r-1 choices) or n-2 (avg(t), r choices), so with b_n
    recipes of degree n (b_0 = 1, b_1 = r, b_n = (r-1)·b_{n-1} + r·b_{n-2}),
    F_0 = 0, F_1 = r and F_n = (r-1)·(b_{n-1} + F_{n-1}) + r·(b_{n-2} + F_{n-2}).
    """
    recipes, factors = [1, r], [0, r]
    while len(factors) <= max_degree:
        factors.append((r - 1) * (recipes[-1] + factors[-1]) + r * (recipes[-2] + factors[-2]))
        recipes.append((r - 1) * recipes[-1] + r * recipes[-2])
    return factors[: max_degree + 1]


def _check_cycle_work(
    rack: FiniteRack, max_degree: int, cap: int, chains: bool = True, recipes: bool = False
) -> tuple[int, ...]:
    """φ of the rack, once the basis of every degree 0..max_degree fits the
    cap; else raise DegreeTooLarge.  Checked in turn: |X|^n for each n,
    smallest first; with chains, the number of chain terms of the top
    degree; with recipes, the number of recipe factors of all the degrees,
    which the recipes' tuples and text grow with; last the degree itself,
    which the work on the one-element rack grows with."""
    phi = _require_permutation(rack)
    if max_degree < 0:
        raise ValueError("negative degree")
    size = rack.size
    # with |X| >= 2, |X|^n passes the cap by n = cap.bit_length()
    for n in range(min(max_degree, cap.bit_length()) + 1):
        if size ** n > cap:
            raise DegreeTooLarge(f"{size}^{n} exceeds the cap of {cap}")
    if size == 1:
        # one chain term and ⌈n/2⌉ recipe factors in every degree n
        terms, factors = 1, (max_degree + 1) ** 2 // 4
    else:
        r = len(orbit_decomposition(phi).orbits)
        terms = chain_term_counts(size, r, max_degree)[-1]
        factors = sum(recipe_factor_counts(r, max_degree))
    if chains and terms > cap:
        raise DegreeTooLarge(f"{terms} cycle chain terms exceed the cap of {cap}")
    if recipes and factors > cap:
        raise DegreeTooLarge(f"{factors} cycle recipe factors exceed the cap of {cap}")
    if max_degree > cap:
        raise DegreeTooLarge(f"degree {max_degree} exceeds the cap of {cap}")
    return phi


def cycle_basis(rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP) -> list[Chain]:
    """The evaluated lower-bound basis chains; all are cycles and their
    number equals the closed-form Betti number.  Built by the same pass as
    `certified_levels`."""
    phi = _check_cycle_work(rack, n, cap)
    chains = _last(_chain_levels(phi, orbit_decomposition(phi), n))
    return [_as_chain(chain, rack.size, n) for chain in chains]


class CertifiedLevel(Record):
    """The basis recipes of one degree and the rank of their chains'
    detection images; independent when the rank is the number of recipes."""

    __slots__ = ("degree", "recipes", "rank")
    degree: int
    recipes: list[CycleRecipe]
    rank: int

    @property
    def independent(self) -> bool:
        return self.rank == len(self.recipes)


def certified_levels(
    rack: FiniteRack, max_degree: int, cap: int = DEFAULT_BASIS_CAP
) -> Iterator[CertifiedLevel]:
    """The certified basis of degrees 0..max_degree, one level at a time.

    The cap is checked for every degree, and for the number of recipe
    factors (`_check_cycle_work`), when this is called, before any level
    is built.
    """
    return _certify(rack, _check_cycle_work(rack, max_degree, cap, recipes=True), max_degree)


def _certify(rack: FiniteRack, phi: Sequence[int], max_degree: int) -> Iterator[CertifiedLevel]:
    decomposition = orbit_decomposition(phi)
    levels = zip(
        _recipe_levels(rack, decomposition, max_degree),
        _chain_levels(phi, decomposition, max_degree),
    )
    for n, (recipes, chains) in enumerate(levels):
        yield CertifiedLevel(n, recipes, indexed_certificate(rack, n, chains)[0])


def indexed_certificate(
    rack: FiniteRack, degree: int, chains: Sequence[IndexedChain]
) -> tuple[int, bool]:
    """`independence_certificate` for chains of one degree given as
    {index: coeff}: the rank of their detection images, and whether it is
    the number of chains.

    Each image is read off every term of its chain through an orbit-id
    table, keyed by the base-r index of the orbit tuple, and goes to the
    rank as one column.
    """
    decomposition = orbit_decomposition(_require_permutation(rack))
    detect = _DigitwiseMap(decomposition.orbit_of, len(decomposition.orbits))
    high, low, divisor = detect.split(degree)

    def images() -> Iterator[IndexedChain]:
        for chain in chains:
            image: IndexedChain = {}
            for i, v in chain.items():
                key = high[i // divisor] + low[i % divisor]
                image[key] = image.get(key, 0) + v
            if 0 in image.values():
                image = {key: v for key, v in image.items() if v}
            yield image

    rank = column_rank(images())
    return rank, rank == len(chains)


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


def _last(levels: Iterator[list]) -> list:
    for level in levels:
        pass
    return level


def _require_permutation(rack: FiniteRack) -> tuple[int, ...]:
    phi = as_permutation(rack)
    if phi is None:
        raise NotPermutation("rows of the table differ")
    return phi
