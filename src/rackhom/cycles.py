"""Explicit cycle constructions and a certified lower-bound cycle basis.

The basis in degree n is built inductively: multiply the previous degree by
(q - q*) for each non-minimal orbit representative q, and raise the degree
two below by the orbit-average map for every representative.  Both steps
send cycles to cycles, and the images of the resulting chains under the
orbit detection map stay linearly independent, which a rank computation
certifies exactly.

`certified_levels` certifies every degree 0..D in one pass, each level
built from the two below it on orbit words, without building a chain:
detection sends each letter to its orbit and φ keeps orbits, so the image
of (q - q*)·c is two shifted copies of the image of c, and the image of
avg(t)(c) is d_t times one shifted copy.  Images are keyed by the base-r
index of their orbit words, whose numeric order is the lexicographic order
of orbit tuples, and go as columns straight to `linalg.column_rank`; each
recipe's text is built the same way, one factor in front of a text from
below.  No factor cancels, so the number of terms is known before any work
and is held to the cap.
The oracle for the pass builds the chains themselves:
`CycleRecipe.evaluate`, which `cycle_basis` runs on every recipe, and
`independence_certificate` on the `Chain`s it returns.  The functions that
build chains import `chains` when called, so the pass loads none of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .linalg import SparseIntMatrix, column_rank, rational_rank
from .racks import (
    DEFAULT_BASIS_CAP,
    FiniteRack,
    OrbitDecomposition,
    Record,
    check_basis,
    check_count,
    orbit_decomposition,
    require_permutation,
)

if TYPE_CHECKING:
    from .chains import Chain, IndexedChain


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
        from .chains import Chain

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
    """The cycle (x_1-y_1)···(x_k-y_k)·terminal, expanded: the recipe of
    those factors, evaluated.

    On a permutation rack every chain of this shape is a cycle.
    """
    require_permutation(rack)
    factors = tuple(DifferenceFactor(x, y) for x, y in pairs) + (TerminalFactor(terminal),)
    return CycleRecipe(rack, factors).evaluate()


def fixed_point_square(rack: FiniteRack, t: int, c: Chain) -> Chain:
    """t·t·c; commutes with the boundary when t is a fixed point."""
    phi = require_permutation(rack)
    if phi[t] != t:
        raise NotFixedPoint(f"{t} is not fixed")
    return c.prepend(t).prepend(t)


def orbit_average(rack: FiniteRack, t: int, c: Chain) -> Chain:
    """t · sum of φ^i(t·c) for i = 0..d-1, where d is t's orbit size.

    φ acts entrywise on monomials.  The map commutes with the boundary, so
    cycles go to cycles; for a fixed point (d = 1) it is exactly t·t·c.
    """
    from .chains import Chain

    phi = require_permutation(rack)
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
    return _recipes(rack, _check_cycle_work(rack, n, cap, chains=False), n)


def _factors(
    decomposition: OrbitDecomposition,
) -> tuple[list[DifferenceFactor], list[OrbitAverageFactor]]:
    """The factors the basis recipes put in front: (q - q*) for each
    non-minimal orbit representative q, q* the minimal one, and avg(t),
    with t's orbit size d_t, for every representative t."""
    reps = [orbit[0] for orbit in decomposition.orbits]
    return (
        [DifferenceFactor(q, reps[0]) for q in reps[1:]],
        [OrbitAverageFactor(t, d) for t, d in zip(reps, decomposition.sizes)],
    )


def _recipes(
    rack: FiniteRack, decomposition: OrbitDecomposition, n: int
) -> list[CycleRecipe]:
    """The recipes of degree n, each degree built from the two below it."""
    differences, averages = _factors(decomposition)
    older: list[CycleRecipe] = []
    old = [CycleRecipe(rack)]
    if n >= 1:
        older, old = old, [CycleRecipe(rack, (TerminalFactor(a.t),)) for a in averages]
    for _ in range(2, n + 1):
        level = [CycleRecipe(rack, (f,) + sub.factors) for f in differences for sub in old]
        level += [CycleRecipe(rack, (f,) + sub.factors) for f in averages for sub in older]
        older, old = old, level
    return old


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
    rack: FiniteRack, max_degree: int, cap: int, chains: bool = True
) -> OrbitDecomposition:
    """The orbits of φ, once the basis of every degree 0..max_degree fits
    the cap; else raise DegreeTooLarge.  Checked in turn: |X|^n for each n,
    smallest first; with chains, the number of chain terms of the top
    degree, which also bounds the certified pass, since an image never has
    more terms than its chain; the number of recipe factors of all the
    degrees, which every builder's recipes or texts grow with; last the
    degree itself, which the work on the one-element rack grows with."""
    phi = require_permutation(rack)
    if max_degree < 0:
        raise ValueError("negative degree")
    size = rack.size
    check_basis(size, range(max_degree + 1), cap, "exceeds")
    decomposition = orbit_decomposition(phi)
    if size == 1:
        # one chain term and ⌈n/2⌉ recipe factors in every degree n
        terms, factors = 1, (max_degree + 1) ** 2 // 4
    else:
        r = len(decomposition.orbits)
        terms = chain_term_counts(size, r, max_degree)[-1]
        factors = sum(recipe_factor_counts(r, max_degree))
    if chains:
        check_count(terms, cap, "{} cycle chain terms exceed")
    check_count(factors, cap, "{} cycle recipe factors exceed")
    check_count(max_degree, cap, "degree {} exceeds")
    return decomposition


def cycle_basis(rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP) -> list[Chain]:
    """The evaluated lower-bound basis chains; all are cycles and their
    number equals the closed-form Betti number.  Each is its recipe of
    `basis_recipes` evaluated (`CycleRecipe.evaluate`), built on the
    orbits that the cap gate (`_check_cycle_work`) returns once their
    chain terms and the recipes' factors fit the cap."""
    recipes = _recipes(rack, _check_cycle_work(rack, n, cap), n)
    return [recipe.evaluate() for recipe in recipes]


class CertifiedLevel(Record):
    """The basis recipes of one degree, as text, and the rank of their
    chains' detection images; independent when the rank is the number of
    recipes."""

    __slots__ = ("degree", "recipes", "rank")
    degree: int
    recipes: list[str]
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
    is built; the orbits that check returns key the images.  Each level's
    images are ranked avg block first: rank does not depend on the column
    order, and in that order far fewer columns need updates.  The ranking
    updates its columns in place, and the levels above still read the
    images, so it is given copies.
    """
    levels = _word_levels(_check_cycle_work(rack, max_degree, cap), max_degree)
    return (
        CertifiedLevel(n, texts, column_rank(map(dict, reversed(images))))
        for n, (texts, images) in enumerate(levels)
    )


def _word_levels(
    decomposition: OrbitDecomposition, max_degree: int
) -> Iterator[tuple[list[str], list[IndexedChain]]]:
    """The recipe texts of degrees 0..max_degree and the detection images
    of their chains, one level per degree in the order of `basis_recipes`,
    each level built from the two below it.

    An image is keyed by the base-r index of its orbit words.  Detection
    sends each letter to its orbit, and φ keeps orbits, so the image of
    (q - q*)·c is the image of c shifted by orbit(q)·r^(n-1), minus the
    same shifted by orbit(q*)·r^(n-1), whose keys are disjoint; and the
    d_t copies t·φ^i(t)·φ^i(c) of avg(t)(c) all detect to the image of
    t·t·c, so its image is d_t times the image of c shifted by
    orbit(t)·(r+1)·r^(n-2).  Neither step cancels a term, so no image
    holds a zero.
    """
    orbit_of = decomposition.orbit_of
    differences, averages = _factors(decomposition)
    r = len(averages)
    older_texts: list[str] = []
    older: list[IndexedChain] = []
    texts, images = ["1"], [{0: 1}]
    yield texts, images
    if max_degree >= 1:
        older_texts, older = texts, images
        texts = [TerminalFactor(a.t).describe() for a in averages]
        images = [{orbit_of[a.t]: 1} for a in averages]
        yield texts, images
    for n in range(2, max_degree + 1):
        first, second = r ** (n - 1), r ** (n - 2)
        minus = orbit_of[averages[0].t] * first
        # the -q*·b half of (q - q*)·b is the same for every q
        negated = [{i + minus: -v for i, v in image.items()} for image in images]
        level_texts: list[str] = []
        level: list[IndexedChain] = []
        for factor in differences:
            plus, prefix = orbit_of[factor.x] * first, factor.describe() + "·"
            level_texts += [prefix + text for text in texts]
            for image, low in zip(images, negated):
                word = {i + plus: v for i, v in image.items()}
                word.update(low)
                level.append(word)
        for factor in averages:
            head, d = orbit_of[factor.t] * (first + second), factor.d
            prefix = factor.describe()
            if n == 2:  # over the empty product
                level_texts.append(prefix)
            else:
                level_texts += [prefix + "·" + text for text in older_texts]
            level += [{i + head: d * v for i, v in image.items()} for image in older]
        older_texts, older = texts, images
        texts, images = level_texts, level
        yield texts, images


def independence_certificate(
    rack: FiniteRack, chains: Sequence[Chain]
) -> tuple[int, bool]:
    """Exact rank of the detection images, stacked as matrix columns.

    Rows are indexed by the monomials actually hit, which leaves the rank
    unchanged.  independent means the rank equals the number of chains.
    """
    from .chains import detection_map

    if not chains:
        return 0, True
    degrees = {c.degree for c in chains}
    if len(degrees) != 1:
        raise MixedDegrees(f"degrees {sorted(degrees)}")
    phi = require_permutation(rack)
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

