"""The rack chain complex: monomial bases, the boundary operator, boundary
matrices, the orbit detection map, and the constructive reduction that makes
every chain start inside a prescribed generating set.

Degree n monomials are tuples of n element ids; degree 0 is the empty tuple,
so CR_0 has rank one and d_1 = 0.  That convention pins HR_0 = Z.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .linalg import SparseIntMatrix
from .racks import (
    DEFAULT_BASIS_CAP,
    DegreeTooLarge,
    FiniteRack,
    NotPermutation,
    as_permutation,
    orbit_decomposition,
)

Monomial = tuple[int, ...]


class NotGenerating(ValueError):
    """The start set misses an orbit, so the reduction cannot succeed."""


class Chain:
    """Sparse integer combination of monomials of one fixed degree.

    Immutable by convention: all operations return new chains.  Zero
    coefficients are never stored, so `bool(c)` means `c != 0`.
    """

    __slots__ = ("degree", "_coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Monomial, int] | None = None):
        if degree < 0:
            raise ValueError("negative degree")
        clean: dict[Monomial, int] = {}
        if coeffs:
            for mono, coeff in coeffs.items():
                if len(mono) != degree:
                    raise ValueError(
                        f"monomial {mono} has degree {len(mono)}, chain has {degree}"
                    )
                if coeff:
                    clean[tuple(mono)] = coeff
        self.degree = degree
        self._coeffs = clean

    @classmethod
    def _clean(cls, degree: int, coeffs: dict[Monomial, int]) -> "Chain":
        """A chain that takes over coeffs without checks: the caller
        guarantees tuple monomials of this degree and no zero coefficient."""
        chain = object.__new__(cls)
        chain.degree = degree
        chain._coeffs = coeffs
        return chain

    @classmethod
    def zero(cls, degree: int) -> "Chain":
        return cls(degree)

    @classmethod
    def monomial(cls, entries: Iterable[int]) -> "Chain":
        mono = tuple(entries)
        return cls(len(mono), {mono: 1})

    def coefficient(self, mono: Monomial) -> int:
        return self._coeffs.get(tuple(mono), 0)

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in lexicographic monomial order (deterministic)."""
        return sorted(self._coeffs.items())

    def support(self) -> Iterator[Monomial]:
        return iter(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.degree == other.degree and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self._coeffs.items())))

    def __add__(self, other: "Chain") -> "Chain":
        return self._plus(other, 1)

    def __neg__(self) -> "Chain":
        return Chain._clean(self.degree, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "Chain") -> "Chain":
        return self._plus(other, -1)

    def _plus(self, other: "Chain", sign: int) -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add chains of different degrees")
        coeffs = dict(self._coeffs)
        for mono, coeff in other._coeffs.items():
            _add_term(coeffs, mono, sign * coeff)
        return Chain._clean(self.degree, coeffs)

    def __rmul__(self, scalar: int) -> "Chain":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return Chain.zero(self.degree)
        return Chain._clean(self.degree, {m: scalar * c for m, c in self._coeffs.items()})

    def prepend(self, x: int) -> "Chain":
        """The chain x·c, degree raised by one."""
        return Chain._clean(
            self.degree + 1,
            {(x,) + mono: coeff for mono, coeff in self._coeffs.items()},
        )

    def map_monomials(self, f: Callable[[Monomial], Monomial]) -> "Chain":
        """Apply f to every monomial, summing coefficients on collisions.

        f must preserve degree.
        """
        coeffs: dict[Monomial, int] = {}
        for mono, coeff in self._coeffs.items():
            _add_term(coeffs, tuple(f(mono)), coeff)
        return Chain._clean(self.degree, coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = "(" + ",".join(map(str, mono)) + ")"
            parts.append(f"{sign}{'' if mag == 1 else f'{mag}*'}{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Chain deg={self.degree}: {self}>"


def _add_term(coeffs: dict[Monomial, int], mono: Monomial, coeff: int) -> None:
    new = coeffs.get(mono, 0) + coeff
    if new:
        coeffs[mono] = new
    elif mono in coeffs:
        del coeffs[mono]


def _check_cap(size: int, n: int, cap: int) -> None:
    if size ** n > cap:
        raise DegreeTooLarge(f"{size}^{n} basis monomials exceed the cap of {cap}")


def _check_degree(size: int, n: int, cap: int) -> None:
    """`_check_cap`, then the degree itself: on the one-element rack |X|^n
    is 1 in every degree, but the work of one degree grows with n."""
    _check_cap(size, n, cap)
    if n > cap:
        raise DegreeTooLarge(f"degree {n} exceeds the cap of {cap}")


def enumerate_basis(
    rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP
) -> list[Monomial]:
    """All degree-n monomials in lexicographic order; [(())] for n = 0."""
    if n < 0:
        raise ValueError("negative degree")
    _check_degree(rack.size, n, cap)
    return list(product(range(rack.size), repeat=n))


def boundary_of_monomial(rack: FiniteRack, w: Monomial) -> Chain:
    """d(x_1..x_n) = sum over k = 1..n-1 of (-1)^(k-1) times
    (x_1..x_{k-1} x_{k+1}..x_n  minus  x_1..x_{k-1} (x_k▷x_{k+1})..(x_k▷x_n)).

    Degrees 0 and 1 have an empty sum.
    """
    n = len(w)
    if n <= 1:
        return Chain.zero(max(n - 1, 0))
    op = rack.op
    coeffs: dict[Monomial, int] = {}
    for k in range(1, n):
        sign = 1 if k % 2 else -1
        head = w[: k - 1]
        x = w[k - 1]
        tail = w[k:]
        _add_term(coeffs, head + tail, sign)
        _add_term(coeffs, head + tuple(op(x, v) for v in tail), -sign)
    return Chain._clean(n - 1, coeffs)


def apply_boundary(rack: FiniteRack, c: Chain) -> Chain:
    """Linear extension of boundary_of_monomial."""
    if c.degree <= 1:
        return Chain.zero(max(c.degree - 1, 0))
    coeffs: dict[Monomial, int] = {}
    for mono, coeff in c._coeffs.items():
        for sub, sub_coeff in boundary_of_monomial(rack, mono)._coeffs.items():
            _add_term(coeffs, sub, coeff * sub_coeff)
    return Chain._clean(c.degree - 1, coeffs)


IndexedChain = dict[int, int]
"""A chain of known degree n as {index: coeff}: the index of a monomial is
its position in the lexicographic basis, its entries read as base-|X|
digits."""


def _rank_of(mono: Monomial, size: int) -> int:
    """Position of a monomial in the lexicographic basis (base-size digits)."""
    index = 0
    for v in mono:
        index = index * size + v
    return index


def _as_chain(chain: IndexedChain, size: int, degree: int) -> Chain:
    """The `Chain` of an indexed chain: each index read back as its digits."""
    places = [size ** k for k in range(degree - 1, -1, -1)]
    return Chain._clean(degree, {tuple(i // p % size for p in places): v for i, v in chain.items()})


class _DigitwiseMap:
    """A map of the elements applied to every digit of an index.

    ``images[x]`` is read as a digit in base ``out_base``.  An index of k
    digits is looked up on its high ⌊k/2⌋ and low ⌈k/2⌉ digits, so no table
    has more than |X|^⌈k/2⌉ entries.
    """

    def __init__(self, images: Sequence[int], out_base: int):
        self.images = images
        self.out_base = out_base
        self.tables: list[list[int]] = [[0]]  # tables[L]: the map on L digits

    def table(self, digits: int) -> list[int]:
        """The image of every index of ``digits`` digits, in index order."""
        tables = self.tables
        while len(tables) <= digits:
            place, low = self.out_base ** (len(tables) - 1), tables[-1]
            tables.append([y * place + b for y in self.images for b in low])
        return tables[digits]

    def split(self, digits: int) -> tuple[list[int], list[int], int]:
        """(high, low, divisor): the map of a ``digits``-digit index i is
        high[i // divisor] + low[i % divisor]."""
        low_digits = (digits + 1) // 2
        place = self.out_base ** low_digits
        high = [v * place for v in self.table(digits - low_digits)]
        return high, self.table(low_digits), len(self.images) ** low_digits


def boundary_columns(
    rack: FiniteRack,
    n: int,
    cap: int = DEFAULT_BASIS_CAP,
    starts: Iterable[int] | None = None,
    drop_rows: Container[int] = (),
) -> dict[int, IndexedChain]:
    """The nonzero columns of d_n as {col: chain}, each an indexed chain of
    degree n - 1, keeping only the columns whose first entry is in starts
    and leaving out the rows in drop_rows.

    Indices are read as base-size digits, so no monomial is ever built.
    Column J = head·size^(L+1) + x_k·size^L + tail, with L = n - k, has the
    terms ±(head·size^L + tail) and ∓(head·size^L + x_k▷tail), where
    x_k▷tail is looked up in the `_DigitwiseMap` of the row x_k▷(-) on L
    digits.  The columns that start with x are the block of indices
    x·size^(n-1) .. (x+1)·size^(n-1) - 1, so starts picks whole blocks.

    For a start set S (`racks.start_set`), the columns that start in S
    span the same lattice as all of d_n: d(t·u) = u - t▷u - t·d(u), so
    d(u) = d(t▷u) + d(t·d(u)), where t·d(u) starts with t, and induction
    on the moves t▷(-), t in S, that take u's first entry into S does the
    rest.  Dropping rows projects that lattice, so it combines with starts;
    `linalg.smith_reduce` names rows whose dropping keeps the Smith form.
    """
    if n < 1:
        raise ValueError("boundary matrices start at degree 1")
    size = rack.size
    _check_degree(size, n, cap)
    acts = [_DigitwiseMap(row, size) for row in rack.table]
    faces = [  # face k = n - L, for k = 1 .. n - 1
        (size ** (L + 1), size ** L, [act.table(L) for act in acts], 1 if (n - L) % 2 else -1)
        for L in range(n - 1, 0, -1)
    ]
    heads = range(size) if starts is None else sorted(starts)
    tails = size ** (n - 1)
    columns: dict[int, IndexedChain] = {}
    indices = (j for x in heads for j in range(x * tails, (x + 1) * tails))
    for col in indices:
        terms: dict[int, int] = {}
        for block, width, moves, sign in faces:
            head, rest = divmod(col, block)
            x, tail = divmod(rest, width)
            base = head * width
            moved = moves[x][tail]
            if moved != tail:
                terms[base + tail] = terms.get(base + tail, 0) + sign
                terms[base + moved] = terms.get(base + moved, 0) - sign
        if drop_rows or 0 in terms.values():
            terms = {row: coeff for row, coeff in terms.items() if coeff and row not in drop_rows}
        if terms:
            columns[col] = terms
    return columns


def boundary_matrix(
    rack: FiniteRack, n: int, cap: int = DEFAULT_BASIS_CAP
) -> SparseIntMatrix:
    """The matrix of d_n: CR_n -> CR_{n-1} against the lexicographic bases.

    Column j holds the boundary of the j-th degree-n monomial.
    """
    columns = boundary_columns(rack, n, cap)
    entries = {(i, j): v for j, col in columns.items() for i, v in col.items()}
    return SparseIntMatrix(rack.size ** (n - 1), rack.size ** n, entries)


def detection_map(c: Chain, orbit_of: Sequence[int]) -> Chain:
    """Project every entry to its orbit id; collided monomials merge.

    The result lives over the trivial rack on the orbit set, where every
    chain is a cycle, so this detects homology classes.
    """
    return c.map_monomials(lambda mono: tuple(orbit_of[v] for v in mono))


def reduce_to_start_set(
    rack: FiniteRack, c: Chain, start_set: Iterable[int]
) -> tuple[Chain, Chain]:
    """Rewrite c modulo boundaries so every monomial starts inside start_set.

    Returns (reduced, witness) with reduced = c + d(witness) exactly.  Uses
    the substitution w = φ(w) + t·d(w) + d(t·w), where t is the first element
    of start_set on the orbit of the leading entry; the two non-boundary
    pieces either already start in start_set or got strictly closer to it,
    so the rewrite terminates.
    """
    phi = as_permutation(rack)
    if phi is None:
        raise NotPermutation("reduction needs a permutation rack")
    allowed = frozenset(start_set)
    decomposition = orbit_decomposition(phi)
    for orbit in decomposition.orbits:
        if allowed.isdisjoint(orbit):
            raise NotGenerating(f"start set misses orbit {orbit}")
    if c.degree == 0:
        return c, Chain.zero(1)

    def shift(mono: Monomial) -> Monomial:
        return tuple(phi[v] for v in mono)

    def first_hit(x: int) -> int:
        # minimal k >= 1 with φ^k(x) in the start set
        t = phi[x]
        while t not in allowed:
            t = phi[t]
        return t

    work = dict(c._coeffs)
    done: dict[Monomial, int] = {}
    witness: dict[Monomial, int] = {}
    while work:
        mono = min(work)
        coeff = work.pop(mono)
        if mono[0] in allowed:
            _add_term(done, mono, coeff)
            continue
        t = first_hit(mono[0])
        _add_term(work, shift(mono), coeff)
        for sub, sub_coeff in boundary_of_monomial(rack, mono)._coeffs.items():
            _add_term(work, (t,) + sub, coeff * sub_coeff)
        _add_term(witness, (t,) + mono, -coeff)
    return Chain(c.degree, done), Chain(c.degree + 1, witness)
