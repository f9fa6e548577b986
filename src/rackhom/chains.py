"""The rack chain complex: chains, the boundary operator, boundary matrices
and the orbit detection map.

Degree n monomials are tuples of n element ids; degree 0 is the empty tuple,
so CR_0 has rank one and d_1 = 0.  That convention pins HR_0 = Z.  Every
`Chain`, including each result of chain arithmetic, is checked when it is
built: its monomials have its degree and its zero terms are dropped.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .linalg import SparseIntMatrix
from .racks import (  # DegreeTooLarge is re-exported
    DEFAULT_BASIS_CAP,
    DegreeTooLarge,
    FiniteRack,
    check_basis,
    check_count,
)

Monomial = tuple[int, ...]


class Chain:
    """Sparse integer combination of monomials of one fixed degree.

    Immutable by convention: all operations return new chains, each made
    by this constructor, which checks every monomial's degree.  Zero
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
        return Chain(self.degree, {m: -c for m, c in self._coeffs.items()})

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
        return Chain(self.degree, coeffs)

    def __rmul__(self, scalar: int) -> "Chain":
        if not isinstance(scalar, int):
            return NotImplemented
        return Chain(self.degree, {m: scalar * c for m, c in self._coeffs.items()})

    def prepend(self, x: int) -> "Chain":
        """The chain x·c, degree raised by one."""
        return Chain(self.degree + 1, {(x,) + m: c for m, c in self._coeffs.items()})

    def map_monomials(self, f: Callable[[Monomial], Monomial]) -> "Chain":
        """Apply f to every monomial, summing coefficients on collisions.

        f must preserve degree: a monomial of another degree raises
        ValueError.
        """
        coeffs: dict[Monomial, int] = {}
        for mono, coeff in self._coeffs.items():
            _add_term(coeffs, tuple(f(mono)), coeff)
        return Chain(self.degree, coeffs)

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


def _check_degree(size: int, n: int, cap: int) -> None:
    """|X|^n against the cap, then the degree itself: on the one-element
    rack |X|^n is 1 in every degree, but the work of one degree grows with n."""
    check_basis(size, range(n, n + 1), cap)
    check_count(n, cap, "degree {} exceeds")


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
    return Chain(n - 1, coeffs)


def apply_boundary(rack: FiniteRack, c: Chain) -> Chain:
    """Linear extension of boundary_of_monomial."""
    if c.degree <= 1:
        return Chain.zero(max(c.degree - 1, 0))
    coeffs: dict[Monomial, int] = {}
    for mono, coeff in c._coeffs.items():
        for sub, sub_coeff in boundary_of_monomial(rack, mono)._coeffs.items():
            _add_term(coeffs, sub, coeff * sub_coeff)
    return Chain(c.degree - 1, coeffs)


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
    x_k▷tail is looked up in the face table of the row x_k▷(-) on L
    digits, which holds the image of every index of L digits with each
    digit mapped through the row; each distinct row gets its tables on
    0..n-1 digits, each built from the one below.  The columns that start
    with x are the block of indices x·size^(n-1) .. (x+1)·size^(n-1) - 1,
    so starts picks whole blocks.

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
    tables: dict[tuple[int, ...], list[list[int]]] = {}  # row: its face tables
    for row in set(rack.table):
        levels = tables[row] = [[0]]
        for L in range(1, n):
            place, low = size ** (L - 1), levels[-1]
            levels.append([y * place + b for y in row for b in low])
    faces = [  # face k = n - L, for k = 1 .. n - 1
        (size ** (L + 1), size ** L, [tables[row][L] for row in rack.table], 1 if (n - L) % 2 else -1)
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

