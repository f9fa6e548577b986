"""Finite racks, permutation racks, and orbit decompositions.

Elements are dense integer ids 0..size-1.  Orbits are numbered canonically
(sorted by minimal element) so that every matrix built downstream is
reproducible bit for bit.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional, Sequence

DEFAULT_BASIS_CAP = 10 ** 6


class DegreeTooLarge(ValueError):
    """|X|^n exceeds the configured basis cap."""


def check_basis(size: int, degrees: range, cap: int, verb: str = "basis monomials exceed") -> None:
    """Raise DegreeTooLarge for the smallest n in degrees with size^n over
    the cap.  With size >= 2, size^n >= 2^n > cap once n >= cap.bit_length(),
    so no power past that is computed; 1^n is 1 in every degree."""
    if size == 1:
        degrees = degrees[:1]
    for n in degrees:
        if size ** min(n, cap.bit_length()) > cap:
            raise DegreeTooLarge(f"{size}^{n} {verb} the cap of {cap}")


def check_count(count: int, cap: int, text: str, *args: object) -> None:
    """Raise DegreeTooLarge if count exceeds the cap; text says what was
    counted, as a format string of count and args, formatted only then."""
    if count > cap:
        raise DegreeTooLarge(f"{text.format(count, *args)} the cap of {cap}")


class NotBijective(ValueError):
    """Row x of the table is not a permutation of the element set."""

    def __init__(self, x: int):
        self.x = x
        super().__init__(f"row {x} is not a bijection")


class NotSelfDistributive(ValueError):
    """Witnessing triple (x, y, z) with x▷(y▷z) != (x▷y)▷(x▷z)."""

    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"self-distributivity fails at {(x, y, z)}")


class NotPermutation(ValueError):
    """The rack is not a permutation rack (rows of the table differ)."""


class InfiniteOrbits(ValueError):
    """A finite realization or brute-force computation was requested for a
    spec with free (infinite) orbits."""


class EmptySpec(ValueError):
    """The spec has no orbits at all (r = 0)."""


_set_field = object.__setattr__  # bound once: records are built in bulk


class Record:
    """An immutable record whose fields are its class's ``__slots__``.

    Built from its fields by position or keyword, those named in
    ``_defaults`` being optional; ``__post_init__`` then checks them and
    may normalize one with ``object.__setattr__``.  A record equals only a
    record of its own type with equal fields, hashes as the tuple of its
    fields, prints as ``Name(field=value, ...)``, and is copied and pickled
    field by field, without ``__post_init__``.
    """

    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            args = tuple(values[name] for name in fields)
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _restore, (type(self), self._fields())


def _restore(cls: type[Record], fields: tuple) -> Record:
    """The copy or unpickled record of cls with these fields, which were
    checked when the original was built."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        _set_field(record, name, value)
    return record


class FiniteRack(Record):
    """A finite set with a binary operation x ▷ y = table[x][y].

    Validation runs on construction: every row must be a bijection and
    the operation self-distributive, so a FiniteRack in hand is always a
    rack.  Self-distributivity compares |X|² pairs of composed rows, |X|³
    entries, except on a permutation rack (all rows equal), which always
    has it: the check is then |X|².
    Instances are immutable and hashable.
    """

    __slots__ = ("table",)
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise ValueError("empty rack")
        universe = frozenset(range(n))
        for x, row in enumerate(table):
            if len(row) != n or set(row) != universe:
                raise NotBijective(x)
        if as_permutation(self) is not None:
            return  # a permutation rack: x▷(y▷z) = φ(φ(z)) = (x▷y)▷(x▷z)
        # φ_x∘φ_y = φ_{x▷y}∘φ_x as rows, where φ_a∘φ_b is getters[b](table[a])
        getters = [itemgetter(*row) for row in table]
        for x, row in enumerate(table):
            for y, xy in enumerate(row):
                if getters[y](row) != getters[x](table[xy]):
                    z = next(z for z in range(n) if row[table[y][z]] != table[xy][row[z]])
                    raise NotSelfDistributive(x, y, z)

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        """x ▷ y."""
        return self.table[x][y]


class PermutationSpec(Record):
    """Orbit data of a permutation: finite orbit sizes plus a count of free
    (infinite) orbits.  This is all the closed forms ever look at.

    r = total number of orbits, r_fin = number of finite ones.
    """

    __slots__ = ("finite_orbit_sizes", "free_orbit_count")
    _defaults = {"finite_orbit_sizes": (), "free_orbit_count": 0}
    finite_orbit_sizes: tuple[int, ...]
    free_orbit_count: int

    def __post_init__(self) -> None:
        sizes = tuple(int(d) for d in self.finite_orbit_sizes)
        object.__setattr__(self, "finite_orbit_sizes", sizes)
        if any(d < 1 for d in sizes):
            raise ValueError("orbit sizes must be positive")
        if self.free_orbit_count < 0:
            raise ValueError("free_orbit_count must be nonnegative")

    @property
    def r(self) -> int:
        return len(self.finite_orbit_sizes) + self.free_orbit_count

    @property
    def r_fin(self) -> int:
        return len(self.finite_orbit_sizes)

    @classmethod
    def from_rack(cls, rack: FiniteRack) -> "PermutationSpec":
        dec = orbit_decomposition(require_permutation(rack))
        return cls(tuple(len(orbit) for orbit in dec.orbits))


class OrbitDecomposition(Record):
    """Cycles of a permutation, minimal element first, sorted by minimal
    element; orbit_of[x] is the index of the cycle containing x."""

    __slots__ = ("orbits", "orbit_of")
    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(orbit) for orbit in self.orbits)


def validate_rack(table: Sequence[Sequence[int]]) -> FiniteRack:
    """Check both rack axioms exhaustively and return the validated rack.

    Raises NotBijective(x) for the first bad row, else NotSelfDistributive
    with the lexicographically first witnessing triple.  A table whose rows
    are all equal is a permutation rack and needs no triple checked.

    >>> validate_rack([[1, 0], [1, 0]]).op(0, 0)
    1
    >>> validate_rack([[0, 1], [1, 0]])
    Traceback (most recent call last):
        ...
    rackhom.racks.NotSelfDistributive: self-distributivity fails at (1, 0, 0)
    """
    return FiniteRack(tuple(tuple(row) for row in table))


def permutation_rack(spec: PermutationSpec) -> FiniteRack:
    """Realize a fully finite spec as the rack x ▷ y = φ(y).

    Orbit k occupies the consecutive ids after orbits 0..k-1, each cycled in
    id order, so the numbering is deterministic.
    """
    if spec.free_orbit_count > 0:
        raise InfiniteOrbits("free orbits have no finite realization")
    if spec.r == 0:
        raise EmptySpec("no orbits")
    phi: list[int] = []
    start = 0
    for d in spec.finite_orbit_sizes:
        phi.extend(start + (i + 1) % d for i in range(d))
        start += d
    row = tuple(phi)
    return FiniteRack(tuple(row for _ in row))


def trivial_rack(n: int) -> FiniteRack:
    """The rack x ▷ y = y on n elements."""
    if n < 1:
        raise ValueError("n must be positive")
    row = tuple(range(n))
    return FiniteRack(tuple(row for _ in range(n)))


def dihedral_rack(n: int) -> FiniteRack:
    """The rack x ▷ y = 2x - y mod n.

    Not a permutation rack for n >= 3; kept as a corpus of genuinely
    non-permutation racks for exercising the general code paths.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return FiniteRack(
        tuple(tuple((2 * x - y) % n for y in range(n)) for x in range(n))
    )


def start_set(rack: FiniteRack) -> tuple[int, ...]:
    """A start set S, sorted: every element reaches S through the maps t▷(-)
    with t in S, so it lies on an orbit of ⟨t▷ : t in S⟩ that meets S.

    Chosen greedily: each step adds the element that leaves the fewest
    elements unreached, the smaller label on a tie, until none is.  The
    orbits are tracked by union-find.  Candidates with equal rows give the
    same orbits, so each step joins each distinct row into the orbits once,
    at O(|X|), and reads every candidate's count off that trial's orbit
    sizes: with k distinct rows the choice costs O(|X|·(|X| + k·|S|)).  A
    permutation rack gets the smallest element of each φ-orbit; a dihedral
    rack of three or more elements gets two.

    >>> start_set(FiniteRack(((0, 2, 1), (2, 1, 0), (1, 0, 2))))
    (0, 1)
    """
    size = rack.size
    candidates: dict[tuple[int, ...], list[int]] = {}
    for s, row in enumerate(rack.table):
        candidates.setdefault(row, []).append(s)
    parent = list(range(size))
    chosen: list[int] = []
    unreached = size
    while unreached:
        best = None
        for row, labels in candidates.items():
            trial = parent.copy()
            for x, y in enumerate(row):
                _union(trial, x, y)
            roots = [_find(trial, x) for x in range(size)]
            orbit_sizes = [0] * size
            for root in roots:
                orbit_sizes[root] += 1
            reached = {roots[t] for t in chosen}
            left = size - sum(orbit_sizes[root] for root in reached)
            for s in labels:
                # adding s reaches its orbit, unless a chosen element has already
                count = left if roots[s] in reached else left - orbit_sizes[roots[s]]
                if best is None or (count, s) < best[:2]:
                    best = (count, s, trial)
        unreached, s, parent = best
        chosen.append(s)
        labels = candidates[rack.table[s]]
        labels.remove(s)
        if not labels:
            del candidates[rack.table[s]]
    return tuple(sorted(chosen))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def as_permutation(rack: FiniteRack) -> Optional[tuple[int, ...]]:
    """The permutation φ with x ▷ y = φ(y), or None if rows differ."""
    first = rack.table[0]
    for row in rack.table[1:]:
        if row != first:
            return None
    return first


def require_permutation(rack: FiniteRack) -> tuple[int, ...]:
    """φ, or raise NotPermutation if the rows of the table differ."""
    phi = as_permutation(rack)
    if phi is None:
        raise NotPermutation("rows of the table differ")
    return phi


def orbit_count(rack: FiniteRack) -> int:
    """The number of orbits of X under all the maps x▷(-): by Etingof and
    Graña, the free rank of HR_n is its n-th power."""
    parent = list(range(rack.size))
    for row in rack.table:
        for y, z in enumerate(row):
            _union(parent, y, z)
    return sum(1 for x, root in enumerate(parent) if x == root)


def orbit_decomposition(phi: Sequence[int]) -> OrbitDecomposition:
    """Cycle decomposition of a permutation of {0..n-1}.

    >>> orbit_decomposition((1, 0, 2)).orbits
    ((0, 1), (2,))
    """
    n = len(phi)
    if sorted(phi) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    seen = [False] * n
    orbits: list[tuple[int, ...]] = []
    orbit_of = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit_of[x] = len(orbits)
            cycle.append(x)
            x = phi[x]
        orbits.append(tuple(cycle))
    return OrbitDecomposition(tuple(orbits), tuple(orbit_of))
