"""Closed-form homology ranks for permutation racks.

Everything here is a function of two integers only: the number of orbits r
and the number of finite orbits r_fin.  The central objects are the row
polynomial f(T) = (r-1) + r_fin*T of the spectral sequence and the Poincare
series (1+T) / (1 - (r-1)T - r_fin*T^2) it telescopes to.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import Iterator, Sequence

from .racks import EmptySpec, PermutationSpec, Record


class IntPolynomial(Record):
    """Integer polynomial or truncated power series in one variable T.

    ``order`` is the truncation order: coefficients are trusted up to and
    including T^order.  ``order=None`` marks an exact polynomial.  Arithmetic
    truncates to the smallest order among the operands.
    """

    __slots__ = ("coefficients", "order")
    _defaults = {"order": None}
    coefficients: tuple[int, ...]
    order: int | None

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        coeffs = coeffs[:end]
        if self.order is not None:
            if self.order < 0:
                raise ValueError("negative truncation order")
            if len(coeffs) > self.order + 1:
                raise ValueError("more coefficients than the order allows")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _take(cls, coefficients: list[int], order: int | None) -> "IntPolynomial":
        """Internal constructor without the public one's coercion and checks:
        the caller hands over a list of ints that fits the order, whose
        trailing zeros are dropped in place before the one tuple is made."""
        while coefficients and not coefficients[-1]:
            coefficients.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "coefficients", tuple(coefficients))
        object.__setattr__(poly, "order", order)
        return poly

    def coefficient(self, k: int) -> int:
        """Coefficient of T^k; raises beyond the truncation order."""
        if k < 0:
            raise ValueError("negative exponent")
        if self.order is not None and k > self.order:
            raise ValueError(f"coefficient {k} lies beyond truncation order {self.order}")
        return self.coefficients[k] if k < len(self.coefficients) else 0

    def truncate(self, order: int) -> "IntPolynomial":
        if self.order is not None and order > self.order:
            raise ValueError("cannot extend a truncated series")
        return IntPolynomial._take(list(self.coefficients[: order + 1]), order)

    @staticmethod
    def _joint_order(a: "IntPolynomial", b: "IntPolynomial") -> int | None:
        orders = [o for o in (a.order, b.order) if o is not None]
        return min(orders) if orders else None

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        order = self._joint_order(self, other)
        length = max(len(self.coefficients), len(other.coefficients))
        coeffs = [
            (self.coefficients[k] if k < len(self.coefficients) else 0)
            + (other.coefficients[k] if k < len(other.coefficients) else 0)
            for k in range(length)
        ]
        if order is not None:
            del coeffs[order + 1 :]
        return IntPolynomial._take(coeffs, order)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        order = self._joint_order(self, other)
        if not self.coefficients or not other.coefficients:
            return IntPolynomial._take([], order)
        length = len(self.coefficients) + len(other.coefficients) - 1
        if order is not None:
            length = min(length, order + 1)
        coeffs = [0] * length
        for i, a in enumerate(self.coefficients):
            if i >= length:
                break
            for j, b in enumerate(other.coefficients):
                if i + j >= length:
                    break
                coeffs[i + j] += a * b
        return IntPolynomial._take(coeffs, order)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._take([-c for c in self.coefficients], self.order)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,), self.order)
        for _ in range(exponent):
            result = result * self
        return result


def rational_series(
    numerator: Sequence[int], denominator: Sequence[int], terms: int
) -> IntPolynomial:
    """First ``terms`` coefficients of numerator/denominator as power series.

    The denominator must have constant term 1; coefficients then satisfy the
    linear recurrence c_n = num_n - sum_{k>=1} den_k * c_{n-k}, which keeps
    all arithmetic exact and O(terms * len(denominator)).
    """
    if terms < 1:
        raise ValueError("need at least one term")
    if not denominator or denominator[0] != 1:
        raise ValueError("denominator must start with 1")
    coeffs = [0] * terms
    coeffs[: len(numerator)] = map(int, numerator[:terms])
    recurrence = [(k, -int(den)) for k, den in enumerate(denominator) if k and den]
    for n in range(terms):
        c = coeffs[n]
        for k, factor in recurrence:
            if k > n:
                break
            c += factor * coeffs[n - k]
        coeffs[n] = c
    return IntPolynomial._take(coeffs, terms - 1)


class EquivariantRanks(Record):
    """Homology ranks of the homotopy orbit space: r points' worth in degree
    0, one circle class per finite orbit in degree 1, nothing above."""

    __slots__ = ("h0", "h1")
    h0: int
    h1: int

    @property
    def reduced_h0(self) -> int:
        return self.h0 - 1

    @property
    def reduced_h1(self) -> int:
        return self.h1


def _require_orbits(spec: PermutationSpec) -> None:
    if spec.r == 0:
        raise EmptySpec("spec has no orbits")


def equivariant_ranks(spec: PermutationSpec) -> EquivariantRanks:
    """h0 = r (one component per orbit), h1 = r_fin (finite orbits give
    circles, free orbits give contractible components)."""
    _require_orbits(spec)
    return EquivariantRanks(h0=spec.r, h1=spec.r_fin)


def row_polynomial(spec: PermutationSpec) -> IntPolynomial:
    """f(T) = (r-1) + r_fin*T, the reduced equivariant Poincare polynomial."""
    return IntPolynomial((spec.r - 1, spec.r_fin))


def e2_row(spec: PermutationSpec, q: int) -> IntPolynomial:
    """Poincare polynomial of the q-th row of the E^2 page: 1 for q = 0 and
    f(T)^q + f(T)^(q-1) for q >= 1."""
    if q < 0:
        raise ValueError("negative row")
    if q == 0:
        return IntPolynomial((1,))
    f = row_polynomial(spec)
    return f ** q + f ** (q - 1)


def e2_rank(spec: PermutationSpec, p: int, q: int) -> int:
    """Rank of the E^2 entry in bidegree (p, q); zero whenever p > q.

    The coefficient of T^p in f(T)^q + f(T)^(q-1), read off the binomial
    expansion C(q,p)(r-1)^(q-p) r_fin^p + C(q-1,p)(r-1)^(q-1-p) r_fin^p
    instead of multiplying out the powers; `e2_row` is the test oracle.
    """
    if p < 0 or q < 0:
        raise ValueError("negative bidegree")
    if q == 0:
        return 1 if p == 0 else 0
    if p > q:
        return 0
    base, r_fin_p = spec.r - 1, spec.r_fin ** p
    rank = comb(q, p) * base ** (q - p) * r_fin_p
    if p < q:
        rank += comb(q - 1, p) * base ** (q - 1 - p) * r_fin_p
    return rank


def _betti_recursion(spec: PermutationSpec) -> Iterator[int]:
    """b0, b1, b2, ... by b0 = 1, b1 = r, b_{n+2} = (r-1) b_{n+1} + r_fin b_n."""
    r, r_fin = spec.r, spec.r_fin
    beta, beta_next = 1, r
    while True:
        yield beta
        beta, beta_next = beta_next, (r - 1) * beta_next + r_fin * beta


def betti(spec: PermutationSpec, n: int) -> int:
    """Free rank of HR_n by the recursion
    b0 = 1, b1 = r, b_{n+2} = (r-1) b_{n+1} + r_fin b_n."""
    _require_orbits(spec)
    if n < 0:
        raise ValueError("negative degree")
    return next(islice(_betti_recursion(spec), n, None))


def betti_numbers(spec: PermutationSpec, max_degree: int) -> list[int]:
    """[betti(spec, n) for n in 0..max_degree] in one pass of the recursion."""
    _require_orbits(spec)
    if max_degree < 0:
        raise ValueError("negative degree")
    return list(islice(_betti_recursion(spec), max_degree + 1))


def betti_reaches(spec: PermutationSpec, max_degree: int, bound: int) -> bool:
    """Whether some b_n with n <= max_degree is at least ``bound``.

    Runs the recursion only until a value reaches the bound.  Once r >= 2,
    b_n never decreases, so the answer is whether b_max_degree reaches it;
    with r <= 1 every b_n is 0 or 1.
    """
    _require_orbits(spec)
    if spec.r < 2:
        return bound <= 1
    return any(b >= bound for b in islice(_betti_recursion(spec), max_degree + 1))


def poincare_series(spec: PermutationSpec, terms: int) -> IntPolynomial:
    """Truncation of (1+T) / (1 - (r-1)T - r_fin*T^2).

    Expanded by the coefficient recurrence of `rational_series`, which is a
    different route than the Betti recursion and so cross-checks it.
    """
    _require_orbits(spec)
    return rational_series((1, 1), (1, -(spec.r - 1), -spec.r_fin), terms)


def functional_equation_check(r: int, terms: int = 8) -> bool:
    """With every orbit finite, f(T) = (r-1) + rT satisfies
    1 - f(T)T = (1+T)(1-rT).

    Checks the identity exactly as polynomials, then its series consequence
    (1+T)/(1-f(T)T) = 1/(1-rT) on the first ``terms`` coefficients, which is
    the telescoping that collapses the Poincare series to rank r^n.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if terms < 1:
        raise ValueError("need at least one term")
    one = IntPolynomial((1,))
    t = IntPolynomial((0, 1))
    f = IntPolynomial((r - 1, r))
    polynomial_identity = one - f * t == (one + t) * (one - IntPolynomial((0, r)))
    telescoped = rational_series((1, 1), (1, -(r - 1), -r), terms)
    geometric = rational_series((1,), (1, -r), terms)
    return polynomial_identity and telescoped == geometric


def free_permutation_rack_rank(r: int, n: int) -> int:
    """HR_n rank of the free permutation rack on r orbits:
    1 at n = 0, r(r-1)^(n-1) for n >= 1."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("negative degree")
    if n == 0:
        return 1
    return r * (r - 1) ** (n - 1)


def free_rack_rank(generators: int, m: int) -> int:
    """HR_m of the free rack on n generators: Z, Z^n, then nothing."""
    if generators < 1:
        raise ValueError("generators must be positive")
    if m < 0:
        raise ValueError("negative degree")
    if m == 0:
        return 1
    if m == 1:
        return generators
    return 0


def structure_group_rank(spec: PermutationSpec) -> int:
    """The structure group is free abelian on the orbit set."""
    _require_orbits(spec)
    return spec.r


def kunneth_gap(r: int, n: int) -> tuple[int, int]:
    """(actual, naive) HR_n ranks of the free permutation rack on r orbits,
    where naive = r^n + r^(n-1) is what a Kunneth formula would predict.
    They differ for every n >= 2: the Kunneth theorem fails for racks."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("negative degree")
    actual = free_permutation_rack_rank(r, n)
    naive = 1 if n == 0 else r ** n + r ** (n - 1)
    return actual, naive
