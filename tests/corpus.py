"""Shared rack corpora and random chain generators for the test suite."""

from __future__ import annotations

import random
from typing import Iterator

from rackhom import (
    Chain,
    FiniteRack,
    PermutationSpec,
    dihedral_rack,
    permutation_rack,
)


def partitions(total: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Nonincreasing partitions of a positive integer."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def finite_specs(max_total: int) -> list[PermutationSpec]:
    """Every fully finite orbit structure on at most max_total elements."""
    return [
        PermutationSpec(sizes)
        for total in range(1, max_total + 1)
        for sizes in partitions(total)
    ]


def permutation_racks(max_total: int) -> list[FiniteRack]:
    return [permutation_rack(spec) for spec in finite_specs(max_total)]


def mixed_racks(max_size: int) -> list[FiniteRack]:
    """Permutation racks of every orbit structure plus dihedral racks.

    Trivial racks are the all-fixed-point permutation racks, so they are
    already included.
    """
    racks = permutation_racks(max_size)
    racks.extend(dihedral_rack(n) for n in range(1, max_size + 1))
    return racks


def relabeled_rack(rack: FiniteRack, seed: int) -> FiniteRack:
    """The isomorphic rack with every x renamed σ(x), for a σ drawn from the
    seed: T'[σx][σy] = σ(T[x][y])."""
    sigma = list(range(rack.size))
    random.Random(seed).shuffle(sigma)
    table = [[0] * rack.size for _ in range(rack.size)]
    for x, row in enumerate(rack.table):
        for y, v in enumerate(row):
            table[sigma[x]][sigma[y]] = sigma[v]
    return FiniteRack(tuple(map(tuple, table)))


def random_chain(
    rng: random.Random,
    rack: FiniteRack,
    degree: int,
    max_terms: int = 4,
    max_coeff: int = 3,
) -> Chain:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randrange(rack.size) for _ in range(degree))
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        coeffs[mono] = coeffs.get(mono, 0) + coeff
    return Chain(degree, {m: c for m, c in coeffs.items() if c})
