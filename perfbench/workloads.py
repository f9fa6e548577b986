"""The benchmark's workloads: which racks, which rackhom commands, and the
seeded relabeling that turns them into input documents.

Every job is a rackhom CLI invocation on one rack.  The rack is stored with
its labels as given; `Rack.document` applies a relabeling drawn from the
workload seed, so the program only ever sees generated inputs.  Seed 0 keeps
the labels as given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Rack:
    """A rack the benchmark feeds to rackhom.

    kind is "permutation" (cycles of φ plus free orbits), "perm-table" (the
    same finite permutation rack written as an explicit table) or
    "dihedral" (the table x ▷ y = 2x - y mod n).
    """

    kind: str
    orbit_sizes: tuple[int, ...] = ()
    free_orbits: int = 0
    n: int = 0

    @property
    def size(self) -> int:
        return self.n if self.kind == "dihedral" else sum(self.orbit_sizes)

    @property
    def label(self) -> str:
        if self.kind == "dihedral":
            return f"dihedral {self.n}"
        sizes = ",".join(map(str, self.orbit_sizes))
        free = f"+{self.free_orbits} free" if self.free_orbits else ""
        table = " table" if self.kind == "perm-table" else ""
        return f"perm ({sizes}){free}{table}"

    def cycles(self) -> list[list[int]]:
        """Cycles of φ in the given labels: consecutive ids per orbit."""
        cycles, start = [], 0
        for d in self.orbit_sizes:
            cycles.append(list(range(start, start + d)))
            start += d
        return cycles

    def table(self) -> list[list[int]]:
        """Operation table table[x][y] = x ▷ y in the given labels."""
        if self.kind == "dihedral":
            return [[(2 * x - y) % self.n for y in range(self.n)] for x in range(self.n)]
        phi = [0] * self.size
        for cycle in self.cycles():
            for i, v in enumerate(cycle):
                phi[v] = cycle[(i + 1) % len(cycle)]
        return [list(phi) for _ in phi]

    def document(self, relabel: list[int]) -> dict:
        """The input document with element x renamed relabel[x]."""
        if self.kind == "permutation":
            return {
                "kind": "permutation",
                "cycles": [[relabel[v] for v in cycle] for cycle in self.cycles()],
                "free_orbits": self.free_orbits,
            }
        return {"kind": "table", "table": relabel_table(self.table(), relabel)}


def relabel_table(table: list[list[int]], relabel: list[int]) -> list[list[int]]:
    """The isomorphic table with x renamed relabel[x]: T'[σx][σy] = σ(T[x][y])."""
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            out[relabel[x]][relabel[y]] = relabel[v]
    return out


def relabeling(size: int, seed: int, stream: str) -> list[int]:
    """A permutation of range(size) drawn from (seed, stream); the identity
    for seed 0.  String seeds hash the same way in every interpreter."""
    labels = list(range(size))
    if seed:
        random.Random(f"{seed}/{stream}").shuffle(labels)
    return labels


@dataclass(frozen=True)
class Job:
    """One rackhom invocation: command, rack, and the flags after --input."""

    command: str
    rack: Rack
    flags: tuple[str, ...]

    @property
    def max_degree(self) -> int:
        return int(self.flags[self.flags.index("--max-degree") + 1])

    @property
    def terms(self) -> int:
        return int(self.flags[self.flags.index("--terms") + 1])

    def describe(self) -> str:
        return f"{self.command} {self.rack.label} {' '.join(self.flags)}"


def _perm(*sizes: int, free: int = 0) -> Rack:
    return Rack("permutation", sizes, free)


def _degree(d: int) -> tuple[str, ...]:
    return ("--max-degree", str(d))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Torsion-free boundaries of almost only unit pivots: Smith form dominates.
    "verify-perm": (
        Job("verify", _perm(5), _degree(4)),
        Job("verify", _perm(3, 2), _degree(4)),
        Job("verify", _perm(2, 1, 1, 1), _degree(4)),
        # The table form makes verify validate the table twice.
        Job("verify", Rack("perm-table", (2, 2, 1)), _degree(4)),
        Job("verify", _perm(2, 1), _degree(6)),
    ),
    # Non-unit pivots and Z/2, Z/3, Z/5 torsion; no cycles, no closed forms.
    "homology-torsion": (
        Job("homology", Rack("dihedral", n=5), _degree(4)),
        Job("homology", Rack("dihedral", n=4), _degree(5)),
        Job("homology", Rack("dihedral", n=6), _degree(3)),
    ),
    # No boundary matrix and no Smith form: cycle bases and closed forms only.
    "closed-forms": (
        Job("cycles", _perm(1, 1, 1, 1), _degree(6)),
        Job("cycles", _perm(1, 1, 1), _degree(7)),
        Job("e2", _perm(1, free=2), _degree(60)),
        Job("e2", _perm(2, 1, free=1), _degree(50)),
        Job("betti", _perm(2, 1, free=1), _degree(3000) + ("--terms", "3000")),
    ),
}
