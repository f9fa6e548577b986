"""Answer checks that do not trust rackhom.

Each check takes a job and the JSON document rackhom printed for it and
returns a list of problems; an empty list means the answer is right.  The
expected values come from mathematics computed here, never from the
program under test:

- every finite permutation rack with r orbits has free rank r^n and no
  torsion in degree n, so `verify` and `cycles` must report r^n throughout;
- E^2 cells come from the binomial expansion of f(T)^q + f(T)^(q-1) with
  f(T) = (r-1) + r_fin*T, and Betti numbers from the recursion
  b_{n+2} = (r-1) b_{n+1} + r_fin b_n;
- dihedral racks are checked against the (free rank, torsion) table below.
"""

from __future__ import annotations

import json
from math import comb

from workloads import Job, Rack

# HR_n of the dihedral racks, degree by degree, as (free rank, torsion
# orders).  Free ranks are (number of orbits)^n: 1 for n odd, 2^n for n even
# (Etingof and Graña).  Torsion was cross-checked by Betti numbers over F_2,
# F_3 and F_5 from an elimination in the benchmark's tests.
DIHEDRAL_HOMOLOGY: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {
    4: (
        (1, ()),
        (2, ()),
        (4, (2,) * 2),
        (8, (2,) * 6),
        (16, (2,) * 22),
        (32, (2,) * 66),
    ),
    5: ((1, ()), (1, ()), (1, ()), (1, (5,)), (1, (5, 5))),
    6: ((1, ()), (2, ()), (4, ()), (8, (3, 3))),
}


def orbit_counts(rack: Rack) -> tuple[int, int]:
    """(r, r_fin): all orbits, and the finite ones."""
    r_fin = len(rack.orbit_sizes)
    return r_fin + rack.free_orbits, r_fin


def betti_numbers(r: int, r_fin: int, count: int) -> list[int]:
    """b_0 .. b_{count-1} by the Betti recursion."""
    values = [1, r]
    while len(values) < count:
        values.append((r - 1) * values[-1] + r_fin * values[-2])
    return values[:count]


def e2_cell(r: int, r_fin: int, p: int, q: int) -> int:
    """Coefficient of T^p in f^q + f^(q-1) (just 1 at (0, 0) for q = 0)."""
    if q == 0:
        return 1 if p == 0 else 0
    cell = comb(q, p) * (r - 1) ** (q - p) * r_fin ** p if p <= q else 0
    if p <= q - 1:
        cell += comb(q - 1, p) * (r - 1) ** (q - 1 - p) * r_fin ** p
    return cell


def _rows(job: Job, doc: dict, problems: list[str]) -> list[dict]:
    rows = doc.get("results", [])
    if [row.get("degree") for row in rows] != list(range(job.max_degree + 1)):
        problems.append("results do not cover degrees 0..max-degree")
        return []
    return rows


def check_verify(job: Job, doc: dict) -> list[str]:
    problems: list[str] = []
    r, _ = orbit_counts(job.rack)
    for row in _rows(job, doc, problems):
        n, want = row["degree"], r ** row["degree"]
        got = [row.get(k) for k in ("free_rank", "closed_form", "e2_total", "bn_size", "certificate_rank")]
        if got != [want] * 5 or row.get("torsion") != [] or row.get("independent") is not True:
            problems.append(f"degree {n}: expected rank {want}, no torsion, got {row}")
    if doc.get("status") != "ok":
        problems.append(f"status {doc.get('status')!r}")
    return problems


def check_cycles(job: Job, doc: dict) -> list[str]:
    problems: list[str] = []
    r, _ = orbit_counts(job.rack)
    for row in _rows(job, doc, problems):
        n, want = row["degree"], r ** row["degree"]
        got = [row.get("bn_size"), row.get("certificate_rank"), len(row.get("recipes") or ())]
        if got != [want] * 3 or row.get("independent") is not True:
            problems.append(f"degree {n}: expected {want} independent recipes, got {got}")
    if doc.get("status") != "ok":
        problems.append(f"status {doc.get('status')!r}")
    return problems


def check_e2(job: Job, doc: dict) -> list[str]:
    problems: list[str] = []
    r, r_fin = orbit_counts(job.rack)
    top = job.max_degree
    betti = betti_numbers(r, r_fin, top + 1)
    for row in _rows(job, doc, problems):
        if row.get("e2_total") != betti[row["degree"]]:
            problems.append(f"degree {row['degree']}: e2_total {row.get('e2_total')}")
    want = [(p, q, e2_cell(r, r_fin, p, q)) for q in range(top + 1) for p in range(top + 1 - q)]
    got = [(c.get("p"), c.get("q"), c.get("rank")) for c in doc.get("e2_page", [])]
    if got != want:
        problems.append("e2_page differs from the binomial expansion")
    return problems


def check_betti(job: Job, doc: dict) -> list[str]:
    problems: list[str] = []
    r, r_fin = orbit_counts(job.rack)
    betti = betti_numbers(r, r_fin, max(job.max_degree + 1, job.terms))
    for row in _rows(job, doc, problems):
        if row.get("closed_form") != betti[row["degree"]]:
            problems.append(f"degree {row['degree']}: closed_form differs")
    if doc.get("poincare_series") != betti[: job.terms]:
        problems.append("poincare_series differs from the Betti recursion")
    return problems


def check_homology(job: Job, doc: dict) -> list[str]:
    problems: list[str] = []
    table = DIHEDRAL_HOMOLOGY[job.rack.n]
    for row in _rows(job, doc, problems):
        n = row["degree"]
        free, torsion = table[n]
        if row.get("free_rank") != free or row.get("torsion") != list(torsion):
            problems.append(
                f"degree {n}: expected {free} and torsion {list(torsion)}, "
                f"got {row.get('free_rank')} and {row.get('torsion')}"
            )
    return problems


def check_validate(job: Job, doc: dict) -> list[str]:
    summary = doc.get("summary") or {}
    if summary.get("size") != job.rack.size:
        return [f"validate reports size {summary.get('size')}, expected {job.rack.size}"]
    return []


CHECKS = {
    "verify": check_verify,
    "cycles": check_cycles,
    "e2": check_e2,
    "betti": check_betti,
    "homology": check_homology,
    "validate": check_validate,
}


def check(job: Job, exit_code: int, stdout: bytes) -> list[str]:
    """Problems with one job's outcome: nonzero exit, unreadable output, or a
    wrong answer."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    return CHECKS[job.command](job, doc)
