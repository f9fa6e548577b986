"""Rerun the baseline table of ROADMAP.md: `homology_table(rack, D,
cap=10**9)` for each row, one fresh process per row.

    python3 tools/frontier.py [LABEL ...]    (default: every row)

A label is a row's rack and degree, as in "perm (5) D5" or "dihedral 3 D9".
Prints one JSON object per row, as each row ends: the rack, the degree,
`wall_s` (the `homology_table` call), `top_reduce_s` (its last
`smith_reduce` call, the one on d_{D+1}) and `peak_rss_mb` (the child's
own peak resident set, its VmHWM; where /proc has none, `os.wait4`'s
ru_maxrss, which also counts the parent's peak at the spawn).  The rows
take from 0.04 s to about 30 s each, and up to about 500 MB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (rack, degree) in the table's order
ROWS = (
    ("perm (5)", 5),
    ("dihedral 5", 5),
    ("dihedral 7", 4),
    ("dihedral 4", 6),
    ("dihedral 9", 4),
    ("dihedral 3", 8),
    ("dihedral 8", 4),
    ("dihedral 3", 9),
    ("dihedral 5", 6),
    ("dihedral 4", 7),
    ("perm (2,2,1)", 7),
)
LABELS = {f"{rack} D{degree}": (rack, degree) for rack, degree in ROWS}


def measure(rack_name: str, degree: int) -> dict[str, float | None]:
    """In this process: time one `homology_table` call and its last
    `smith_reduce`, which the module calls by its own global name, then
    read the process's peak."""
    sys.path.insert(0, str(SRC))
    from rackhom import homology, racks

    kind, _, arg = rack_name.partition(" ")
    if kind == "dihedral":
        rack = racks.dihedral_rack(int(arg))
    else:
        sizes = tuple(int(d) for d in arg.strip("()").split(","))
        rack = racks.permutation_rack(racks.PermutationSpec(sizes))
    reduce_seconds = []
    smith_reduce = homology.smith_reduce

    def timed_reduce(*args: object) -> object:
        start = time.perf_counter()
        result = smith_reduce(*args)
        reduce_seconds.append(time.perf_counter() - start)
        return result

    homology.smith_reduce = timed_reduce
    start = time.perf_counter()
    homology.homology_table(rack, degree, cap=10**9)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "top_reduce_s": reduce_seconds[-1], "peak_kib": _own_peak_kib()}


def _own_peak_kib() -> int | None:
    """This process's peak resident set in KiB (VmHWM), or None where
    /proc/self/status does not give it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_row(rack_name: str, degree: int) -> dict[str, object]:
    """One row in a fresh child process, with the child's own peak RSS."""
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", rack_name, str(degree)],
        stdout=subprocess.PIPE,
    )
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{rack_name} D{degree}: child exited {child.returncode}")
    times = json.loads(out)
    return {
        "rack": rack_name,
        "degree": degree,
        "wall_s": round(times["wall_s"], 6),
        "top_reduce_s": round(times["top_reduce_s"], 6),
        "peak_rss_mb": round((times["peak_kib"] or usage.ru_maxrss) / 1024, 1),  # both in KiB
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(argv[1], int(argv[2]))))
        return 0
    unknown = [label for label in argv if label not in LABELS]
    if unknown:
        print(f"unknown rows {unknown}; the rows are {list(LABELS)}", file=sys.stderr)
        return 2
    for label in argv or LABELS:
        print(json.dumps(run_row(*LABELS[label])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
