"""Count the calls that the benchmark's jobs make of each rackhom function.

    python3 tools/traffic.py [WORKLOAD ...]    (default: every workload)

For each workload of `perfbench/workloads.py`, runs every job in this
process through `rackhom.cli.main` on its seed-0 input, with `--format json`
and stdout discarded, under `sys.setprofile`.  Prints one JSON line per
workload, {"workload": ..., "calls": {"chains.boundary_columns": 23, ...}}:
the number of Python calls of each function defined under `src/rackhom`,
keyed by module and qualified name, in name order.  A generator, such as a
generator expression, counts once when it starts, not once per resume; a
module or class body counts once when it runs, as `chains.<module>` or
`chains.Chain`.  A method missing from the counts, such as any
`chains.Chain.` name, was not called by the benchmark's jobs.  Exits 1 if
a job does not exit 0.
Only reads `perfbench/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from inspect import CO_GENERATOR
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # read perfbench/, leave no cache in it
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from rackhom.cli import main as rackhom_main  # noqa: E402
from workloads import WORKLOADS, Job, relabeling  # noqa: E402


def count_calls(jobs: tuple[Job, ...], work: Path) -> Counter[str]:
    """Calls of each rackhom function made by running the jobs in turn."""
    calls: Counter[str] = Counter()
    starts: dict[object, int] = {}  # generator code: its frames' first offset

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("rackhom."):
            return
        code = frame.f_code
        if code.co_flags & CO_GENERATOR and starts.setdefault(code, frame.f_lasti) != frame.f_lasti:
            return  # a resume: the first entry always stops at the same offset
        name = getattr(code, "co_qualname", code.co_name)
        calls[f"{module.removeprefix('rackhom.')}.{name}"] += 1

    for job in jobs:
        path = work / "input.json"
        document = job.rack.document(relabeling(job.rack.size, 0, "0/0"))
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = [job.command, "--input", str(path), *job.flags, "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = rackhom_main(argv)
            finally:
                sys.setprofile(None)
        if code != 0:
            raise SystemExit(f"traffic: {job.describe().rstrip()} exited {code}")
    return calls


def main(argv: list[str]) -> int:
    unknown = sorted(set(argv) - set(WORKLOADS))
    if unknown:
        print(f"traffic: unknown workload {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        for name in argv or list(WORKLOADS):
            calls = count_calls(WORKLOADS[name], Path(work))
            print(json.dumps({"workload": name, "calls": dict(sorted(calls.items()))}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
