"""Check that the benchmark's jobs print the same bytes in this checkout and
in another one.

    python3 tools/same_outputs.py OTHER_CHECKOUT [--workload W ...]
        [--seed S ...] [--passes N] [--format F ...]

Runs every job of `perfbench/workloads.py`, and each workload's `validate`
setup job on its first job's rack, on the inputs `perfbench/run.py` would
give them: job i of pass p is relabeled by the stream "p/i", and the setup
job by "0/0".  Each job runs twice from one temporary directory, on the
same input file: once with this checkout's `src/` on PYTHONPATH and once
with OTHER_CHECKOUT's.  Prints one JSON line per job whose stdout, stderr
or exit code differs, then the number of mismatches; exits 1 if there is
any, 2 if OTHER_CHECKOUT has no rackhom sources.

Defaults: every workload, seeds 0 and 5, passes 0, 1 and 2 (--passes 3),
and the formats table, csv and json.  Only reads `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # read perfbench/, leave no cache in it
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Job, relabeling  # noqa: E402

FORMATS = ("table", "csv", "json")
CHANNELS = ("stdout", "stderr", "exit code")


def jobs(workloads: list[str], passes: int) -> list[tuple[object, Job, str]]:
    """(pass, job, stream) for each workload's setup job, then its passes."""
    out = []
    for name in workloads:
        listed = WORKLOADS[name]
        out.append(("setup", Job("validate", listed[0].rack, ()), "0/0"))
        for index in range(passes):
            out += [(index, job, f"{index}/{i}") for i, job in enumerate(listed)]
    return out


def run(src: Path, job: Job, fmt: str, cwd: str) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of the job on cwd's input.json."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "rackhom.cli", job.command, "--input", "input.json"]
    argv += [*job.flags, "--format", fmt]
    done = subprocess.run(argv, capture_output=True, cwd=cwd, env=env)
    return done.stdout, done.stderr, done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, metavar="OTHER_CHECKOUT")
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", nargs="+", type=int, default=[0, 5])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--format", nargs="+", choices=FORMATS, default=list(FORMATS))
    args = parser.parse_args(argv)
    other = args.other.resolve() / "src"
    if not (other / "rackhom" / "cli.py").is_file():
        print(f"same_outputs: no rackhom sources under {other}", file=sys.stderr)
        return 2

    mismatches = total = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seed:
            for index, job, stream in jobs(args.workload, args.passes):
                document = job.rack.document(relabeling(job.rack.size, seed, stream))
                Path(work, "input.json").write_text(json.dumps(document), encoding="utf-8")
                for fmt in args.format:
                    total += 1
                    here = run(ROOT / "src", job, fmt, work)
                    there = run(other, job, fmt, work)
                    differs = [name for name, a, b in zip(CHANNELS, here, there) if a != b]
                    if differs:
                        mismatches += 1
                        row = {"job": job.describe().rstrip(), "seed": seed, "pass": index}
                        print(json.dumps({**row, "format": fmt, "differs": differs}), flush=True)
    print(f"{mismatches} of {total} jobs differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
