"""Run one rackhom CLI invocation in this interpreter, then exit with its code.

    python3 perfbench/job.py [--spans PATH] <rackhom arguments>

With --spans, rackhom's module boundaries are wrapped and the spans are
written to PATH when the invocation ends.  Without it nothing but rackhom
is imported, so an untraced job pays no tracing cost.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from rackhom.cli import main as cli_main

        return cli_main(argv)
    spans_path, argv = argv[1], argv[2:]
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    tracer = Tracer()
    traced_main = tracer.install()
    try:
        return traced_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
