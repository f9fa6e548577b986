"""The documented examples run: the doctests of `rackhom.racks` and the
Library block of the README."""

import contextlib
import doctest
import io
import re
from pathlib import Path

import rackhom.racks

README = Path(__file__).resolve().parents[1] / "README.md"


def test_racks_doctests_pass():
    failed, attempted = doctest.testmod(rackhom.racks)
    assert (failed, attempted) == (0, 4)


def test_readme_library_block_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "HomologyGroup(free_rank=8, torsion=())",
        "8",
        "(3,)",
        "(4, True)",
    ]
