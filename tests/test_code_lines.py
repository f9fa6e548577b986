"""The code-line counter in `tools/code_lines.py`."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring,
over two lines."""

# a comment
import os

TEXT = """a string argument
counts for its first line"""


def join(a,
         b):
    """A function docstring."""
    return os.path.join(a, b)  # a trailing comment
'''


def test_counts_code_lines_only(tmp_path):
    # import, TEXT, def (two lines), return; not the docstrings, the
    # comment, the blank lines or the string's second line
    module = tmp_path / "module.py"
    module.write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert [line.split() for line in result.stdout.splitlines()] == [
        ["0", str(tmp_path / "empty.py")],
        ["5", str(module)],
        ["5", "total"],
    ]
