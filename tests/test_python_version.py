"""The source stays within the oldest Python that pyproject.toml declares,
though the tests themselves may run on a newer one."""

import ast
import re
from pathlib import Path

import rackhom

PACKAGE = Path(rackhom.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_module_parses_at_the_declared_minimum():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    oldest = (int(declared[1]), int(declared[2]))
    assert oldest == (3, 10)
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)
