"""Byte-for-byte CLI output: every command in every format on a fixed set
of inputs, plus one case for each stable error message.

Each case records the exit code, stdout and stderr.  To record the golden
file again after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rackhom import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

COMMANDS = ("validate", "homology", "betti", "e2", "cycles", "verify")
FORMATS = ("table", "csv", "json")

# name -> file text; "missing" names a file that is never written.
INPUTS = {
    "perm_unordered": json.dumps({"kind": "permutation", "cycles": [[2, 0], [1]]}),
    "perm_free": json.dumps(
        {"kind": "permutation", "cycles": [[1, 0], [2]], "free_orbits": 1}
    ),
    "dihedral_4": json.dumps(
        {"kind": "table", "table": [[0, 3, 2, 1], [2, 1, 0, 3], [0, 3, 2, 1], [2, 1, 0, 3]]}
    ),
    "perm_2_1_table": json.dumps(
        {"kind": "table", "table": [[1, 0, 2], [1, 0, 2], [1, 0, 2]]}
    ),
    "swap": json.dumps({"kind": "permutation", "cycles": [[0, 1]]}),
    "perm_fixed_3": json.dumps({"kind": "permutation", "cycles": [[0], [1], [2]]}),
    "one_point": json.dumps({"kind": "permutation", "cycles": [[0]]}),
    "perm_many_free": json.dumps(
        {"kind": "permutation", "cycles": [[0]], "free_orbits": 1000000}
    ),
    "not_json": "{not json",
    "not_object": "[]",
    "bad_kind": json.dumps({"kind": "mystery"}),
    "table_extra_field": json.dumps({"kind": "table", "table": [[0]], "cycles": [[0]]}),
    "table_empty": json.dumps({"kind": "table", "table": []}),
    "permutation_no_cycles": json.dumps({"kind": "permutation"}),
    "cycles_empty_cycle": json.dumps({"kind": "permutation", "cycles": [[]]}),
    "free_negative": json.dumps({"kind": "permutation", "cycles": [[0]], "free_orbits": -1}),
    "cycles_bad_ids": json.dumps({"kind": "permutation", "cycles": [[0, 2]]}),
    "permutation_empty": json.dumps({"kind": "permutation", "cycles": []}),
    "not_bijective": json.dumps({"kind": "table", "table": [[0, 0], [1, 1]]}),
    "not_self_distributive": json.dumps({"kind": "table", "table": [[0, 1], [1, 0]]}),
}

MATRIX_INPUTS = ("perm_unordered", "perm_free", "dihedral_4", "perm_2_1_table")

# (command, input, extra flags) for the error messages the matrix misses.
ERROR_CASES = [
    ("validate", "missing", []),
    ("validate", "not_json", []),
    ("validate", "not_object", []),
    ("validate", "bad_kind", []),
    ("validate", "table_extra_field", []),
    ("validate", "table_empty", []),
    ("validate", "permutation_no_cycles", []),
    ("validate", "cycles_empty_cycle", []),
    ("validate", "free_negative", []),
    ("validate", "cycles_bad_ids", []),
    ("validate", "permutation_empty", []),
    ("validate", "not_bijective", []),
    ("validate", "not_self_distributive", []),
    ("betti", "swap", ["--max-degree", "-1"]),
    ("betti", "swap", ["--terms", "0"]),
    ("homology", "swap", ["--max-degree", "4", "--basis-cap", "10"]),
    ("cycles", "swap", ["--max-degree", "4", "--basis-cap", "10"]),
    ("verify", "swap", ["--max-degree", "4", "--basis-cap", "10"]),
    ("verify", "dihedral_4", ["--max-degree", "4", "--basis-cap", "10"]),
    ("e2", "swap", ["--max-degree", "4", "--basis-cap", "10"]),
    ("e2", "perm_free", ["--max-degree", "100000"]),
    ("betti", "swap", ["--max-degree", "10", "--basis-cap", "10"]),
    ("betti", "swap", ["--terms", "11", "--basis-cap", "10"]),
    ("betti", "perm_free", ["--max-degree", "1000000"]),
    ("betti", "perm_many_free", ["--max-degree", "1000"]),
    ("e2", "perm_many_free", ["--max-degree", "1000"]),
    ("cycles", "perm_fixed_3", ["--max-degree", "10"]),
    ("cycles", "one_point", ["--max-degree", "2000"]),
]


def all_cases() -> list[dict]:
    cases = [
        {"command": command, "input": name, "flags": ["--max-degree", "2", "--format", fmt]}
        for name in MATRIX_INPUTS
        for command in COMMANDS
        for fmt in FORMATS
    ]
    cases += [
        {"command": command, "input": name, "flags": flags}
        for command, name, flags in ERROR_CASES
    ]
    return cases


def run_case(case: dict, directory: Path) -> dict:
    """Run one case in this process; the directory is written as {dir}."""
    path = directory / f"{case['input']}.json"
    if case["input"] in INPUTS:
        path.write_text(INPUTS[case["input"]], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([case["command"], "--input", str(path), *case["flags"]])
    return {
        **case,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(str(directory), "{dir}"),
    }


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    recorded = [{k: case[k] for k in ("command", "input", "flags")} for case in golden]
    assert recorded == all_cases()


@pytest.mark.parametrize(
    "index, case",
    list(enumerate(all_cases())),
    ids=["-".join([c["command"], c["input"], *c["flags"]]) for c in all_cases()],
)
def test_output_matches_golden(index, case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[index]


@pytest.mark.parametrize("fmt", FORMATS)
def test_mismatch_exits_one(fmt, tmp_path, monkeypatch):
    """A closed form that disagrees with brute force fails verify."""
    real_betti_numbers = cli.betti_numbers
    monkeypatch.setattr(
        cli, "betti_numbers", lambda spec, d: [b + 1 for b in real_betti_numbers(spec, d)]
    )
    case = {"command": "verify", "input": "perm_unordered", "flags": ["--format", fmt]}
    result = run_case(case, tmp_path)
    assert result["exit"] == 1
    assert result["stderr"] == ""
    if fmt == "table":
        assert result["stdout"].endswith("status: mismatch\n")
    elif fmt == "json":
        assert json.loads(result["stdout"])["status"] == "mismatch"
    else:
        # csv carries no status; the closed form column shows the disagreement.
        rows = [line.split(",") for line in result["stdout"].splitlines()[1:]]
        assert all(int(row[3]) == int(row[1]) + 1 for row in rows)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        recorded = [run_case(case, Path(directory)) for case in all_cases()]
    text = json.dumps(recorded, indent=1, ensure_ascii=False) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
