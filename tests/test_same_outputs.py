"""The output comparison in `tools/same_outputs.py`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "same_outputs.py"
NARROW = ["--workload", "homology-torsion", "--seed", "0", "--passes", "1", "--format", "json"]


def compare(other):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(other), *NARROW], capture_output=True, text=True
    )


def test_this_checkout_matches_itself():
    result = compare(ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "0 of 4 jobs differ\n"


def test_a_changed_report_is_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "rackhom" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"status": "ok"') == 1
    cli.write_text(source.replace('"status": "ok"', '"status": "changed"'), encoding="utf-8")
    result = compare(tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    *rows, count = result.stdout.splitlines()
    # the setup job's validate report and the three homology jobs
    assert count == "4 of 4 jobs differ"
    first = json.loads(rows[0])
    assert first == {
        "job": "validate dihedral 5", "seed": 0, "pass": "setup", "format": "json",
        "differs": ["stdout"],
    }
    assert json.loads(rows[1])["job"] == "homology dihedral 5 --max-degree 4"
