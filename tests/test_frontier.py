"""The frontier table runner in `tools/frontier.py`."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "frontier.py"


def test_runs_one_row_in_a_child_and_reports_its_times_and_peak():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "perm (5) D5"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    (line,) = result.stdout.splitlines()
    row = json.loads(line)
    assert list(row) == ["rack", "degree", "wall_s", "top_reduce_s", "peak_rss_mb"]
    assert (row["rack"], row["degree"]) == ("perm (5)", 5)
    assert 0 < row["top_reduce_s"] <= row["wall_s"]
    assert row["peak_rss_mb"] > 0


def test_unknown_row_is_refused_before_any_run():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "perm (5) D5", "perm (9) D9"],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert "unknown rows ['perm (9) D9']" in result.stderr


def test_a_row_reports_the_child_peak_not_the_parent_peak():
    # the child starts as a copy of its parent, so wait4's ru_maxrss counts
    # the 200 MB the parent touched before it ran the row
    script = (
        f"import sys; sys.path.insert(0, {str(SCRIPT.parent)!r})\n"
        "import frontier\n"
        "ballast = bytearray(200 * 2**20)\n"
        "del ballast\n"
        "print(frontier.run_row('perm (5)', 5)['peak_rss_mb'])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert 0 < float(result.stdout) < 100
