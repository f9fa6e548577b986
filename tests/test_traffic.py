"""The call counter in `tools/traffic.py`."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def test_counts_the_calls_of_one_workload():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "homology-torsion"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    (line,) = result.stdout.splitlines()
    report = json.loads(line)
    assert report["workload"] == "homology-torsion"
    calls = report["calls"]
    # one table per job, and no chain arithmetic: the Chain class body runs
    # on import, but none of its methods is called
    assert calls["homology.homology_table"] == 3
    assert calls["cli.main"] == 3
    assert not [name for name in calls if name.startswith("chains.Chain.")]


def test_an_unknown_workload_is_refused():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "no-such-workload"], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no-such-workload" in result.stderr
