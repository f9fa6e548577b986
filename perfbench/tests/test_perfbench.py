"""Tests of the benchmark itself: its answer checks, its relabeling, its
span tree, and the dihedral homology table it checks against.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import DIHEDRAL_HOMOLOGY, check  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job, Rack, relabel_table, relabeling  # noqa: E402

from rackhom.cli import main as cli_main  # noqa: E402
from rackhom.racks import validate_rack  # noqa: E402

SMALL_JOBS = [
    Job("verify", Rack("permutation", (2, 1)), ("--max-degree", "3")),
    Job("verify", Rack("perm-table", (2, 1)), ("--max-degree", "3")),
    Job("cycles", Rack("permutation", (1, 1)), ("--max-degree", "4")),
    Job("e2", Rack("permutation", (1,), 2), ("--max-degree", "8")),
    Job("betti", Rack("permutation", (2, 1), 1), ("--max-degree", "12", "--terms", "15")),
    Job("homology", Rack("dihedral", n=4), ("--max-degree", "3")),
    Job("homology", Rack("dihedral", n=6), ("--max-degree", "2")),
]


def run_cli(job: Job, labels: list[int], tmp_path: Path) -> tuple[int, bytes]:
    source = tmp_path / "rack.json"
    source.write_text(json.dumps(job.rack.document(labels)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([job.command, "--input", str(source), *job.flags, "--format", "json"])
    return code, out.getvalue().encode()


def identity(job: Job) -> list[int]:
    return list(range(job.rack.size))


@pytest.mark.parametrize("job", SMALL_JOBS, ids=Job.describe)
def test_checker_accepts_the_right_answer(job, tmp_path):
    code, stdout = run_cli(job, identity(job), tmp_path)
    assert check(job, code, stdout) == []


def _corruptions(doc: dict) -> list[dict]:
    """Copies of doc with one answer changed."""
    out = []
    for i, row in enumerate(doc["results"]):
        for key in ("free_rank", "closed_form", "e2_total", "bn_size", "certificate_rank"):
            if row.get(key) is not None:
                bad = json.loads(json.dumps(doc))
                bad["results"][i][key] += 1
                out.append(bad)
        if row.get("torsion") is not None:
            bad = json.loads(json.dumps(doc))
            bad["results"][i]["torsion"] = row["torsion"][1:] if row["torsion"] else [7]
            out.append(bad)
    if doc.get("poincare_series"):
        bad = json.loads(json.dumps(doc))
        bad["poincare_series"][-1] -= 1
        out.append(bad)
    if doc.get("e2_page"):
        bad = json.loads(json.dumps(doc))
        bad["e2_page"][-1]["rank"] += 1
        out.append(bad)
    bad = json.loads(json.dumps(doc))
    bad["results"].pop()
    out.append(bad)
    return out


@pytest.mark.parametrize("job", SMALL_JOBS, ids=Job.describe)
def test_checker_rejects_a_corrupted_answer(job, tmp_path):
    code, stdout = run_cli(job, identity(job), tmp_path)
    corrupted = _corruptions(json.loads(stdout))
    assert len(corrupted) > 1
    for doc in corrupted:
        assert check(job, 0, json.dumps(doc).encode()), doc
    assert check(job, 1, stdout) == ["exit code 1"]
    assert check(job, 0, stdout[: len(stdout) // 2])


@pytest.mark.parametrize("job", SMALL_JOBS, ids=Job.describe)
def test_relabeling_leaves_answers_unchanged(job, tmp_path):
    _, plain = run_cli(job, identity(job), tmp_path)
    for seed in (1, 2, 3):
        labels = relabeling(job.rack.size, seed, "0/0")
        _, relabeled = run_cli(job, labels, tmp_path)
        assert json.loads(relabeled)["results"] == json.loads(plain)["results"]


def test_relabeling_is_seeded_and_keeps_seed_0_labels():
    assert relabeling(6, 0, "0/0") == list(range(6))
    assert relabeling(6, 5, "1/2") == relabeling(6, 5, "1/2")
    assert len({tuple(relabeling(6, seed, "0/0")) for seed in range(1, 20)}) > 1
    table = Rack("dihedral", n=5).table()
    labels = relabeling(5, 3, "0/0")
    moved = relabel_table(table, labels)
    assert moved != table
    validate_rack(moved)  # still a rack


def test_every_workload_job_is_checkable():
    for jobs in WORKLOADS.values():
        for job in jobs:
            assert job.max_degree >= 0
            if job.command == "homology":
                assert len(DIHEDRAL_HOMOLOGY[job.rack.n]) > job.max_degree


# The per-module metrics every traced run reports.
EXPECTED_LAYER_METRICS = {
    "cli.load_description_s", "cli.self_s",
    "racks.validate_rack_s", "racks.validate_rack_calls",
    "chains.boundary_matrix_s", "chains.boundary_matrix_calls",
    "chains.boundary_nnz", "chains.boundary_cols",
    "linalg.smith_s", "linalg.smith_calls", "linalg.smith_rank", "linalg.smith_nonunit",
    "linalg.rational_rank_s", "linalg.rational_rank_calls", "linalg.rational_rank_rows",
    "homology.table_s", "homology.self_s",
    "cycles.basis_recipes_s", "cycles.evaluate_s", "cycles.certificate_s",
    "cycles.certificate_self_s", "cycles.recipes", "cycles.chain_terms",
    "closed_forms.e2_rank_s", "closed_forms.e2_rank_calls", "closed_forms.betti_s",
    "closed_forms.betti_calls", "closed_forms.poincare_series_s",
    "closed_forms.poly_mul_calls",
}


def traced(job: Job, tmp_path: Path) -> dict:
    source = tmp_path / "rack.json"
    source.write_text(json.dumps(job.rack.document(identity(job))))
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(HERE / "job.py"), "--spans", str(spans)]
    argv += [job.command, "--input", str(source), *job.flags, "--format", "json"]
    done = subprocess.run(argv, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert check(job, 0, done.stdout) == []
    return json.loads(spans.read_text())


def test_span_tree_nests(tmp_path):
    trace = traced(SMALL_JOBS[0], tmp_path)
    spans = trace["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(parent >= 0 for _, _, _, parent in spans[1:])
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    parents = {name: spans[parent][0] for name, _, _, parent in spans if parent >= 0}
    assert parents["linalg.smith"] == "homology.table"
    assert parents["chains.boundary_matrix"] == "homology.table"
    assert parents["linalg.rational_rank"] == "cycles.certificate"
    assert parents["homology.table"] == "cli.main"


def test_traced_run_reports_every_layer_metric(tmp_path):
    traces = [traced(job, tmp_path) for job in SMALL_JOBS]
    metrics = layer_metrics(traces)
    assert set(metrics) == EXPECTED_LAYER_METRICS
    for name in EXPECTED_LAYER_METRICS:  # smith_nonunit counts dihedral 4's Z/2
        assert metrics[name] > 0, name
    closed = [t for job, t in zip(SMALL_JOBS, traces) if job.command in ("cycles", "e2", "betti")]
    closed_metrics = layer_metrics(closed)
    assert closed_metrics["linalg.smith_calls"] == 0
    assert closed_metrics["chains.boundary_matrix_calls"] == 0


def test_self_time_subtracts_children():
    trace = {
        "spans": [["cli.main", 0.0, 10.0, -1], ["homology.table", 1.0, 9.0, 0],
                  ["linalg.smith", 2.0, 5.0, 1], ["chains.boundary_matrix", 5.0, 6.0, 1]],
        "counts": {"linalg.smith_rank": 3},
    }
    metrics = layer_metrics([trace, trace])
    assert metrics["cli.self_s"] == 4.0
    assert metrics["homology.table_s"] == 16.0
    assert metrics["homology.self_s"] == 8.0
    assert metrics["linalg.smith_calls"] == 2
    assert metrics["linalg.smith_rank"] == 6


# An elimination over F_p written here, sharing no code with rackhom.

def _boundary_columns(table: list[list[int]], n: int):
    """Columns of d_n: (x_1..x_n) -> sum_k (-1)^(k-1) [drop x_k - act by x_k]."""
    size = len(table)
    for w in product(range(size), repeat=n):
        column: dict[int, int] = {}
        for k in range(1, n):
            sign = 1 if k % 2 else -1
            head, x, tail = w[: k - 1], w[k - 1], w[k:]
            for mono, c in ((head + tail, sign), (head + tuple(table[x][v] for v in tail), -sign)):
                index = 0
                for v in mono:
                    index = index * size + v
                column[index] = column.get(index, 0) + c
        yield column


def _rank_mod(columns, p: int) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        v = {i: c % p for i, c in column.items() if c % p}
        while v:
            lead = max(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(v[lead], -1, p)
                pivots[lead] = {i: c * inverse % p for i, c in v.items()}
                break
            factor = v[lead]
            for i, c in pivot.items():
                w = (v.get(i, 0) - factor * c) % p
                if w:
                    v[i] = w
                else:
                    v.pop(i, None)
    return len(pivots)


@pytest.mark.parametrize("n", sorted(DIHEDRAL_HOMOLOGY))
def test_dihedral_table_matches_homology_over_finite_fields(n):
    """By universal coefficients, dim H_k(C; F_p) is the free rank of H_k
    plus the number of cyclic summands of H_k and of H_{k-1} of order
    divisible by p."""
    table = Rack("dihedral", n=n).table()
    groups = DIHEDRAL_HOMOLOGY[n]
    top = len(groups) - 1
    for p in (2, 3, 5, 7):
        ranks = [0, 0] + [_rank_mod(_boundary_columns(table, k), p) for k in range(2, top + 2)]
        for k, (free, torsion) in enumerate(groups):
            below = groups[k - 1][1] if k else ()
            expected = free + sum(t % p == 0 for t in torsion) + sum(t % p == 0 for t in below)
            assert n ** k - ranks[k] - ranks[k + 1] == expected, (n, k, p)


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == EXPECTED_LAYER_METRICS | {"trace_overhead"}
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
