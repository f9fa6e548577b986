"""rackhom benchmark: run a workload's job list, check every answer, print metrics.

    python3 perfbench/run.py --workload verify-perm --seed 0 --seconds 42 --trace 0

Load shape: a closed loop with one client.  Jobs run one at a time, each in
a fresh interpreter that calls `rackhom.cli.main(argv)`, and the next job
starts when the previous one has been reaped.  A pass runs the whole job
list once; passes repeat while the next one is predicted to end within
--seconds, and every metric is the median over passes.

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s).  --trace 1 runs one untraced and one traced pass and reports the
per-module metrics of the traced pass plus trace_overhead, the traced pass's
extra wall time as a share of the untraced one.  The last line of stdout is
one JSON object; the lines before it are for people.  Spans and a record of
the run go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from spans import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job, relabeling  # noqa: E402

JOB_TIMEOUT_S = 60.0  # a hang counts as a failed job instead of stalling the run
RUN_LIMIT_S = 170.0  # no job starts, or runs on, past this point of a run
SETUP_REPEATS = 11


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Pass:
    runs: list[JobRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(run.cpu_s for run in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(run.peak_rss_mb for run in self.runs)


class Runner:
    """Runs jobs one at a time inside a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.failures: list[str] = []
        self.attempted = 0

    def run_job(self, job: Job, stream: str, spans: Path | None = None) -> JobRun:
        """One job in a fresh interpreter.  A fresh process per job is
        required: homology._boundary_smith and closed_forms._betti_row are
        unbounded process-lifetime lru_caches, so a repeat in one process
        would time a cache lookup instead of the computation."""
        tag = f"{self.attempted:04d}"
        self.attempted += 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining < 1.0:
            self.failures.append(f"{job.describe()}: not started, the run's time limit was reached")
            return JobRun(job, 0.0, 0.0, 0.0)
        source = self.work / f"{tag}-input.json"
        labels = relabeling(job.rack.size, self.seed, stream)
        source.write_text(json.dumps(job.rack.document(labels)), encoding="utf-8")
        argv = [sys.executable, str(HERE / "job.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        argv += [job.command, "--input", str(source), *job.flags, "--format", "json"]
        stdout_path = self.work / f"{tag}-stdout.json"
        stderr_path = self.work / f"{tag}-stderr.txt"
        code, wall, usage, timed_out = _spawn(argv, stdout_path, stderr_path, min(JOB_TIMEOUT_S, remaining))
        if timed_out:
            problems = [f"timed out after {wall:.1f} s"]
        else:
            problems = check(job, code, stdout_path.read_bytes())
            if code != 0:
                problems.append(stderr_path.read_text(encoding="utf-8", errors="replace")[-500:])
        if problems:
            self.failures.append(f"{job.describe()}: {'; '.join(problems)}")
        return JobRun(job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def run_pass(self, index: int, traced: bool = False) -> tuple[Pass, list[dict]]:
        """The whole job list once, relabeled by (seed, pass index)."""
        result, traces = Pass(), []
        for i, job in enumerate(WORKLOADS[self.workload]):
            spans = self.work / f"spans-{index}-{i}.json" if traced else None
            result.runs.append(self.run_job(job, f"{index}/{i}", spans))
            if spans is not None and spans.exists():
                trace = json.loads(spans.read_text(encoding="utf-8"))
                traces.append({"job": job.describe(), **trace})
        return result, traces

    def setup_times(self) -> list[float]:
        """Fresh interpreters running `validate` on the first job's rack:
        the fixed cost of every invocation."""
        first = WORKLOADS[self.workload][0]
        job = Job("validate", first.rack, ())
        return [self.run_job(job, "0/0").wall_s for _ in range(SETUP_REPEATS)]


def _spawn(argv: list[str], stdout_path: Path, stderr_path: Path, timeout: float):
    """Run argv to completion; returns (exit code, wall s, rusage, timed out).

    The child is reaped with os.wait4, which gives that child's own rusage;
    RUSAGE_CHILDREN would only keep a running maximum over all children.
    """
    fired = threading.Event()

    def kill(pid: int) -> None:
        fired.set()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(timeout, kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, fired.is_set()


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(workload, seed, work)
    record: dict = {"workload": workload, "seed": seed, "trace": trace}
    passes: list[Pass] = []
    if trace:
        plain, _ = runner.run_pass(0)
        traced, traces = runner.run_pass(0, traced=True)
        layers = layer_metrics(traces)
        metrics = {name: (layers[name], unit) for name, unit, _, _ in LAYER_METRICS}
        overhead = traced.wall_s / plain.wall_s - 1.0 if plain.wall_s else 0.0
        metrics["trace_overhead"] = (overhead, "ratio")
        (work.parent / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(traces), encoding="utf-8")
        passes = [plain, traced]
    else:
        setup = runner.setup_times()
        record["setup_s"] = setup
        began = time.perf_counter()
        while True:
            done, _ = runner.run_pass(len(passes))
            passes.append(done)
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(passes) > seconds or runner.failures:
                break
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    record["passes"] = [
        [{"job": r.job.describe(), "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb} for r in p.runs]
        for p in passes
    ]
    record["failures"] = runner.failures
    record["attempted"] = runner.attempted
    record["metrics"] = metrics
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rackhom" / "cli.py").is_file():
        print(f"perfbench: no rackhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (work_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    failed = len(record["failures"])
    attempted = record["attempted"]
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(record['passes'])}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
