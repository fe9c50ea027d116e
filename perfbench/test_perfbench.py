"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They run the benchmark for real (about a minute) and write only under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import abdtrack.abduction  # noqa: E402
import abdtrack.tracker  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as d:
        yield Path(d)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, scratch):
    workloads.write_inputs(workload, 5, scratch / "a")
    workloads.write_inputs(workload, 5, scratch / "b")
    workloads.write_inputs(workload, 6, scratch / "c")
    a, b, c = (_files(scratch / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def _small_plan(scratch: Path) -> dict:
    jobs = workloads.write_inputs("occlusion", 1, scratch)[:3]
    return {"jobs": jobs, "options": {"anticipate": True, "oracle": True}}


def test_untraced_runs_install_no_wrapper(scratch):
    originals = (abdtrack.tracker.solve, abdtrack.abduction.possible)
    acc = worker.run_pass(_small_plan(scratch), scratch, checks=True)
    assert acc.failed == 0 and not acc.failures
    assert tracing.installed() == []
    assert (abdtrack.tracker.solve, abdtrack.abduction.possible) == originals

    with tracing.tracing(tracing.SpanStore()):
        assert len(tracing.installed()) == len(tracing.TARGETS)
    assert tracing.installed() == []
    assert (abdtrack.tracker.solve, abdtrack.abduction.possible) == originals


def test_tracing_keeps_outputs_and_self_times_add_up(scratch):
    plan = _small_plan(scratch)
    plain = worker.run_pass(plan, scratch, checks=False)
    store = tracing.SpanStore()
    with tracing.tracing(store):
        traced = worker.run_pass(plan, scratch, checks=False, store=store)
    digests = [{k: h.hexdigest() for k, h in acc.digests.items()} for acc in (plain, traced)]
    assert digests[0] == digests[1]
    _, check = worker.layer_metrics(store, traced, len(plan["jobs"]), 0.0)
    assert check["self_sum_ms"] == pytest.approx(check["step_ms"], rel=1e-9)


def test_probing_pass_scales_each_frame_by_the_probe_before_it(scratch):
    plan = _small_plan(scratch)
    acc = worker.run_pass(plan, scratch, checks=False, probing=True)
    # one probe before and one after each job, more every PROBE_EVERY frames
    assert len(acc.ref_s) > 2 * len(plan["jobs"])
    assert len(acc.frame_probe) == acc.attempted and len(acc.phase_probe) == len(acc.phase_s)
    assert all(0 <= i < len(acc.ref_s) for i in acc.frame_probe + acc.phase_probe)
    acc.ref_s = [reference.REF_S / 2] * len(acc.ref_s)  # a machine running at half speed
    frame_ms, phase_s = acc.scaled()
    assert frame_ms == pytest.approx(2 * np.asarray(acc.latency_ms))
    assert phase_s == pytest.approx(2 * np.asarray(acc.phase_s))
    assert worker.run_pass(plan, scratch, checks=False).ref_s == []


def test_smoothed_takes_the_median_of_neighbours():
    assert list(reference.smoothed([1.0, 9.0, 1.0, 1.0, 1.0])) == [1.0] * 5


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=200,
    )


@pytest.mark.parametrize("workload,trace", [("churn", "0"), ("occlusion", "1")])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    assert all(
        result["metrics"][m["name"]]["unit"] == m["unit"] for m in section
    )


def test_fails_without_the_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "churn", "--seed", "0", "--seconds", "1", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
