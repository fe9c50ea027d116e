"""abdtrack benchmark: detection-stream workloads, end-to-end metrics from
untraced runs and a per-layer breakdown from a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the repository root; it tracks with the sources under ``src/``
and writes only under ``.perfbench/`` there.  The workloads, metric names
and units are those BENCHMARK.json declares.  With ``--workload all`` (the
default) the workloads run one after another, each in fresh processes of
its own.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (frames), and ``metrics``, each a
``{"value", "unit"}`` pair.

Load model: one process, no extra threads, BLAS/OpenMP pools pinned to one
thread; closed loop, each frame goes to ``AbductionEngine.step`` as soon as
the previous one returns.  With one consumer, ``frames_per_s`` is also the
highest camera rate the engine follows without a growing backlog.

``--trace 0`` runs a checked pass over the workload's jobs, then a fixed
number of timed passes, as many as take about S seconds on a 2-vCPU VM
(``workloads.timed_passes``), and reports the end-to-end metrics (see
worker.py for how passes combine).  The times behind ``frames_per_s``,
``frame_ms_p50`` and ``setup_s`` are scaled to the speed of a fixed
reference task timed next to them (reference.py), because a shared VM's
speed drifts by more than the bounds over minutes; the unscaled figures
and the reference task's time are printed beside them.
Input generation, ``setup_s`` and the checks are never inside a timing.
``--trace 1`` runs a checked pass, an untraced pass and a pass with the
span wrappers of tracing.py installed, then the greedy-IoU baseline, and
reports the per-layer metrics; ``trace.overhead`` is untraced over traced
frames/s.  Every ``*_ms`` layer figure is a self time per frame (io and
metrics: per job), except ``abduction.solve_ms``,
``abduction.link_events_ms`` and ``anticipation.ms``, which include their
children.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, for this process and every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (numpy reads the thread settings on import)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
DEADLINE_S = 170.0  # every run exits well inside 180 s
SETUP_SAMPLES = 10

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); import abdtrack; "
    "abdtrack.AbductionEngine(); print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)


def with_units(values: dict[str, float], trace: int) -> dict[str, dict]:
    """The values as BENCHMARK.json declares them for this mode, with units."""
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RunError(f"metrics differ from BENCHMARK.json: {sorted(values)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class RunError(RuntimeError):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("time limit reached")
    return left


def _reference_now() -> float:
    return statistics.median(reference.time_task() for _ in range(5))


def measure_setup(deadline: float, samples: int) -> list[tuple[float, float]]:
    """Times from spawning a fresh interpreter, through ``import abdtrack``,
    to a constructed AbductionEngine: (raw, scaled to the reference task's
    speed, timed just before and after the spawn)."""
    code = _SETUP_CODE.format(src=str(SRC))
    out = []
    for _ in range(samples):
        ref = _reference_now()
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=_remaining(deadline), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RunError(f"set-up probe failed: {proc.stderr.strip()}")
        raw = (int(proc.stdout.split()[-1]) - t0) / 1e9
        ref = (ref + _reference_now()) / 2
        out.append((raw, raw * reference.REF_S / ref))
    return out


def run_worker(plan: Path, result: Path, deadline: float, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan), str(result), *flags],
        capture_output=True, text=True, timeout=_remaining(deadline), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RunError(f"worker failed:\n{proc.stderr.strip()}")
    return json.loads(result.read_text())


def run_one(args: argparse.Namespace, workload: str) -> dict:
    """Runs one workload; prints its summary and returns its result line."""
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    import abdtrack
    import workloads

    if Path(abdtrack.__file__).resolve().parent != SRC / "abdtrack":
        raise RunError(f"abdtrack imported from {abdtrack.__file__}, not from {SRC}")
    work = OUT / f"work-{workload}-{args.seed}-{os.getpid()}"
    try:
        plan = {
            "jobs": workloads.write_inputs(workload, args.seed, work),
            "options": {
                "anticipate": workload == "occlusion",
                "oracle": workload == "occlusion",
            },
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        if args.trace:
            res = run_worker(plan_path, work / "result.json", deadline, "--trace")
            shutil.copyfile(work / "spans.npz", OUT / f"spans-{workload}.npz")
            metrics = with_units(dict(res["layers"], **{"metrics.idsw": res["idsw"]}), 1)
            check = res["self_time_check"]
            if abs(check["self_sum_ms"] - check["step_ms"]) > 1e-6 * check["step_ms"]:
                res["failures"].append(f"layer self times do not add up: {check}")
        else:
            # Set-up samples are taken before and after the worker, so that
            # one slow spell of the machine does not hold all of them.  The
            # first spawn writes the bytecode caches and is dropped.
            setup = measure_setup(deadline, SETUP_SAMPLES // 2 + 1)[1:]
            passes = workloads.timed_passes(workload, args.seconds)
            res = run_worker(plan_path, work / "result.json", deadline, "--passes", str(passes))
            setup += measure_setup(deadline, SETUP_SAMPLES - len(setup))
            metrics = with_units({
                "frames_per_s": res["frames_per_s"],
                "frame_ms_p50": res["frame_ms_p50"],
                "setup_s": statistics.median(s for _, s in setup),
                "peak_rss_mb": res["peak_rss_mb"],
                "mota": res["mota"],
            }, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = res["failed"] == 0 and not res["failures"]
    summary = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "git": git_sha(),
        "env": res["env"],
        "passes": res["passes"],
        "measured_s": res["measured_s"],
        "frame_ms_p95": res["frame_ms_p95"],
        "unscaled": None if args.trace else {
            "frames_per_s": res["raw_frames_per_s"],
            "frame_ms_p50": res["raw_frame_ms_p50"],
            "setup_s": statistics.median(r for r, _ in setup),
            "reference_ms": res["reference_ms"],
        },
        "idsw": res["idsw"],
        "failed_frame_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "digests": res["digests"],
        "metrics": metrics,
    }
    if args.trace:
        summary["self_time_check"] = check
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2)
    )
    print_summary(summary, res)
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def print_summary(s: dict, res: dict) -> None:
    env = s["env"]
    print(
        f"perfbench {s['workload']} seed={s['seed']} trace={s['trace']}: "
        f"{res['passes']} timed pass(es), {res['attempted']} frames, "
        f"{res['measured_s']:.1f} s measured; closed loop, one process, one BLAS thread"
    )
    for name, m in s["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if not s["trace"]:
        # Printed, not declared: on a shared 2-vCPU VM the sub-ms tail of
        # occlusion moved by more than 25% between runs, and idsw is 0 on
        # occlusion, so neither can carry a bound.
        print(f"  {'frame_ms_p95':<34} {s['frame_ms_p95']:>14.6g} ms")
        print(f"  {'idsw':<34} {s['idsw']:>14d} count")
        u = s["unscaled"]
        print(
            f"  unscaled: frames_per_s {u['frames_per_s']:.6g}, frame_ms_p50 "
            f"{u['frame_ms_p50']:.6g} ms, setup_s {u['setup_s']:.6g} s; reference task "
            f"{u['reference_ms']:.4g} ms (scale {reference.REF_S * 1e3:.4g} ms)"
        )
    print(
        f"  {'failed_frame_ratio':<34} {s['failed_frame_ratio']:>14.6g} "
        f"({res['failed']} of {res['attempted']} frames)"
    )
    for why in s["failures"]:
        print(f"  FAILED: {why}")
    if "self_time_check" in s:
        c = s["self_time_check"]
        print(
            f"  step layers' self times sum to {c['self_sum_ms']:.6f} ms/frame; "
            f"traced step {c['step_ms']:.6f} ms/frame"
        )
    for kind, digest in s["digests"].items():
        print(f"  sha256 {kind:<14} {digest}")
    print(
        f"  git {s['git']} python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} nproc {env['nproc']}"
    )


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in turn; one combined result, metrics named
    ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        last = run_one(args, w)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    return combined


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=DECLARED["run_seconds"],
                   help="about how long the timed passes of a workload take")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if not (SRC / "abdtrack" / "__init__.py").is_file():
        print(f"error: no abdtrack sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            last = run_all(args)
        else:
            last = run_one(args, args.workload)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
