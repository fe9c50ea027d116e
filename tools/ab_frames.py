"""Compare two versions of the engine frame by frame, in one process.

    python tools/ab_frames.py SRC_A SRC_B --workload occlusion|churn
                              [--seed N] [--passes K] [--jobs J]
    python tools/ab_frames.py SRC_A SRC_B --workload bench --tracks N
                              [--seed N] [--passes K]
    python tools/ab_frames.py --setup SRC_A SRC_B [--pairs N]

SRC_A and SRC_B are source trees holding the ``abdtrack`` package: a
checkout's ``src/`` or its ``src/abdtrack``.  Each is copied into a
temporary directory under a package name of its own, so the two import
side by side.  The jobs of occlusion and churn are those of
``perfbench.workloads.make_jobs`` (``--jobs`` keeps the first J); bench
is one job, the stream ``abdtrack bench --tracks N --frames 30`` steps
(``synth.scaling_scenario``).  The jobs
are written once as MOT detection and ground-truth text, so a frame with
no detection is not stepped.  Each side runs a job as perfbench's
``worker.py`` does, with its own modules: ``io.parse_mot`` and a fresh
``AbductionEngine`` (the set-up phase), ``step`` on every frame,
``finalize`` and the three writers (the write phase, in memory: no file
is written) and ``metrics.evaluate`` against the ground truth, which
``io.parse_mot_tracks`` reads before the job, untimed (the scoring
phase).  On occlusion, each frame's time also holds the worker's
anticipation block, run after ``step`` with the side's own
``anticipation`` module, and the two sides' anticipation lines are
compared too.

Every pass runs each job on both sides, and which side goes first
alternates from job to job and from pass to pass.  A frame's time is its
``step`` call's least over the passes, and so is each phase's time in a
job.  The output gives each side's median frame time (p50), frames/s
over the steps alone (frames over the sum of the least frame times), the
three phases' least times summed over the jobs, the write phase's
traced peak, and frames/s with the phases included, as perfbench's
``frames_per_s`` counts them; then the ratio B/A of each, and whether the
two sides' event logs, track files, reports, scores (``evaluate``'s
report as a dict) and, on occlusion, anticipation lines are equal.  The
exit status is 1 if any of them differ.  The write peak comes from one
more, untimed pass per side after the timed ones: ``tracemalloc`` runs
from ``finalize`` through the three writers, and the peak is the
largest of the jobs' (MB of 2**20 bytes, as perfbench's
``peak_rss_mb``).

The machine's load moves single runs of the whole benchmark by more than
the change a perf PR makes; two versions interleaved in one process see
the same load, and a least time drops most of it.

``--setup`` times the set-up probe of perfbench's ``run.py`` instead:
from spawning a fresh interpreter, through ``import abdtrack``, to a
constructed ``AbductionEngine``.  Each tree's package is copied into a
temporary directory of its own, and one spawn per side goes first and
is dropped; it writes the bytecode caches unless the environment sets
``PYTHONDONTWRITEBYTECODE``, and then no spawn writes them and every
spawn compiles the package: measured in-process, median of 15 spawns
each on a loaded 2-vCPU VM, ``import abdtrack`` plus an engine took
66 ms without the caches and 39 ms with them.  Then come N pairs
(``--pairs``, default 10), one spawn of each side per pair, which side
goes first alternating from pair to pair.  The output gives each side's
median and quartiles, the ratio B/A of the medians and the number of
pairs in which B took less time than A.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# The tool only reads perfbench/ and the trees it compares.
sys.dont_write_bytecode = True
# One BLAS/OpenMP thread, as perfbench/run.py runs the engine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def copy_package(src: Path, dest: Path) -> None:
    """Copy the ``abdtrack`` package of the tree ``src`` to ``dest``."""
    package = src / "abdtrack" if (src / "abdtrack").is_dir() else src
    if not (package / "tracker.py").is_file():
        raise SystemExit(f"{src}: no abdtrack package")
    shutil.copytree(package, dest, ignore=shutil.ignore_patterns("__pycache__"))


def load_side(src: Path, name: str, tmp: Path):
    """The ``abdtrack`` package of the tree ``src``, imported as ``name``."""
    copy_package(src, tmp / name)
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    for module in ("tracker", "io", "metrics", "anticipation"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


PHASES = ("parse", "write", "score")
OUTPUTS = ("event logs", "track files", "reports", "scores", "anticipation lines")


def _anticipate(package, engine, frame: int, out: list[str]) -> None:
    """The per-frame anticipation block of perfbench's ``worker.py``, with
    the side's own ``anticipation`` module; appends its lines to ``out``."""
    ant = package.anticipation
    th = engine.config.thresholds
    views, hidden = ant.engine_views(engine)
    ants = ant.anticipate_unhide(views, hidden, frame, horizon=th.anticipation_horizon)
    warns = ant.warnings(ants, frame, engine.config.frame_geom, th.anticipation_threshold)
    for a in ants:
        out.append(ant.format_anticipation(a))
        out.append(ant.format_position(a))
    out.extend(ant.format_warning(w) for w in warns)


def _run(package, text: str, gt_text: str, times: list[float], phases: list[float],
         anticipate: bool):
    """Run one job on one side, with the anticipation block in each frame
    if ``anticipate``.  Each frame's time and each phase's time (ns) lower
    ``times`` and ``phases`` in place.  Returns the event log, the track
    file, the report, the scores and, if ``anticipate``, the anticipation
    lines."""
    io = package.io
    gt = io.parse_mot_tracks(gt_text)
    ant_lines: list[str] = []
    clock = time.perf_counter_ns
    t_job = clock()
    stream = io.parse_mot(text)
    engine = package.tracker.AbductionEngine()
    t_parsed = clock()
    for i, (frame, dets) in enumerate(stream.frames):
        t0 = clock()
        engine.step(frame, dets)
        if anticipate:
            _anticipate(package, engine, frame, ant_lines)
        dt = clock() - t0
        if dt < times[i]:
            times[i] = dt
    t_out = clock()
    exp = engine.finalize()
    outputs = (io.write_events(exp), io.write_tracks(exp), io.write_report(exp))
    t_eval = clock()
    scores = package.metrics.evaluate(gt, io.explanation_to_boxes(exp))
    t_end = clock()
    for k, dt in enumerate((t_parsed - t_job, t_eval - t_out, t_end - t_eval)):
        if dt < phases[k]:
            phases[k] = dt
    outputs += (scores.to_dict(),)
    return outputs + (ant_lines,) if anticipate else outputs


def _write_peak(package, text: str) -> int:
    """The traced peak (bytes) of one job's write phase, ``finalize`` and
    the three writers, after an untimed run of its steps."""
    io = package.io
    engine = package.tracker.AbductionEngine()
    for frame, dets in io.parse_mot(text).frames:
        engine.step(frame, dets)
    tracemalloc.start()
    try:
        exp = engine.finalize()
        outputs = []  # held together, as a timed pass holds them
        for write in (io.write_events, io.write_tracks, io.write_report):
            outputs.append(write(exp))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compare(packages: list, jobs: list[tuple[str, str]], passes: int, anticipate: bool) -> dict:
    """Run both packages over the (detection text, ground-truth text)
    jobs, interleaved, anticipating in each frame if ``anticipate``;
    returns each side's least frame times and phase times (ms, phases
    summed over the jobs), its largest write peak (MB) and, per output,
    whether the two sides agree."""
    n_frames = [len(packages[0].io.parse_mot(text).frames) for text, _ in jobs]
    times = [[[float("inf")] * n for n in n_frames] for _ in packages]
    phases = [[[float("inf")] * len(PHASES) for _ in jobs] for _ in packages]
    outputs: list[list[tuple]] = [[()] * len(jobs) for _ in packages]
    for p in range(passes):
        for j, (text, gt_text) in enumerate(jobs):
            order = (0, 1) if (p + j) % 2 == 0 else (1, 0)
            for s in order:
                outputs[s][j] = _run(
                    packages[s], text, gt_text, times[s][j], phases[s][j], anticipate
                )
    return {
        "ms": [[t / 1e6 for job in side for t in job] for side in times],
        "phase_ms": [[sum(phase_ns) / 1e6 for phase_ns in zip(*side)] for side in phases],
        "write_mb": [max(_write_peak(pkg, text) for text, _ in jobs) / 2**20 for pkg in packages],
        "equal": [
            all(a[k] == b[k] for a, b in zip(*outputs)) for k in range(len(outputs[0][0]))
        ],
    }


# perfbench/run.py's set-up probe: the time from the spawn is taken by
# the parent before it and printed by the child after the engine is built.
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); import abdtrack; "
    "abdtrack.AbductionEngine(); print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)


def setup_seconds(srcs: list[Path], pairs: int) -> list[list[float]]:
    """Per tree, the set-up times (s) of ``pairs`` alternated spawns."""
    times: list[list[float]] = [[] for _ in srcs]
    with tempfile.TemporaryDirectory(prefix="ab_setup_") as tmp:
        codes = []
        for src, s in zip(srcs, SIDES):
            copy_package(src, Path(tmp, s, "abdtrack"))
            codes.append(_SETUP_CODE.format(src=str(Path(tmp, s))))
        for p in range(-1, pairs):  # pair -1 is dropped
            for k in ((0, 1) if p % 2 == 0 else (1, 0)):
                t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
                out = subprocess.run([sys.executable, "-c", codes[k]], capture_output=True,
                                     text=True, cwd=tmp, timeout=120)
                if out.returncode != 0:
                    raise SystemExit(f"set-up probe failed: {out.stderr.strip()}")
                if p >= 0:
                    times[k].append((int(out.stdout.split()[-1]) - t0) / 1e9)
    return times


def main_setup(srcs: list[Path], pairs: int) -> int:
    times = setup_seconds(srcs, pairs)
    print(f"set-up, {pairs} alternated pairs: spawn, import abdtrack, AbductionEngine()")
    print(f"{'side':<6}{'q1 s':>10}{'median s':>10}{'q3 s':>10}  tree")
    for s, src, side in zip(SIDES, srcs, times):
        q1, median, q3 = statistics.quantiles(side, n=4) if pairs > 1 else side * 3
        print(f"{s.upper():<6}{q1:>10.4f}{median:>10.4f}{q3:>10.4f}  {src}")
    a, b = (statistics.median(side) for side in times)
    wins = sum(tb < ta for ta, tb in zip(*times))
    print(f"{'B/A':<6}{b / a:>20.3f}  B less in {wins} of {pairs} pairs")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    ap.add_argument("--workload", choices=("occlusion", "churn", "bench"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--jobs", type=int, default=None, help="run only the first J jobs")
    ap.add_argument("--tracks", type=int, default=None, help="bench: the number of tracks")
    ap.add_argument("--setup", action="store_true", help="time the set-up probe instead")
    ap.add_argument("--pairs", type=int, default=None, help="--setup: alternated spawn pairs")
    args = ap.parse_args(argv)
    if args.setup == (args.workload is not None):
        ap.error("give one of --workload and --setup")
    if args.setup:
        if args.pairs is not None and args.pairs < 1:
            ap.error("--pairs must be at least 1")
        return main_setup([args.src_a.resolve(), args.src_b.resolve()], args.pairs or 10)
    if args.pairs is not None:
        ap.error("--pairs N goes with --setup, and only with it")
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    if (args.workload == "bench") != (args.tracks is not None):
        ap.error("--tracks N goes with --workload bench, and only with it")

    # The jobs come from this checkout's perfbench and abdtrack, once for
    # both sides; each side reads them back through its own parser.
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import detections_text, gt_text, make_jobs

    from abdtrack.synth import generate, scaling_scenario

    if args.workload == "bench":
        name = f"bench at {args.tracks} tracks"
        streams = [generate(scaling_scenario(args.tracks, 30, args.seed))]
    else:
        name = args.workload
        streams = [(job.frames, job.gt) for job in make_jobs(args.workload, args.seed)]
    jobs = [(detections_text(frames), gt_text(gt)) for frames, gt in streams[: args.jobs]]
    with tempfile.TemporaryDirectory(prefix="ab_frames_") as tmp:
        packages = [
            load_side(src.resolve(), f"abdtrack_{s}", Path(tmp))
            for src, s in zip((args.src_a, args.src_b), SIDES)
        ]
        out = compare(packages, jobs, args.passes, args.workload == "occlusion")

    rows = []
    for ms, phase_ms, write_mb in zip(out["ms"], out["phase_ms"], out["write_mb"]):
        step_s = sum(ms) / 1e3
        rows.append([statistics.median(ms), len(ms) / step_s, *phase_ms, write_mb,
                     len(ms) / (step_s + sum(phase_ms) / 1e3)])
    columns = [("p50 ms", ".4f"), ("frames/s", ".1f"), *((f"{p} ms", ".2f") for p in PHASES),
               ("write MB", ".2f"), ("job fr/s", ".1f")]
    print(f"{name}, seed {args.seed}: {len(jobs)} jobs, {len(out['ms'][0])} frames, "
          f"least of {args.passes} passes per frame and phase")
    print(f"{'side':<6}" + "".join(f"{c:>10}" for c, _ in columns) + "  tree")
    for s, src, row in zip(SIDES, (args.src_a, args.src_b), rows):
        print(f"{s.upper():<6}" + "".join(f"{v:>10{f}}" for v, (_, f) in zip(row, columns))
              + f"  {src}")
    print(f"{'B/A':<6}" + "".join(f"{b / a:>10.3f}" for a, b in zip(*rows)))
    for what, equal in zip(OUTPUTS, out["equal"]):
        print(f"{what} equal" if equal else f"{what.upper()} DIFFER")
    return 0 if all(out["equal"]) else 1


if __name__ == "__main__":
    sys.exit(main())
