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
``perfbench.workloads.make_jobs`` (``--jobs`` keeps the first J, at
least 1); bench is one job, the stream ``abdtrack bench --tracks N
--frames 30`` steps (``synth.scaling_scenario``, whose N is at least
2).  The jobs are written once as MOT detection and ground-truth text,
so a frame with no detection has no row; the engine steps it as an empty
frame while a track is live.  Each side runs a job as perfbench's
``worker.py`` does, with its own modules: ``io.parse_mot`` and a fresh
``AbductionEngine`` (the set-up phase), ``step`` on every frame,
``finalize`` and the three writers (the write phase, in memory: no file
is written) and ``metrics.evaluate`` against the ground truth, which
``io.parse_mot_tracks`` reads before the job, untimed (the scoring
phase).  On occlusion, each frame's time also holds the side's own
``anticipation.frame_block``, the block perfbench's worker builds after
``step``, and the two sides' anticipation lines are compared too; a tree
without ``frame_block`` can run only churn and bench.

Every pass runs each job on both sides, and which side goes first
alternates from job to job and from pass to pass.  A frame's time is its
``step`` call's least over the passes, and so is each phase's time in a
job.  The objects of the set-up, the jobs' streams and both sides'
modules, are frozen out of the cyclic garbage collector before the
first pass, so that no pass pays a full collection over them.

The output gives each side's number of steps (its engines' latency
records, summed over the jobs: the frames, plus any frames a job skips
that the engine steps), median frame time (p50), frames/s over the steps
alone (frames over the sum of the least frame times), the three phases'
least times summed over the jobs, the write phase's traced peak,
frames/s with the phases included, as perfbench's ``frames_per_s``
counts them, and the engine's work over the jobs' steps, the ten counts
that ``tests/golden/work_counts.json`` locks: heap pushes, ``_cover``
searches, those that find a path and the vertices they expand, matching
rows and edges, ``link_events`` and ``possible`` calls, the event
occurrences its ``abduction`` module builds and its copies of the fluent
store; then the ratio B/A of each, ``-`` where A's count is 0; then a
noise gauge, each side's job frames/s in its slowest and its fastest
pass (the pass's frame and phase times summed over the jobs), since a
least time taken over few passes can swing far from run to run; each
side's written box coordinates whose text can be the previous entry's in
their track, "N of M (p%)": equal plain floats in two boxes of four, and
not a zero ``x`` or ``y`` (``io._box_text``'s rule); and whether the two
sides' event logs, track files, reports, scores (``evaluate``'s report
as a dict) and, on occlusion, anticipation lines are equal.  The exit
status is 1 if any of them differ.  The write peak, the counts and the
reusable coordinates come from one more, untimed pass per side after the
timed ones, so that the timed passes pay nothing for them: the
coordinates are read from its explanation, the work is counted over its
steps by tier-1's counter, ``tests/work_counts.py``'s ``counting``,
given the side's package, and ``tracemalloc`` runs from ``finalize``
through the three writers, whose peak is the largest of the jobs' (MB of
2**20 bytes, as perfbench's ``peak_rss_mb``).

The machine's load moves single runs of the whole benchmark by more than
the change a perf PR makes; two versions interleaved in one process see
the same load, and a least time drops most of it.

``--setup`` times the set-up probe of perfbench's ``run.py``, its
``_SETUP_CODE``, instead: from spawning a fresh interpreter, through
``import abdtrack``, to a constructed ``AbductionEngine``.  Each tree's package is copied into a
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
import gc
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

# The tool only reads this checkout and the trees it compares.
sys.dont_write_bytecode = True
# One BLAS/OpenMP thread, as perfbench/run.py runs the engine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# The jobs, the set-up probe and the work counter come from this
# checkout's perfbench, abdtrack and tests, once for both sides; each
# side reads the jobs back through its own parser.
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]
from run import _SETUP_CODE  # noqa: E402
from work_counts import counting  # noqa: E402
from workloads import detections_text, gt_text, make_jobs  # noqa: E402

from abdtrack.synth import generate, scaling_scenario  # noqa: E402

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


def _run(package, text: str, gt_text: str, times: list[float], phases: list[float],
         anticipate: bool):
    """Run one job on one side, with the anticipation block in each frame
    if ``anticipate``.  Each frame's time and each phase's time (ns) lower
    ``times`` and ``phases`` in place.  Returns the engine's number of
    steps, the job's time in this run (ns: its frames' and phases' times
    summed) and the outputs: the event log, the track file, the report,
    the scores and, if ``anticipate``, the anticipation lines."""
    io = package.io
    gt = io.parse_mot_tracks(gt_text)
    ant_lines: list[str] = []
    clock = time.perf_counter_ns
    t_job = clock()
    stream = io.parse_mot(text)
    engine = package.tracker.AbductionEngine()
    t_parsed = clock()
    busy = 0
    for i, (frame, dets) in enumerate(stream.frames):
        t0 = clock()
        engine.step(frame, dets)
        if anticipate:
            ant_lines += package.anticipation.frame_block(engine, frame)
        dt = clock() - t0
        busy += dt
        if dt < times[i]:
            times[i] = dt
    t_out = clock()
    exp = engine.finalize()
    outputs = (io.write_events(exp), io.write_tracks(exp), io.write_report(exp))
    t_eval = clock()
    scores = package.metrics.evaluate(gt, io.explanation_to_boxes(exp))
    t_end = clock()
    for k, dt in enumerate((t_parsed - t_job, t_eval - t_out, t_end - t_eval)):
        busy += dt
        if dt < phases[k]:
            phases[k] = dt
    outputs += (scores.to_dict(),)
    return len(engine.latencies), busy, (outputs + (ant_lines,) if anticipate else outputs)


def _repeats(exp) -> tuple[int, int]:
    """Of the box coordinates the writers write, the number whose text the
    writers can take from the previous entry's in their track, and the
    number of all of them.  That is ``io._box_text``'s rule: both boxes
    four plain floats, the two values equal and, for ``x`` and ``y``,
    nonzero."""
    reused = total = 0
    for trk in exp.tracks:
        boxes = [(e.box.x, e.box.y, e.box.w, e.box.h) for e in trk.history]
        total += 4 * len(boxes)
        for prev, box in zip(boxes, boxes[1:]):
            if all(type(v) is float for v in (*prev, *box)):
                reused += sum(a == b and (i > 1 or a != 0) for i, (a, b) in enumerate(zip(prev, box)))
    return reused, total


def _untimed(package, text: str) -> tuple[int, dict[str, int], tuple[int, int]]:
    """One job's untimed run: the traced peak (bytes) of its write phase,
    ``finalize`` and the three writers, the work counts of the job's
    steps and its explanation's :func:`_repeats`."""
    io = package.io
    with counting(package) as counts:
        engine = package.tracker.AbductionEngine()
        for frame, dets in io.parse_mot(text).frames:
            engine.step(frame, dets)
    tracemalloc.start()
    try:
        exp = engine.finalize()
        outputs = []  # held together, as a timed pass holds them
        for write in (io.write_events, io.write_tracks, io.write_report):
            outputs.append(write(exp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, counts, _repeats(exp)


def compare(packages: list, jobs: list[tuple[str, str]], passes: int, anticipate: bool) -> dict:
    """Run both packages over the (detection text, ground-truth text)
    jobs, interleaved, anticipating in each frame if ``anticipate``;
    returns each side's steps (summed over the jobs), least frame times
    and phase times (ms, phases summed over the jobs), the time of each
    pass (ms, its jobs' frames and phases summed), its largest write peak
    (MB), its work counts by name and its :func:`_repeats` (both summed
    over the jobs) and, per output, whether the two sides agree."""
    n_frames = [len(packages[0].io.parse_mot(text).frames) for text, _ in jobs]
    times = [[[float("inf")] * n for n in n_frames] for _ in packages]
    phases = [[[float("inf")] * len(PHASES) for _ in jobs] for _ in packages]
    outputs: list[list[tuple]] = [[()] * len(jobs) for _ in packages]
    steps = [[0] * len(jobs) for _ in packages]
    pass_ns = [[0] * passes for _ in packages]
    # A full collection walks every object the collector tracks, the
    # set-up's (the jobs' streams, both sides' modules) too: tens of ms,
    # charged to whichever side's phase sets it off.  Frozen, they are
    # left out of every collection in the passes.
    gc.collect()
    gc.freeze()
    for p in range(passes):
        for j, (text, gt_text) in enumerate(jobs):
            order = (0, 1) if (p + j) % 2 == 0 else (1, 0)
            for s in order:
                steps[s][j], busy, outputs[s][j] = _run(
                    packages[s], text, gt_text, times[s][j], phases[s][j], anticipate
                )
                pass_ns[s][p] += busy
    untimed = [[_untimed(pkg, text) for text, _ in jobs] for pkg in packages]
    return {
        "steps": [sum(side) for side in steps],
        "ms": [[t / 1e6 for job in side for t in job] for side in times],
        "phase_ms": [[sum(phase_ns) / 1e6 for phase_ns in zip(*side)] for side in phases],
        "pass_ms": [[ns / 1e6 for ns in side] for side in pass_ns],
        "write_mb": [max(peak for peak, _, _ in side) / 2**20 for side in untimed],
        "counts": [{k: sum(c[k] for _, c, _ in side) for k in side[0][1]} for side in untimed],
        "repeats": [[sum(r) for r in zip(*(rep for _, _, rep in side))] for side in untimed],
        "equal": [
            all(a[k] == b[k] for a, b in zip(*outputs)) for k in range(len(outputs[0][0]))
        ],
    }


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
    if args.jobs is not None and args.jobs < 1:
        ap.error("--jobs must be at least 1")
    if (args.workload == "bench") != (args.tracks is not None):
        ap.error("--tracks N goes with --workload bench, and only with it")
    if args.tracks is not None and args.tracks < 2:
        ap.error("--tracks must be at least 2: the scaling scenario pairs its tracks")

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
    for steps, ms, phase_ms, write_mb, counts in zip(out["steps"], out["ms"], out["phase_ms"],
                                                     out["write_mb"], out["counts"]):
        step_s = sum(ms) / 1e3
        rows.append([steps, statistics.median(ms), len(ms) / step_s, *phase_ms, write_mb,
                     len(ms) / (step_s + sum(phase_ms) / 1e3), *counts.values()])
    columns = [("steps", "d"), ("p50 ms", ".4f"), ("frames/s", ".1f"), *((f"{p} ms", ".2f") for p in PHASES),
               ("write MB", ".2f"), ("job fr/s", ".1f"), *((name, "d") for name in out["counts"][0])]
    print(f"{name}, seed {args.seed}: {len(jobs)} jobs, {len(out['ms'][0])} frames, "
          f"least of {args.passes} passes per frame and phase")
    widths = [max(10, len(c) + 2) for c, _ in columns]
    print(f"{'side':<6}" + "".join(f"{c:>{w}}" for (c, _), w in zip(columns, widths)) + "  tree")
    for s, src, row in zip(SIDES, (args.src_a, args.src_b), rows):
        print(f"{s.upper():<6}"
              + "".join(f"{v:>{w}{f}}" for v, (_, f), w in zip(row, columns, widths)) + f"  {src}")
    print(f"{'B/A':<6}" + "".join(f"{b / a:>{w}.3f}" if a else f"{'-':>{w}}"
                                  for a, b, w in zip(*rows, widths)))
    # The noise gauge: how far one pass's whole-job rate swings on each side.
    gauge = ", ".join(
        f"{s.upper()} {len(ms) / max(pass_ms) * 1e3:.1f} to {len(ms) / min(pass_ms) * 1e3:.1f}"
        for s, ms, pass_ms in zip(SIDES, out["ms"], out["pass_ms"])
    )
    print(f"job fr/s of one pass, slowest to fastest: {gauge}")
    repeats = ", ".join(f"{s.upper()} {n} of {m} ({100 * n / m:.1f}%)"
                        for s, (n, m) in zip(SIDES, out["repeats"]))
    print(f"coordinates whose text can be the previous entry's in their track: {repeats}")
    for what, equal in zip(OUTPUTS, out["equal"]):
        print(f"{what} equal" if equal else f"{what.upper()} DIFFER")
    return 0 if all(out["equal"]) else 1


if __name__ == "__main__":
    sys.exit(main())
