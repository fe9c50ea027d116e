"""Compare two versions of the engine frame by frame, in one process.

    python tools/ab_frames.py SRC_A SRC_B --workload occlusion|churn
                              [--seed N] [--passes K] [--jobs J]
    python tools/ab_frames.py SRC_A SRC_B --workload bench --tracks N
                              [--seed N] [--passes K]

SRC_A and SRC_B are source trees holding the ``abdtrack`` package: a
checkout's ``src/`` or its ``src/abdtrack``.  Each is copied into a
temporary directory under a package name of its own, so the two import
side by side.  The jobs of occlusion and churn are those of
``perfbench.workloads.make_jobs`` (``--jobs`` keeps the first J); bench
is one job, the stream ``abdtrack bench --tracks N --frames 30`` steps
(``synth.generate`` at overlap 0.3, drop 0.05, jitter 1.0).  The jobs
are written once as MOT detection text, so a frame with no detection is
not stepped; each side reads them back with its own ``io.parse_mot`` and
steps a fresh ``AbductionEngine`` of its own over them.

Every pass runs each job on both sides, and which side goes first
alternates from job to job and from pass to pass.  A frame's time is its
``step`` call's least over the passes.  The output gives each side's
median frame time (p50) and frames/s (frames over the sum of the least
times), the ratio B/A of both, and whether the two sides' event logs
are equal; the exit status is 1 if they differ.

The machine's load moves single runs of the whole benchmark by more than
the change a perf PR makes; two versions interleaved in one process see
the same load, and a frame's least time drops most of it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The tool only reads perfbench/ and the trees it compares.
sys.dont_write_bytecode = True
# One BLAS/OpenMP thread, as perfbench/run.py runs the engine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def load_side(src: Path, name: str, tmp: Path):
    """The ``abdtrack`` package of the tree ``src``, imported as ``name``."""
    package = src / "abdtrack" if (src / "abdtrack").is_dir() else src
    if not (package / "tracker.py").is_file():
        raise SystemExit(f"{src}: no abdtrack package")
    shutil.copytree(package, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    for module in ("tracker", "io"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def _run(package, text: str, times: list[float]) -> str:
    """Step a fresh engine over one job's detection text; each frame's
    step time (ns) lowers ``times`` in place.  Returns the event log."""
    engine = package.tracker.AbductionEngine()
    clock = time.perf_counter_ns
    for i, (frame, dets) in enumerate(package.io.parse_mot(text).frames):
        t0 = clock()
        engine.step(frame, dets)
        dt = clock() - t0
        if dt < times[i]:
            times[i] = dt
    return package.io.write_events(engine.finalize())


def compare(packages: list, texts: list[str], passes: int) -> dict:
    """Run both packages over the job texts, interleaved; returns each
    side's least frame times (ms) and whether the event logs agree."""
    n_frames = [len(packages[0].io.parse_mot(t).frames) for t in texts]
    times = [[[float("inf")] * n for n in n_frames] for _ in packages]
    logs: list[list[str]] = [[""] * len(texts) for _ in packages]
    for p in range(passes):
        for j, text in enumerate(texts):
            order = (0, 1) if (p + j) % 2 == 0 else (1, 0)
            for s in order:
                logs[s][j] = _run(packages[s], text, times[s][j])
    return {
        "ms": [[t / 1e6 for job in side for t in job] for side in times],
        "events_equal": logs[0] == logs[1],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    ap.add_argument("--workload", required=True, choices=("occlusion", "churn", "bench"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--jobs", type=int, default=None, help="run only the first J jobs")
    ap.add_argument("--tracks", type=int, default=None, help="bench: the number of tracks")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    if (args.workload == "bench") != (args.tracks is not None):
        ap.error("--tracks N goes with --workload bench, and only with it")

    # The jobs come from this checkout's perfbench and abdtrack, once for
    # both sides; each side reads them back through its own parser.
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import detections_text, make_jobs

    from abdtrack.synth import ScenarioConfig, generate

    if args.workload == "bench":
        name = f"bench at {args.tracks} tracks"
        cfg = ScenarioConfig(
            n_tracks=args.tracks, n_frames=30, overlap_fraction=0.3, drop_prob=0.05,
            jitter_sigma=1.0, seed=args.seed,
        )
        texts = [detections_text(generate(cfg)[0])]
    else:
        name = args.workload
        texts = [detections_text(job.frames) for job in make_jobs(args.workload, args.seed)]
    texts = texts[: args.jobs]
    with tempfile.TemporaryDirectory(prefix="ab_frames_") as tmp:
        packages = [
            load_side(src.resolve(), f"abdtrack_{s}", Path(tmp))
            for src, s in zip((args.src_a, args.src_b), SIDES)
        ]
        out = compare(packages, texts, args.passes)

    p50 = [statistics.median(ms) for ms in out["ms"]]
    fps = [len(ms) / (sum(ms) / 1e3) for ms in out["ms"]]
    print(f"{name}, seed {args.seed}: {len(texts)} jobs, {len(out['ms'][0])} frames, "
          f"least of {args.passes} passes per frame")
    print(f"{'side':<6}{'p50 ms':>10}{'frames/s':>12}  tree")
    for s, src, m, f in zip(SIDES, (args.src_a, args.src_b), p50, fps):
        print(f"{s.upper():<6}{m:>10.4f}{f:>12.1f}  {src}")
    print(f"{'B/A':<6}{p50[1] / p50[0]:>10.3f}{fps[1] / fps[0]:>12.3f}")
    print("event logs equal" if out["events_equal"] else "EVENT LOGS DIFFER")
    return 0 if out["events_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
