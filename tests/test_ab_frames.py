"""Smoke tests of tools/ab_frames.py: the same tree as both sides, on one
occlusion scene and on a small bench stream."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_tree_both_sides():
    out = subprocess.run(
        [sys.executable, "tools/ab_frames.py", "src", "src/abdtrack",
         "--workload", "occlusion", "--jobs", "1", "--passes", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("occlusion, seed 0: 1 jobs, ")
    assert lines[0].endswith(" frames, least of 2 passes per frame")
    assert [line.split()[0] for line in lines[1:]] == ["side", "A", "B", "B/A", "event"]
    ratio_p50, ratio_fps = map(float, lines[4].split()[1:])
    assert ratio_p50 > 0 and ratio_fps > 0
    assert lines[-1] == "event logs equal"


def test_bench_workload_with_tracks():
    out = subprocess.run(
        [sys.executable, "tools/ab_frames.py", "src", "src",
         "--workload", "bench", "--tracks", "6", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "bench at 6 tracks, seed 0: 1 jobs, 30 frames, least of 1 passes per frame"
    assert lines[-1] == "event logs equal"


def test_tracks_only_with_bench():
    for workload, extra in (("bench", []), ("churn", ["--tracks", "6"])):
        out = subprocess.run(
            [sys.executable, "tools/ab_frames.py", "src", "src", "--workload", workload, *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 2 and "--tracks N goes with --workload bench" in out.stderr
