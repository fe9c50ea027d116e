"""Smoke tests of tools/ab_frames.py: the same tree as both sides, on one
occlusion scene (anticipation lines compared too), on a small bench
stream and in the set-up probe, and trees whose track files, scores or
anticipation lines differ."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab_frames(*args):
    return subprocess.run(
        [sys.executable, "tools/ab_frames.py", *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_same_tree_both_sides():
    out = _ab_frames("src", "src/abdtrack", "--workload", "occlusion", "--jobs", "1", "--passes", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("occlusion, seed 0: 1 jobs, ")
    assert lines[0].endswith(" frames, least of 2 passes per frame and phase")
    assert lines[1].split() == [
        "side", "p50", "ms", "frames/s", "parse", "ms", "write", "ms", "score", "ms",
        "write", "MB", "job", "fr/s", "tree",
    ]
    assert [line.split()[0] for line in lines[2:]] == [
        "A", "B", "B/A", "event", "track", "reports", "scores", "anticipation",
    ]
    for side in lines[2:4]:
        p50, steps_fps, *phase_ms, write_mb, job_fps = map(float, side.split()[1:8])
        assert p50 > 0 and all(ms > 0 for ms in phase_ms)
        # the phases count in the job's frames/s, not in the steps'
        assert 0 < job_fps < steps_fps
        assert 0 < write_mb < 10
    ratios = list(map(float, lines[4].split()[1:]))
    assert len(ratios) == 7 and all(r > 0 for r in ratios)
    assert abs(ratios[5] - 1) <= 0.02  # the same tree's write peaks
    assert lines[5:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
        "anticipation lines equal",
    ]


def test_differing_track_files_fail(tmp_path):
    shutil.copytree(ROOT / "src" / "abdtrack", tmp_path / "abdtrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "abdtrack" / "io.py", "a") as f:
        f.write("\n_write_tracks = write_tracks\n\n\n"
                "def write_tracks(exp):\n    return _write_tracks(exp) + '\\n'\n")
    out = _ab_frames("src", tmp_path, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "TRACK FILES DIFFER", "reports equal", "scores equal",
        "anticipation lines equal",
    ]


def test_differing_scores_fail(tmp_path):
    shutil.copytree(ROOT / "src" / "abdtrack", tmp_path / "abdtrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "abdtrack" / "metrics.py", "a") as f:
        f.write("\n_evaluate = evaluate\n\n\n"
                "def evaluate(gt, hyp, match_iou=0.5):\n"
                "    report = _evaluate(gt, hyp, match_iou)\n"
                "    report.idsw += 1\n"
                "    return report\n")
    out = _ab_frames("src", tmp_path, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "track files equal", "reports equal", "SCORES DIFFER",
        "anticipation lines equal",
    ]


def test_differing_anticipation_lines_fail(tmp_path):
    shutil.copytree(ROOT / "src" / "abdtrack", tmp_path / "abdtrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "abdtrack" / "anticipation.py", "a") as f:
        f.write("\n_format_position = format_position\n\n\n"
                "def format_position(a):\n    return _format_position(a) + ' '\n")
    out = _ab_frames("src", tmp_path, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
        "ANTICIPATION LINES DIFFER",
    ]


def test_bench_workload_with_tracks():
    out = _ab_frames("src", "src", "--workload", "bench", "--tracks", "6", "--passes", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == (
        "bench at 6 tracks, seed 0: 1 jobs, 30 frames, least of 1 passes per frame and phase"
    )
    assert lines[-4:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
    ]


def test_tracks_only_with_bench():
    for workload, extra in (("bench", []), ("churn", ["--tracks", "6"])):
        out = _ab_frames("src", "src", "--workload", workload, *extra)
        assert out.returncode == 2 and "--tracks N goes with --workload bench" in out.stderr


def test_setup_pairs():
    out = _ab_frames("--setup", "src", "src/abdtrack", "--pairs", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "set-up, 2 alternated pairs: spawn, import abdtrack, AbductionEngine()"
    assert lines[1].split() == ["side", "q1", "s", "median", "s", "q3", "s", "tree"]
    assert [line.split()[0] for line in lines[2:]] == ["A", "B", "B/A"]
    for side in lines[2:4]:
        q1, median, q3 = map(float, side.split()[1:4])
        assert 0 < q1 <= median <= q3
    ratio, *wins = lines[4].split()[1:]
    assert float(ratio) > 0 and wins[:2] == ["B", "less"] and wins[-3:] == ["of", "2", "pairs"]


def test_setup_or_workload():
    for args in (["--setup", "--workload", "churn"], [], ["--workload", "churn", "--pairs", "2"]):
        out = _ab_frames("src", "src", *args)
        assert out.returncode == 2
        assert "give one of --workload and --setup" in out.stderr or "--pairs N goes" in out.stderr
