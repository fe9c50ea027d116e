"""Smoke tests of tools/ab_frames.py: the same tree as both sides, on one
occlusion scene (anticipation lines compared too, and coordinates
repeated along tracks), on a small bench stream (none repeated) and in
the set-up probe, trees whose track files, scores or anticipation lines
differ, a tree whose engine makes more steps, one whose engine links
each action twice and copies the fluent store once more per step, one
whose matcher solves each matching twice, and the options' checks."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The work counts of work_counts.counting, in the order the tool prints them.
COUNTS = ["pushes", "searches", "searches_found", "visits", "rows", "edges", "link_events",
          "possible", "occurrences", "store_copies"]


def _ab_frames(*args):
    return subprocess.run(
        [sys.executable, "tools/ab_frames.py", *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _counts(line):
    """The work counts of a side's row (ints) or of the B/A row (its
    cells), by name."""
    cells = line.split()[9:9 + len(COUNTS)]
    return dict(zip(COUNTS, cells if line.startswith("B/A") else map(int, cells)))


def _repeats(line):
    """Each side's (N, M) of the line "coordinates whose text can be the
    previous entry's in their track: A N of M (p%), B N of M (p%)"; checks
    p."""
    head, sides = line.split(": ")
    assert head == "coordinates whose text can be the previous entry's in their track"
    out = []
    for side, name in zip(sides.split(", "), "AB"):
        tag, n, of, m, share = side.split()
        assert (tag, of) == (name, "of") and share == f"({100 * int(n) / int(m):.1f}%)"
        out.append((int(n), int(m)))
    return out


def _patched_tree(tmp_path, **appended):
    """A copy of this checkout's abdtrack in tmp_path, with each module
    named in ``appended`` extended by its text."""
    shutil.copytree(ROOT / "src" / "abdtrack", tmp_path / "abdtrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, text in appended.items():
        with open(tmp_path / "abdtrack" / f"{module}.py", "a") as f:
            f.write(text)
    return tmp_path


def test_same_tree_both_sides():
    out = _ab_frames("src", "src/abdtrack", "--workload", "occlusion", "--jobs", "1", "--passes", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("occlusion, seed 0: 1 jobs, ")
    assert lines[0].endswith(" frames, least of 2 passes per frame and phase")
    frames = int(lines[0].split()[5])
    assert lines[1].split() == [
        "side", "steps", "p50", "ms", "frames/s", "parse", "ms", "write", "ms", "score", "ms",
        "write", "MB", "job", "fr/s", *COUNTS, "tree",
    ]
    assert [line.split()[0] for line in lines[2:]] == [
        "A", "B", "B/A", "job", "coordinates", "event", "track", "reports", "scores",
        "anticipation",
    ]
    for side in lines[2:4]:
        assert int(side.split()[1]) == frames  # the scene skips no frame
        p50, steps_fps, *phase_ms, write_mb, job_fps = map(float, side.split()[2:9])
        assert p50 > 0 and all(ms > 0 for ms in phase_ms)
        # the phases count in the job's frames/s, not in the steps'
        assert 0 < job_fps < steps_fps
        assert 0 < write_mb < 10
        c = _counts(side)
        # an occlusion scene's matchings need no path search
        assert c["pushes"] == c["searches"] == c["searches_found"] == c["visits"] == 0
        assert 0 < c["rows"] <= c["edges"]
        assert 0 < c["link_events"] <= c["possible"] and 0 < c["occurrences"] <= c["link_events"]
        assert 0 < c["store_copies"] <= frames  # at most one per step
    assert _counts(lines[2]) == _counts(lines[3])  # the same tree's work
    cells = lines[4].split()[1:]
    assert len(cells) == 8 + len(COUNTS)
    ratios = list(map(float, cells[:8]))
    assert all(r > 0 for r in ratios)
    assert ratios[0] == 1  # the same tree's steps
    assert abs(ratios[6] - 1) <= 0.02  # the same tree's write peaks
    # a count that A reads as 0 has no ratio
    assert cells[8:] == ["-", "-", "-", "-", *["1.000"] * 6]
    # the scene's static occluder and jitter-free boxes repeat coordinates
    a, b = _repeats(lines[6])
    assert a == b and 0 < a[0] < a[1] and a[1] % 4 == 0
    assert lines[7:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
        "anticipation lines equal",
    ]


def test_noise_gauge():
    out = _ab_frames("src", "src", "--workload", "occlusion", "--jobs", "2", "--passes", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    head, gauge = lines[5].split(": ")
    assert head == "job fr/s of one pass, slowest to fastest"
    sides = [side.split() for side in gauge.split(", ")]
    assert [side[0] for side in sides] == ["A", "B"] and all(side[2] == "to" for side in sides)
    for side, row in zip(sides, lines[2:4]):
        slowest, fastest = float(side[1]), float(side[3])
        # the table's job fr/s takes each frame's and phase's least time
        # over the passes, so no one pass is faster
        job_fps = float(row.split()[8])
        assert 0 < slowest <= fastest <= job_fps


def test_differing_track_files_fail(tmp_path):
    tree = _patched_tree(tmp_path, io=(
        "\n_write_tracks = write_tracks\n\n\n"
        "def write_tracks(exp):\n    return _write_tracks(exp) + '\\n'\n"
    ))
    out = _ab_frames("src", tree, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "TRACK FILES DIFFER", "reports equal", "scores equal",
        "anticipation lines equal",
    ]


def test_differing_scores_fail(tmp_path):
    tree = _patched_tree(tmp_path, metrics=(
        "\n_evaluate = evaluate\n\n\n"
        "def evaluate(gt, hyp, match_iou=0.5):\n"
        "    report = _evaluate(gt, hyp, match_iou)\n"
        "    report.idsw += 1\n"
        "    return report\n"
    ))
    out = _ab_frames("src", tree, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "track files equal", "reports equal", "SCORES DIFFER",
        "anticipation lines equal",
    ]


def test_differing_anticipation_lines_fail(tmp_path):
    tree = _patched_tree(tmp_path, anticipation=(
        "\n_format_position = format_position\n\n\n"
        "def format_position(a):\n    return _format_position(a) + ' '\n"
    ))
    out = _ab_frames("src", tree, "--workload", "occlusion", "--jobs", "1", "--passes", "1")
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines()[-5:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
        "ANTICIPATION LINES DIFFER",
    ]


def test_steps_counted_per_side(tmp_path):
    # B's engine keeps a second latency record per step: a side that
    # steps more frames shows it in its steps, with equal outputs
    tree = _patched_tree(tmp_path, tracker=(
        "\n_step = AbductionEngine.step\n\n\n"
        "def _step_twice(self, frame, detections):\n"
        "    result = _step(self, frame, detections)\n"
        "    self.latencies.append(self.latencies[-1])\n"
        "    return result\n\n\n"
        "AbductionEngine.step = _step_twice\n"
    ))
    out = _ab_frames("src", tree, "--workload", "occlusion", "--jobs", "2", "--passes", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    frames = int(lines[0].split()[5])
    assert [int(line.split()[1]) for line in lines[2:4]] == [frames, 2 * frames]
    assert lines[4].split()[1] == "2.000"


def test_calls_counted_per_side(tmp_path):
    # B's link_events runs each search twice, building each occurrence
    # twice, and B's step copies the fluent store once more: the same
    # link_events calls, twice the possible calls and occurrences, one
    # more store copy per step, and equal outputs
    tree = _patched_tree(
        tmp_path,
        abduction=(
            "\n_link_events = link_events\n\n\n"
            "def link_events(spec, kind, trk=None, det=None):\n"
            "    _link_events(spec, kind, trk, det)\n"
            "    return _link_events(spec, kind, trk, det)\n"
        ),
        tracker=(
            "\n_apply = AbductionEngine._apply\n\n\n"
            "def _copy_and_apply(self, *args):\n"
            "    self.fluents.copy()\n"
            "    return _apply(self, *args)\n\n\n"
            "AbductionEngine._apply = _copy_and_apply\n"
        ),
    )
    out = _ab_frames("src", tree, "--workload", "occlusion", "--jobs", "2", "--passes", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    steps = int(lines[2].split()[1])
    a, b = _counts(lines[2]), _counts(lines[3])
    assert a["link_events"] == b["link_events"] > 0
    assert (b["possible"], b["occurrences"]) == (2 * a["possible"], 2 * a["occurrences"])
    assert b["store_copies"] == a["store_copies"] + steps
    ratios = _counts(lines[4])
    assert [ratios[name] for name in ("link_events", "possible", "occurrences")] == [
        "1.000", "2.000", "2.000",
    ]


def test_bench_workload_with_tracks():
    out = _ab_frames("src", "src", "--workload", "bench", "--tracks", "20", "--passes", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == (
        "bench at 20 tracks, seed 0: 1 jobs, 30 frames, least of 1 passes per frame and phase"
    )
    assert lines[1].split()[-len(COUNTS) - 1:] == [*COUNTS, "tree"]
    a, b = _counts(lines[2]), _counts(lines[3])
    # the crowded stream's matchings need path searches
    assert a == b and a["searches_found"] <= a["searches"] <= a["visits"]
    assert all(a[name] > 0 for name in COUNTS if name != "searches_found")
    assert _counts(lines[4]) == {
        name: "-" if a[name] == 0 else "1.000" for name in COUNTS
    }
    # the scaling stream's boxes are jittered: no coordinate repeats
    a, b = _repeats(lines[6])
    assert a == b and a[0] == 0 < a[1]
    assert lines[-4:] == [
        "event logs equal", "track files equal", "reports equal", "scores equal",
    ]


def test_matcher_work_counted_per_side(tmp_path):
    # B's matcher solves each matching twice: twice the heap pushes, the
    # same rows, edges and every other count, and equal outputs
    tree = _patched_tree(tmp_path, abduction=(
        "\n_linear_sum_assignment = linear_sum_assignment\n\n\n"
        "def linear_sum_assignment(rows, n_cols):\n"
        "    _linear_sum_assignment(rows, n_cols)\n"
        "    return _linear_sum_assignment(rows, n_cols)\n"
    ))
    out = _ab_frames("src", tree, "--workload", "bench", "--tracks", "20", "--passes", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    a, b = _counts(lines[2]), _counts(lines[3])
    assert a["pushes"] > 0 and b == {**a, "pushes": 2 * a["pushes"]}
    ratios = _counts(lines[4])
    assert ratios.pop("pushes") == "2.000"
    assert set(ratios.values()) <= {"1.000", "-"}


def test_tracks_only_with_bench():
    for workload, extra in (("bench", []), ("churn", ["--tracks", "6"])):
        out = _ab_frames("src", "src", "--workload", workload, *extra)
        assert out.returncode == 2 and "--tracks N goes with --workload bench" in out.stderr


def test_too_few_jobs_or_tracks_rejected():
    # the scaling scenario pairs its tracks; no job list is empty or cut
    # from its end
    for args, message in (
        (["--workload", "occlusion", "--jobs", "0"], "--jobs must be at least 1"),
        (["--workload", "occlusion", "--jobs", "-1"], "--jobs must be at least 1"),
        (["--workload", "bench", "--tracks", "1"], "--tracks must be at least 2"),
        (["--workload", "bench", "--tracks", "0"], "--tracks must be at least 2"),
    ):
        out = _ab_frames("src", "src", *args)
        assert out.returncode == 2 and message in out.stderr, args
        assert out.stdout == ""


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
