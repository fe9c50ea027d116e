"""Importing abdtrack, building an engine and stepping it load neither
numpy nor scipy, through the matching too; only ``metrics`` and ``synth``
need them.  Each check runs in a fresh interpreter on a golden input."""

import os
import subprocess
import sys
from pathlib import Path

import abdtrack
from test_golden import _input_flags

# Counts the matchings by wrapping the matcher, runs {run}, then
# prints the count and the loaded modules among numpy and scipy.
_CHILD = """\
import sys
from abdtrack import abduction
solve_matching, matchings = abduction.linear_sum_assignment, []
def counting(*args):
    matchings.append(len(args[0]))
    return solve_matching(*args)
abduction.linear_sum_assignment = counting
{run}
print(len(matchings), *sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


def _child(run: str, *args: str) -> list[str]:
    """The last output line of the child program, split."""
    env = dict(os.environ, PYTHONPATH=str(Path(abdtrack.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(run=run), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()


def test_engine_steps_without_numpy_or_scipy(tmp_path):
    _input_flags("bench20", tmp_path)
    run = (
        "from pathlib import Path\n"
        "from abdtrack import AbductionEngine\n"
        "from abdtrack.io import parse_mot\n"
        "engine = AbductionEngine()\n"
        "for frame, dets in parse_mot(Path(sys.argv[1]).read_text()).frames:\n"
        "    engine.step(frame, dets)"
    )
    matchings, *loaded = _child(run, str(tmp_path / "dets.txt"))
    assert int(matchings) > 0 and loaded == []


def test_track_without_gt_loads_neither(tmp_path):
    flags = _input_flags("bench20", tmp_path)
    run = "from abdtrack.cli import main\nassert main(sys.argv[1:]) == 0"
    matchings, *loaded = _child(run, "track", *flags, "--out-tracks", str(tmp_path / "t.txt"))
    assert int(matchings) > 0 and loaded == []


def test_names_of_metrics_synth_and_baseline_load_on_use():
    run = "import abdtrack\nassert abdtrack.evaluate is abdtrack.metrics.evaluate"
    assert _child(run) == ["0", "numpy", "scipy"]
    run = "from abdtrack import GreedyIoUTracker"
    assert _child(run) == ["0"]
