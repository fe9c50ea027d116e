"""Golden outputs: byte-for-byte locks on what the CLI writes for fixed
synthetic streams.

Each case is a stream made by ``abdtrack.synth`` from a fixed seed and
written as a MOT detection file.  It runs through ``abdtrack track`` (tracks,
events, JSON report and ``--emit-facts``) and ``abdtrack anticipate``; its
tracks are scored against the stream's ground truth by
``abdtrack eval --json``.  Event logs are committed in full
(``golden/<case>.events``); tracks, report, anticipation output, scores and
fact dumps as sha256 digests (``golden/digests.json``), because the full files
run to megabytes.  The input file's digest is locked too, so a change in
the generator is told apart from a change in the engine.

The worked examples of ``worked_examples.py`` are locked in full
(``golden/worked_examples.txt``): the cover ``solve`` returns for frames 235
and 268, action by action in result order, with its events and objective,
and the facts ``emit_facts`` writes for frame 79.

The work that the matcher, the canonical tie-break and event linking do
on the scaling stream at 200 and 400 tracks, on a 2001 x 400 block, on a
frame of 100 tied resumes and in ``abdtrack track`` on the ``churn`` case
and the five ``occlusion`` cases is locked too
(``golden/work_counts.json``; see ``work_counts.py``): a change of that
work shows in the file's diff.

Regenerate only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from abdtrack import cli, emit_facts, motion, solve
from abdtrack.cli import main
from abdtrack.io import format_event
from abdtrack.synth import ScenarioConfig, generate, occlusion_corpus, scaling_scenario
from reference_kalman import H, R, ScalarKF, row_matrices
from reference_report import reference_report
from work_counts import BENCH_TRACKS, bench_steps, counting, large_block_solve, work_counts
from worked_examples import frame235_spec, frame268_spec, frame79_spec

GOLDEN = Path(__file__).parent / "golden"

# frame_geom comes from the config file and conf_thresh_new_track from the
# flag, which must win over the file's value.
_CHURN_CONFIG = "frame_geom = 1242x375\nmax_halted_age = 25  # comment\nconf_thresh_new_track = 40\n"


def _cases() -> dict[str, tuple[ScenarioConfig, list[str], str | None]]:
    """Case name -> (scenario, extra CLI flags, config file text)."""
    cases = {
        "bench20": (
            scaling_scenario(20, 30),
            ["--frame-geom", "1242x375"],
            None,
        ),
        # Crowded: many halts with several possible occluders, so it locks
        # the lowest-id occluder choice of hides_behind.
        "bench50": (
            scaling_scenario(50, 30),
            ["--frame-geom", "1242x375"],
            None,
        ),
        # Past the tie-break's easy cases: thousands of exchange tests over
        # its 30 frames, some of them searching from the column side.
        "bench200": (
            scaling_scenario(200, 30),
            ["--frame-geom", "1242x375"],
            None,
        ),
        "churn": (
            ScenarioConfig(n_tracks=10, n_frames=400, spurious_rate=0.5, seed=3),
            ["--conf-new", "45"],
            _CHURN_CONFIG,
        ),
        # Dropped detections halt tracks, and a small max_halted_age loses
        # some of them: the one case that logs lost.
        "lost": (
            ScenarioConfig(n_tracks=6, n_frames=120, drop_prob=0.15, spurious_rate=0.2, seed=1),
            [],
            "max_halted_age = 3\n",
        ),
    }
    for k, cfg in enumerate(occlusion_corpus(5, seed=23)):
        w, h = cfg.frame_geom
        cases[f"occlusion{k}"] = (cfg, ["--frame-geom", f"{w:g}x{h:g}"], None)
    return cases


CASES = _cases()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mot_text(cfg: ScenarioConfig) -> str:
    frames, _ = generate(cfg)
    return "".join(
        f"{f},-1," + ",".join(repr(float(v)) for v in (b.x, b.y, b.w, b.h, d.conf / 100)) + "\n"
        for f, dets in frames
        for d in dets
        for b in (d.box,)
    )


def _gt_text(cfg: ScenarioConfig) -> str:
    _, gt = generate(cfg)
    return "".join(
        f"{f},{tid}," + ",".join(repr(float(v)) for v in (b.x, b.y, b.w, b.h)) + "\n"
        for tid in sorted(gt)
        for f, b in sorted(gt[tid].items())
    )


def _facts(directory: Path) -> str:
    return "".join(f"{p.name}\n{p.read_text()}" for p in sorted(directory.glob("*.lp")))


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _input_flags(name: str, work: Path) -> list[str]:
    """The CLI's input and engine flags for one case, its files written in work."""
    cfg, flags, config_text = CASES[name]
    dets = work / "dets.txt"
    dets.write_text(_mot_text(cfg))
    flags = ["--input", str(dets), *flags]
    if config_text is not None:
        (work / "engine.cfg").write_text(config_text)
        flags += ["--config", str(work / "engine.cfg")]
    return flags


def run_case(name: str, work: Path) -> tuple[dict[str, str], str]:
    """(digests, event log) of one case, run in work."""
    cfg = CASES[name][0]
    flags = _input_flags(name, work)
    dets = work / "dets.txt"
    _cli(
        ["track", *flags, "--out-tracks", str(work / "tracks.txt"),
         "--out-events", str(work / "events.txt"), "--out-report", str(work / "report.json"),
         "--emit-facts", str(work / "facts")]
    )
    anticipation = _cli(["anticipate", *flags])
    (work / "gt.txt").write_text(_gt_text(cfg))
    scores = _cli(
        ["eval", "--gt", str(work / "gt.txt"), "--hyp", str(work / "tracks.txt"), "--json"]
    )
    digests = {
        "input": _sha(dets.read_text()),
        "tracks": _sha((work / "tracks.txt").read_text()),
        "report": _sha((work / "report.json").read_text()),
        "anticipation": _sha(anticipation),
        "eval": _sha(scores),
        "facts": _sha(_facts(work / "facts")),
    }
    return digests, (work / "events.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = json.loads((GOLDEN / "digests.json").read_text())[name]
    digests, events = run_case(name, tmp_path)
    assert digests["input"] == expected["input"], "synthetic input changed, not the engine"
    assert events == (GOLDEN / f"{name}.events").read_text()
    assert digests == expected


def worked_examples_text() -> str:
    """Each worked example's solve result (its actions' ``pretty()`` in
    result order, its events, its objective), then frame 79's facts."""
    lines = []
    for name, spec in (("frame235", frame235_spec()), ("frame268", frame268_spec())):
        result = solve(spec)
        lines.append(f"% solve {name}")
        lines += [a.pretty() for a in result.actions]
        lines += [format_event(e) for e in result.events]
        lines.append(f"objective {result.objective}")
    lines.append("% emit_facts frame79")
    return "\n".join(lines) + "\n" + emit_facts(frame79_spec())


def test_worked_examples():
    assert worked_examples_text() == (GOLDEN / "worked_examples.txt").read_text()


# The golden cases whose ``track`` runs work_counts.json counts, by
# stream: churn alone, and the occlusion scenes summed.
_COUNTED_CASES = {"churn": ["churn"], "occlusion0-4": [f"occlusion{k}" for k in range(5)]}


def case_work_counts() -> dict[str, dict[str, int]]:
    """Per stream of ``_COUNTED_CASES``, the work counts of ``abdtrack
    track`` on its cases, summed."""
    out = {}
    for stream, names in _COUNTED_CASES.items():
        with counting() as out[stream], tempfile.TemporaryDirectory() as tmp:
            for name in names:
                _cli(["track", *_input_flags(name, Path(tmp))])
    return out


def test_work_counts(bench_frames, large_block):
    # the bench streams' steps and the block's solve that the fixtures
    # make, counted as they ran
    for n in BENCH_TRACKS:
        bench_frames(n)
    counts = work_counts(bench_frames.work, large_block[2], case_work_counts())
    assert counts == json.loads((GOLDEN / "work_counts.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_reference(name, tmp_path, monkeypatch):
    """`track --out-report` writes json.dumps(doc, indent=2) of the report
    document, byte for byte, on each case's explanation."""
    seen = []
    original = cli.write_report

    def write_report(exp):
        seen.append(exp)
        return original(exp)

    monkeypatch.setattr(cli, "write_report", write_report)
    report = tmp_path / "report.json"
    _cli(["track", *_input_flags(name, tmp_path), "--out-report", str(report)])
    (exp,) = seen
    assert report.read_text() == reference_report(exp)


@pytest.mark.parametrize("name", sorted(CASES))
def test_innovation_covariance_diagonal(name, tmp_path, monkeypatch):
    """After every Kalman predict and update of the case's stream, each row
    of the bank equals the full-matrix filter, whose gain inverts S, bit for
    bit; that filter's S = H P Hᵀ + R is exactly 0.0 off its diagonal on
    every update, as the rows' scalar gain assumes."""
    cls = motion.MotionFilter
    add, drop, predict, update = cls.add, cls.drop, cls.predict, cls.update
    ref: dict[int, ScalarKF] = {}
    updates = 0

    def check(self):
        assert self.ids == list(ref)
        for t, row in self.rows.items():
            x, P = row_matrices(row)
            assert np.array_equal(x, ref[t].x) and np.array_equal(P, ref[t].P)

    def add_row(self, tid, box):
        add(self, tid, box)
        ref[tid] = ScalarKF(box)

    def drop_row(self, tid):
        drop(self, tid)
        del ref[tid]

    def predict_rows(self):
        boxes = predict(self)
        assert boxes == [kf.predict() for kf in ref.values()]
        check(self)
        return boxes

    def update_rows(self, obs):
        nonlocal updates
        update(self, obs)
        for t, b in obs.items():
            S = H @ ref[t].P @ H.T + R
            assert (S[~np.eye(4, dtype=bool)] == 0.0).all()
            ref[t].update(b)
        check(self)
        updates += len(obs)

    for attr, fn in [("add", add_row), ("drop", drop_row), ("predict", predict_rows),
                     ("update", update_rows)]:
        monkeypatch.setattr(cls, attr, fn)
    _cli(["track", *_input_flags(name, tmp_path)])
    assert updates > 0


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name], events = run_case(name, Path(tmp))
        (GOLDEN / f"{name}.events").write_text(events)
        print(name, digests[name])
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    (GOLDEN / "worked_examples.txt").write_text(worked_examples_text())
    counts = work_counts(
        {n: bench_steps(n)[1] for n in BENCH_TRACKS}, large_block_solve()[2], case_work_counts()
    )
    (GOLDEN / "work_counts.json").write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
