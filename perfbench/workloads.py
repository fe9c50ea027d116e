"""Benchmark inputs: two detection-stream workloads made from a seed.

Each workload is a list of file jobs.  A job is one MOT detection file
plus the synthetic ground truth it is scored against; both are written as
text before anything is timed, so input generation is load-generator
set-up and never part of a measurement.  The engine only ever sees what
``abdtrack.io.parse_mot`` reads back from the detection file.

Why these two:

* ``occlusion`` -- occlusion-corpus scenes: many short scenes of 3-4 tracks
  with a fresh engine per scene and anticipation on every frame, so fixed
  per-frame costs (event linking, Kalman update, spec build) dominate and
  there are almost no tie-break re-solves.
* ``churn`` -- one long stream of 10 static tracks with drops and spurious
  detections: well over a hundred short-lived tracks are started, halted
  and lost, halted tracks tie for spare detections so about half of the
  assignment solves are canonical tie-break re-solves, the histories and
  event log grow for the whole stream, and it has the larger parse and
  write volume.

A dense same-class crowd (30-40 tracks over a few hundred frames) is left
out: whether its tracks fall into long chains of wrong resumes differs
from scene to scene, so its per-frame cost moved by about 20% from seed to
seed even with several scenes per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from abdtrack.domain import Detection
from abdtrack.metrics import TrackBoxes
from abdtrack.synth import ScenarioConfig, generate, make_occlusion_scenario

WORKLOADS = ("occlusion", "churn")

# occlusion: scenes as in synth.occlusion_corpus, but with a fixed mix of
# sizes.  A 4-track frame costs ~25% more than a 3-track one; with one or
# two bystanders drawn at random, about half the frames had 4 detections,
# so the median frame sat on the step between the two and moved with the
# seed's mix.  Every third scene has two bystanders, so about two thirds of
# the frames have 3 detections and the median lies inside that group.
OCCLUSION_SCENES = 30

# churn: one long stream over a CHURN_GRID lattice of static tracks.  With
# a spurious detection in about half the frames, the median frame sat on
# the step between frames with and without one; 0.3 keeps it off it.  A
# drop rate of 0.05 set off long chains of wrong resumes on some seeds and
# not on others (idsw 250-740 over ten seeds, MOTA 72-85%, frames ~20%
# slower on the worst); at 0.01 there are next to none (idsw 0-6, MOTA
# 89.6-90.4%), so MOTA and frame cost stay steady from seed to seed.
CHURN_GRID = (5, 2)
CHURN_FRAMES = 1500
CHURN_SPURIOUS = 0.3
CHURN_DROP = 0.01

# Seconds one untraced pass over a workload's jobs takes on a 2-vCPU VM.
# A run makes a fixed number of timed passes, so that two builds take the
# least over as many samples, however fast the machine runs at the time.
PASS_SECONDS = {"occlusion": 4.0, "churn": 5.0}


def timed_passes(workload: str, seconds: float) -> int:
    """The number of timed passes that take about ``seconds``; at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


@dataclass(frozen=True)
class Job:
    """One file job: detections to track and the ground truth to score."""

    name: str
    frames: list[tuple[int, list[Detection]]]
    gt: TrackBoxes


def _churn_scenario(rng: np.random.Generator) -> ScenarioConfig:
    """Static same-class tracks, one at a random spot in each cell of the
    CHURN_GRID lattice: no two boxes overlap and none leaves the view, so
    the ground truth spans every frame and the stream stays steady instead
    of draining or depending on chance clusters of boxes."""
    W, H = ScenarioConfig.frame_geom
    cols, rows = CHURN_GRID
    cw, ch = W / cols, H / rows
    boxes = []
    for r in range(rows):
        for c in range(cols):
            w, h = float(rng.uniform(26, 48)), float(rng.uniform(22, 40))
            x = c * cw + float(rng.uniform(0.2, 0.8)) * (cw - w)
            y = r * ch + float(rng.uniform(0.2, 0.8)) * (ch - h)
            boxes.append((x, y, w, h))
    return ScenarioConfig(
        n_tracks=len(boxes),
        n_frames=CHURN_FRAMES,
        drop_prob=CHURN_DROP,
        jitter_sigma=1.0,
        spurious_rate=CHURN_SPURIOUS,
        seed=int(rng.integers(0, 2**31)),
        fixed_boxes=tuple(boxes),
        fixed_velocities=((0.0, 0.0),) * len(boxes),
    )


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of a workload; a pure function of (workload, seed)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "occlusion":
        return [
            Job(f"occlusion{k}", *generate(make_occlusion_scenario(
                seed=int(rng.integers(0, 2**31)),
                n_frames=int(rng.integers(100, 140)),
                n_bystanders=2 if k % 3 == 0 else 1,
            )))
            for k in range(OCCLUSION_SCENES)
        ]
    if workload == "churn":
        return [Job("churn", *generate(_churn_scenario(rng)))]
    raise ValueError(f"unknown workload {workload!r}")


def _xywh(b) -> str:
    # synth boxes may hold numpy scalars; write plain float reprs
    return ",".join(repr(float(v)) for v in (b.x, b.y, b.w, b.h))


def detections_text(frames: list[tuple[int, list[Detection]]]) -> str:
    """MOT detection lines; confidence as integer percent, boxes as exact reprs."""
    return "".join(
        f"{f},-1,{_xywh(d.box)},{d.conf},-1,-1,-1\n" for f, dets in frames for d in dets
    )


def gt_text(gt: TrackBoxes) -> str:
    """MOT ground-truth lines, exact reprs so parse_mot_tracks round-trips."""
    return "".join(
        f"{f},{tid},{_xywh(b)},1,-1,-1,-1\n"
        for tid in sorted(gt)
        for f, b in sorted(gt[tid].items())
    )


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write every job's detection and ground-truth file; returns the plan
    entries ({name, dets, gt}) in job order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = []
    for job in make_jobs(workload, seed):
        dets = out_dir / f"{job.name}.det.txt"
        gt = out_dir / f"{job.name}.gt.txt"
        dets.write_text(detections_text(job.frames))
        gt.write_text(gt_text(job.gt))
        plan.append({"name": job.name, "dets": str(dets), "gt": str(gt)})
    return plan
