"""Shared test helpers: random boxes, randomized solver instances and
the scaling stream's frames, recorded once per session.

Random specs only produce fluent configurations the engine can actually
reach (active tracks are visible and unclipped; halted tracks are either
hidden behind a then-visible occluder or clipped).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from abdtrack import (
    BBox2D,
    Detection,
    FluentStore,
    ProblemSpec,
    SolveResult,
    Thresholds,
    TrackPrediction,
    TrackState,
)
from abdtrack.domain import EventKind, EventOccurrence, Visibility, apply_event
from abdtrack.geometry import iou, scaled_iou
from work_counts import bench_steps, large_block_solve


def random_box(rng: np.random.Generator, span: float = 300.0) -> BBox2D:
    x = float(rng.uniform(-40, span))
    y = float(rng.uniform(-40, span))
    w = float(rng.uniform(6, 90))
    h = float(rng.uniform(6, 90))
    return BBox2D(x, y, w, h)


def edge_case_boxes(rng: np.random.Generator, n: int) -> list[BBox2D]:
    """Boxes that stress the overlap tests: integer grid boxes with
    touching edges, equal bottom edges and negative coordinates; tiny
    boxes near the origin whose pairwise intersection area underflows to
    0; huge boxes whose pairwise union overflows; and ordinary ones."""
    boxes = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            x, y = (5.0 * rng.integers(-4, 5, size=2)).tolist()
            w, h = (5.0 * rng.integers(1, 4, size=2)).tolist()
        elif roll < 0.6:
            x, y = (2e-166 * rng.integers(0, 4, size=2)).tolist()
            w, h = (1e-165, 1e-135) if rng.random() < 0.5 else (1e-135, 1e-165)
        elif roll < 0.8:
            x, y = (-5e199 * rng.integers(0, 3, size=2)).tolist()
            w, h = float(rng.uniform(0.5, 1.0)) * 1e200, float(rng.uniform(1.0, 1.5)) * 1e108
        else:
            boxes.append(random_box(rng, span=40.0))
            continue
        boxes.append(BBox2D(x, y, w, h))
    return boxes


def scaled_likelihoods(
    preds: dict[int, TrackPrediction], dets: Sequence[Detection]
) -> dict[tuple[int, int], int]:
    """Matching likelihoods of the overlapping (track, detection) pairs."""
    out = {}
    for tid, pred in preds.items():
        for det in dets:
            ml = int(scaled_iou(iou(pred.box, det.box)))
            if ml > 0:
                out[(tid, det.id)] = ml
    return out


def make_random_spec(
    rng: np.random.Generator,
    max_tracks: int = 5,
    max_dets: int = 5,
    thresholds: Thresholds | None = None,
    min_tracks: int = 0,
    min_dets: int = 0,
) -> ProblemSpec:
    classes = ["car", "person", "bus"]
    n_t = int(rng.integers(min_tracks, max_tracks + 1))
    n_d = int(rng.integers(min_dets, max_dets + 1))
    if thresholds is None:
        thresholds = Thresholds(
            iou_thresh=float(rng.choice([0.0, 0.1, 0.3])),
            conf_thresh_assign=int(rng.choice([10, 30])),
            conf_thresh_resume=int(rng.choice([30, 50])),
            conf_thresh_new_track=int(rng.choice([40, 50, 70])),
            size_threshold=float(rng.choice([50.0, 100.0])),
        )

    track_ids = sorted(int(t) for t in rng.choice(60, size=n_t, replace=False))
    fluents = FluentStore()
    preds: dict[int, TrackPrediction] = {}
    for tid in track_ids:
        fluents.register_track(tid)
    for tid in track_ids:
        box = random_box(rng)
        if rng.random() < 0.35:
            state = TrackState.HALTED
            age = int(rng.integers(0, 40))
        else:
            state = TrackState.ACTIVE
            age = 0
        preds[tid] = TrackPrediction(
            box=box, state=state, cls=str(rng.choice(classes)), halted_age=age
        )
    for tid in track_ids:
        if preds[tid].state != TrackState.HALTED:
            continue
        visible_others = [
            t
            for t in track_ids
            if t != tid and fluents.visibility(t) == Visibility.FULLY_VISIBLE
        ]
        if visible_others and rng.random() < 0.5:
            occ = int(rng.choice(visible_others))
            apply_event(fluents, EventOccurrence(EventKind.HIDES_BEHIND, 0, tid, occluder=occ))
        else:
            apply_event(fluents, EventOccurrence(EventKind.MISSING_DETECTIONS, 0, tid))

    dets: list[Detection] = []
    for j in range(n_d):
        roll = rng.random()
        if track_ids and roll < 0.55:
            src = preds[int(rng.choice(track_ids))].box
            box = BBox2D(
                src.x + float(rng.uniform(-10, 10)),
                src.y + float(rng.uniform(-10, 10)),
                max(4.0, src.w + float(rng.uniform(-6, 6))),
                max(4.0, src.h + float(rng.uniform(-6, 6))),
            )
        elif dets and roll < 0.70:
            box = dets[int(rng.integers(0, len(dets)))].box  # exact tie bait
        else:
            box = random_box(rng)
        dets.append(
            Detection(j, str(rng.choice(classes)), int(rng.integers(0, 101)), box)
        )

    return ProblemSpec(
        frame=int(rng.integers(1, 500)),
        detections=tuple(dets),
        predictions=preds,
        likelihoods=scaled_likelihoods(preds, dets),
        fluents=fluents,
        config=thresholds,
        frame_geom=(320.0, 320.0),
    )


@pytest.fixture(scope="session")
def bench_frames():
    """``bench_frames(n)``: per frame of the 6-frame scaling stream at
    ``n`` tracks, the spec an engine builds and the result it steps;
    each track count is stepped once per session, and
    ``bench_frames.work[n]`` holds those steps' work counts."""

    @functools.cache
    def record(n_tracks: int) -> list[tuple[ProblemSpec, SolveResult]]:
        frames, record.work[n_tracks] = bench_steps(n_tracks)
        return frames

    record.work = {}
    return record


@pytest.fixture(scope="session")
def large_block():
    """``(spec, result, work counts)`` of :func:`work_counts.large_block_spec`,
    solved once per session."""
    return large_block_solve()
