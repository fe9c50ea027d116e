"""Shared test helpers: random boxes, randomized solver instances, the
scaling stream's frames, recorded once per session, and a ``solve`` whose
every matching and frame cover is checked against its LP duals.

Random specs only produce fluent configurations the engine can actually
reach (active tracks are visible and unclipped; halted tracks are either
hidden behind a then-visible occluder or clipped).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
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
    link_events,
    solve,
)
from abdtrack import abduction
from abdtrack.abduction import ActionKind
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


@pytest.fixture
def counted_solve(monkeypatch):
    """``solve``, counting in its ``counts`` the tracks each rule decided:
    ``forced`` assigns, ``mixed``, the rows of the one matching, and
    ``no edge`` fallbacks, and the ``matchings`` solved.  Each solve
    makes at most one ``linear_sum_assignment`` call, that call's duals
    certify its matching, and the frame's dual certificate
    (:func:`assert_frame_certificate`) its whole cover."""
    counts, calls = Counter(), []
    solver = abduction.linear_sum_assignment

    def matching(rows, n_cols):
        result = solver(rows, n_cols)
        assert_certificate(rows, n_cols, result)
        calls.append((rows, n_cols, result))
        return result

    monkeypatch.setattr(abduction, "linear_sum_assignment", matching)

    def solving(spec):
        calls.clear()
        result = solve(spec)
        assert len(calls) <= 1, f"{len(calls)} matchings at frame {spec.frame}"
        forced, no_edge = assert_frame_certificate(spec, result, calls[0] if calls else None)
        counts["forced"] += forced
        counts["mixed"] += sum(len(rows) for rows, _, _ in calls)
        counts["no edge"] += no_edge
        counts["matchings"] += len(calls)
        return result

    solving.counts = counts
    return solving


def assert_frame_certificate(spec, result, call):
    """The frame's whole cover priced by LP duals, recomputed from the
    option table's rows alone: the fold ``_fold``'s docstring states,
    every table edge's gain, the forced rule, which must name the
    table's forced pairs, the resumes to forced detections, which the
    table leaves out, and the matching's rows (the other tracks with an
    edge left, by id) and columns (their detections, first seen first).
    A forced detection is priced at its assign's gain, the matching's
    rows and columns at the duals of ``call``, the frame's ``(rows,
    n_cols, result)`` matcher call or None, and all else at 0.  The
    prices are >= 0 and cover every edge, the left-out resumes too, so
    no cover of the whole frame gains more than their sum, which the
    cover's edges gain.  Returns the numbers of forced and of no-edge
    tracks."""
    K = ActionKind
    tracks, table_forced = abduction._option_table(spec)
    n_t, n_d = len(tracks), len(spec.detections)
    c2 = 5 * n_t + 6 * n_d + 2
    c1 = c2 * (10 * (n_t + n_d) + 2)
    worth = {K.HALT: 0, K.RESUME: -1, K.END: -5, K.START: -5, K.IGNORE_TRK: -10 * c2,
             K.IGNORE_DET: -10 * c2}
    det_worth = {d.id: worth[abduction._det_option(spec, d)[0]] for d in spec.detections}
    gain, claims = {}, Counter()
    for t, ((kind, _), dids, (fallback, _)) in tracks.items():
        for d in dids:
            if kind is K.ASSIGN:
                gain[t, d] = (spec.likelihoods[t, d] + 1) * c1 - det_worth[d]
                claims[d] += 1
            else:
                gain[t, d] = worth[K.RESUME] - worth[fallback] - det_worth[d]
    forced = {
        dids[0]: t for t, ((kind, _), dids, _) in tracks.items()
        if kind is K.ASSIGN and len(dids) == 1 and claims[dids[0]] == 1
    }
    assert forced == table_forced
    for t, ((kind, _), _, (fallback, _)) in tracks.items():
        if kind is K.RESUME and link_events(spec, K.RESUME, t) is not None:
            for d in forced:
                det = spec.detections_by_id[d]
                if det.cls == spec.predictions[t].cls and det.conf > spec.config.conf_thresh_resume:
                    gain[t, d] = worth[K.RESUME] - worth[fallback] - det_worth[d]
    forced_tracks = set(forced.values())
    left = {t: [d for d in dids if d not in forced] for t, (_, dids, _) in tracks.items()
            if t not in forced_tracks}
    rows = [t for t, dids in left.items() if dids]
    cols = list(dict.fromkeys(d for t in rows for d in left[t]))
    trk_price, det_price = {}, {d: gain[t, d] for d, t in forced.items()}
    if rows:
        _, n_cols, (_, _, u, v) = call
        assert len(u) == len(rows) and n_cols == len(cols)
        trk_price.update(zip(rows, u))
        det_price.update(zip(cols, v))
    else:
        assert call is None
    assert min([*trk_price.values(), *det_price.values()], default=0) >= 0
    assert all(trk_price.get(t, 0) + det_price.get(d, 0) >= g for (t, d), g in gain.items())
    edges = [(a.trk, a.det) for a in result.actions if a.kind in (K.ASSIGN, K.RESUME)]
    assert len({d for _, d in edges}) == len(edges)
    assert sum(trk_price.values()) + sum(det_price.values()) == sum(gain[e] for e in edges)
    return len(forced), len(left) - len(rows)


def assert_certificate(rows, n_cols, result):
    """linear_sum_assignment's contract: a matching and its gain, and
    integer duals that prove it optimal."""
    optimum, match, u, v = result
    assert len(match) == len(u) == len(rows) and len(v) == n_cols
    assert all(type(x) is int for x in (optimum, *u, *v))
    assert min(u + v, default=0) >= 0
    matched = [j for j in match if j >= 0]
    assert len(set(matched)) == len(matched)
    for i, row in enumerate(rows):
        assert all(u[i] + v[j] >= g for j, g in row.items())
        if match[i] >= 0:
            assert u[i] + v[match[i]] == row[match[i]]
        else:
            assert u[i] == 0
    assert all(v[j] == 0 for j in set(range(n_cols)) - set(matched))
    assert sum(u) + sum(v) == optimum == sum(rows[i][j] for i, j in enumerate(match) if j >= 0)
