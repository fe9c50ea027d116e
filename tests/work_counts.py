"""Work counts: what the matcher, the canonical tie-break and event
linking do on fixed streams, counted by wrapping the names
:mod:`abdtrack.abduction` looks up at call time, so ``src/`` pays nothing
for them.

Per stream, :func:`counting` counts the matcher's heap pushes
(``heappush``), the tie-break's alternating-path searches (``_cover``)
and those of them that find a path, the rows and edges of each matching
solved (``linear_sum_assignment``), the calls that link an action to
its events (``link_events``) and test an event's preconditions
(``possible``), the event occurrences that :mod:`abdtrack.abduction`
builds (``occurrences``, its ``EventOccurrence`` calls) and the copies
of the fluent store (``store_copies``, ``FluentStore.copy``, wrapped on
the class).  Counts are the same on every machine, load and hash
seed, so ``golden/work_counts.json`` locks them as the goldens lock the
outputs, and a change of the engine's work shows in that file's diff.
The streams: the 6-frame scaling stream at 200 and 400 tracks (the
``bench_frames`` fixture's), the 2001 x 400 block of
:func:`large_block_spec`, the tied-resume frame of
:func:`tied_resume_counts` and, counted by ``test_golden.py``, the
golden ``churn`` case and the five ``occlusion`` cases, summed.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from abdtrack import (
    AbductionEngine,
    BBox2D,
    Detection,
    FluentStore,
    ProblemSpec,
    SolveResult,
    TrackPrediction,
    TrackState,
    abduction,
    solve,
)
from abdtrack.domain import EventKind, EventOccurrence, apply_event
from abdtrack.geometry import IOU_SCALE
from abdtrack.synth import generate, scaling_scenario

BENCH_TRACKS = (200, 400)
TIED_TRACKS = 100


@contextlib.contextmanager
def counting() -> Iterator[dict[str, int]]:
    """Count, while the block runs, ``pushes``, ``searches`` and
    ``searches_found``, the matchings' ``rows`` and ``edges``, the
    ``link_events`` and ``possible`` calls, the ``occurrences`` built and
    the ``store_copies``."""
    counts = dict.fromkeys(
        ("pushes", "searches", "searches_found", "rows", "edges", "link_events", "possible",
         "occurrences", "store_copies"), 0
    )
    push, cover, matcher = abduction.heappush, abduction._cover, abduction.linear_sum_assignment
    link, possible = abduction.link_events, abduction.possible
    occurrence, copy = abduction.EventOccurrence, FluentStore.copy

    def counted_push(heap, item):
        counts["pushes"] += 1
        push(heap, item)

    def counted_cover(*args):
        found = cover(*args)
        counts["searches"] += 1
        counts["searches_found"] += found
        return found

    def counted_matcher(rows, n_cols):
        counts["rows"] += len(rows)
        counts["edges"] += sum(map(len, rows))
        return matcher(rows, n_cols)

    def counted_link(*args):
        counts["link_events"] += 1
        return link(*args)

    def counted_possible(*args):
        counts["possible"] += 1
        return possible(*args)

    def counted_occurrence(*args):
        counts["occurrences"] += 1
        return occurrence(*args)

    def counted_copy(store):
        counts["store_copies"] += 1
        return copy(store)

    wrapped = {"heappush": counted_push, "_cover": counted_cover,
               "linear_sum_assignment": counted_matcher, "link_events": counted_link,
               "possible": counted_possible, "EventOccurrence": counted_occurrence}
    saved = {name: getattr(abduction, name) for name in wrapped}
    for name, fn in wrapped.items():
        setattr(abduction, name, fn)
    FluentStore.copy = counted_copy
    try:
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(abduction, name, fn)
        FluentStore.copy = copy


def bench_steps(n_tracks: int) -> tuple[list[tuple[ProblemSpec, SolveResult]], dict[str, int]]:
    """Per frame of the 6-frame scaling stream at ``n_tracks`` tracks, the
    spec an engine builds and the result it steps; and the steps' work
    counts."""
    engine = AbductionEngine()
    frames = []
    with counting() as counts:
        for frame, dets in generate(scaling_scenario(n_tracks, 6))[0]:
            result = engine.step(frame, dets)
            frames.append((engine.last_spec, result))
    return frames, counts


def large_block_spec() -> ProblemSpec:
    """One active track with two assign edges joins 2000 halted tracks of
    its class and their 400 resumable detections into one matching; five
    forced pairs of another class make the frame larger than the
    matching."""
    box = BBox2D(100, 100, 20, 20)
    fluents = FluentStore()
    for t in range(2006):
        fluents.register_track(t)
    predictions = {0: TrackPrediction(box, TrackState.ACTIVE, "car")}
    for t in range(1, 2001):
        apply_event(fluents, EventOccurrence(EventKind.MISSING_DETECTIONS, 0, t))
        predictions[t] = TrackPrediction(box, TrackState.HALTED, "car", 1)
    dets = [Detection(j, "car", 90, box) for j in range(400)]
    likelihoods = {(0, 0): 80_000, (0, 1): 70_000}
    for k in range(5):
        predictions[2001 + k] = TrackPrediction(box, TrackState.ACTIVE, "person")
        dets.append(Detection(400 + k, "person", 90, box))
        likelihoods[2001 + k, 400 + k] = IOU_SCALE
    return ProblemSpec(
        frame=1,
        detections=tuple(dets),
        predictions=predictions,
        likelihoods=likelihoods,
        fluents=fluents,
        frame_geom=(320.0, 320.0),
    )


def large_block_solve() -> tuple[ProblemSpec, SolveResult, dict[str, int]]:
    """:func:`large_block_spec`, its solve, and the solve's work counts."""
    spec = large_block_spec()
    with counting() as counts:
        result = solve(spec)
    return spec, result, counts


def tied_resume_counts(k: int = TIED_TRACKS) -> dict[str, int]:
    """The work counts of the tied-resume frame: ``k`` tracks of one class
    start, an empty frame halts them all, and then ``k`` detections of
    that class far from every prediction come, so that each halted track
    may resume on each of them, k * k tied resume edges.  Only that
    frame's step is counted."""
    grid = [(20.0 + 24 * (i % 50), 20.0 + 24 * (i // 50)) for i in range(k)]
    engine = AbductionEngine()
    engine.step(0, [Detection(i, "car", 90, BBox2D(x, y, 12, 12)) for i, (x, y) in enumerate(grid)])
    engine.step(1, [])
    far = [Detection(i, "car", 90, BBox2D(x, y + 200, 12, 12)) for i, (x, y) in enumerate(grid)]
    with counting() as counts:
        engine.step(2, far)
    return counts


def work_counts(
    bench: dict[int, dict[str, int]], block: dict[str, int], cases: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """The counts file's document: each stream's counts by name; ``cases``
    holds the golden cases' by name."""
    return {
        **{f"bench{n}": bench[n] for n in BENCH_TRACKS},
        "block2001x400": block,
        **cases,
        f"tied_resume{TIED_TRACKS}": tied_resume_counts(),
    }
