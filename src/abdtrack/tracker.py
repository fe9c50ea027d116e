"""Online tracking loop: per frame, build the problem spec, solve, apply
events, and update track lifecycles and histories.

One engine per stream; frames must arrive in strictly increasing order,
and a frame the stream skips is stepped as an empty frame while a track
is live, so that halted ages and back-fills count frames.
Track ids are globally monotone.  Halted tracks keep being dead-reckoned
so resume and anticipation have positions.  A resume is an assign after a
back-fill: it fills the halted gap with linearly interpolated boxes
flagged as such, and then observes its detection as an assign does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._records import record
from .abduction import (
    ASSIGN,
    END,
    HALT,
    RESUME,
    START,
    ProblemSpec,
    SolveResult,
    Thresholds,
    TrackPrediction,
    solve,
)
from .domain import (
    ACTIVE,
    ENDED,
    ENTERS_FOV,
    EVENTS,
    HALTED,
    INTERPOLATED,
    OBSERVED,
    TRACK,
    Detection,
    EventOccurrence,
    FluentStore,
    HistoryEntry,
    Track,
    apply_event,
    check_frame,
)
from .geometry import DEFAULT_FRAME_GEOM, BBox2D, overlap_likelihoods
from .geometry import iou_matrix  # not called; perfbench/tracing.py wraps this name
from .motion import MotionFilter

__all__ = ["EngineConfig", "Explanation", "AbductionEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """The engine's thresholds and its frame size (W, H) in pixels, which
    the field-of-view events read; raises ValueError unless W and H are
    finite and positive."""

    thresholds: Thresholds = Thresholds()
    frame_geom: tuple[float, float] = DEFAULT_FRAME_GEOM

    def __post_init__(self) -> None:
        w, h = self.frame_geom
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError(f"frame geometry must be WxH, finite and positive: {w:g}x{h:g}")


@dataclass
class Explanation:
    """Final output: tracks with full histories and the chronological
    abduced event sequence.

    ``box_text`` is a cache that :mod:`abdtrack.io`'s writers own and
    fill, so an explanation is read-only once
    :meth:`AbductionEngine.finalize` returns it."""

    tracks: list[Track]
    events: list[EventOccurrence]
    box_text: Optional[list[list[str]]] = field(default=None, init=False, repr=False, compare=False)


@record
class _StepStats:
    frame: int
    solve_ms: float
    total_ms: float


class AbductionEngine:
    """Sequential online tracker for one detection stream."""

    def __init__(self, config: EngineConfig = EngineConfig()):
        self.config = config
        self.fluents = FluentStore()
        self.tracks: dict[int, Track] = {}
        self.events: list[EventOccurrence] = []
        self.latencies: list[_StepStats] = []
        # Kalman rows of the live (not ended) tracks, in ascending id
        # order; its ids are the engine's one list of live tracks.
        self.motion = MotionFilter()
        self._next_id = 0
        self._last_frame: Optional[int] = None
        self._finalized: Optional[Explanation] = None
        self.last_spec: Optional[ProblemSpec] = None

    # -- main loop -----------------------------------------------------

    def step(self, frame: int, detections: Sequence[Detection]) -> SolveResult:
        """Process one frame; returns the per-frame solve result.

        The frame is the engine's one unit of time.  The frame's own
        checks run first, so a rejected frame changes nothing.  Then each
        frame that the stream skipped since the last one is stepped as an
        empty frame, while any track is live: with none live, an empty
        frame would change nothing but :attr:`latencies`.  So a gap of
        any length costs at most ``max_halted_age + 2`` extra steps, each
        with its own latency record."""
        if self._finalized is not None:
            raise RuntimeError("engine already finalized")
        check_frame(frame, self._last_frame, detections)
        if frame - 1 != self._last_frame:  # consecutive frames pay this test alone
            while self.motion.rows and self._last_frame < frame - 1:
                self.step(self._last_frame + 1, ())
        t0 = time.perf_counter()
        self._last_frame = frame

        spec = self._build_spec(frame, detections)
        self.last_spec = spec
        t1 = time.perf_counter()
        result = solve(spec)
        t2 = time.perf_counter()
        self._apply(frame, spec.detections_by_id, result)
        t3 = time.perf_counter()
        self.latencies.append(_StepStats(frame, (t2 - t1) * 1e3, (t3 - t0) * 1e3))
        return result

    def _build_spec(self, frame: int, detections: Sequence[Detection]) -> ProblemSpec:
        """The frame's spec.  Its fluents are the engine's store itself:
        :meth:`_apply` and :meth:`finalize` replace the store, by a copy
        or an empty one, rather than change it, so a spec's snapshot never
        changes, and a frame with no event that writes a fluent, such as
        one of ``noise`` alone, copies nothing."""
        rows, tracks = self.motion.rows, self.tracks
        boxes = self.motion.predict()
        predictions: dict[int, TrackPrediction] = {}
        for tid, box in zip(rows, boxes):
            trk = tracks[tid]
            # the halted age: every frame is stepped, so a live track's
            # last entry is its last observation, and an active track's is
            # the frame before this one
            predictions[tid] = TrackPrediction(
                box, trk.state, trk.cls, frame - trk.history[-1].frame - 1
            )
        return ProblemSpec(
            frame,
            tuple(detections),
            predictions,
            overlap_likelihoods(zip(rows, boxes), [(d.id, d.box) for d in detections]),
            self.fluents,
            self.config.frame_geom,
            self.config.thresholds,
        )

    def _apply(self, frame: int, dets: dict[int, Detection], result: SolveResult) -> None:
        """Carry out the cover's actions, then apply the frame's events
        through :func:`apply_event`, the one place fluents change.

        A resume is an assign after a back-fill: it fills its track's
        halted frames (:meth:`_backfill`), sets the track active and logs
        its event, and then both write the observed box and history entry
        through the same two lines.  The events that drop their track (an
        effect ``(TRACK, False)`` in :data:`~abdtrack.domain.EVENTS`) go
        last, so a same-frame hides_behind behind an ending track cannot
        leave a hidden pair on its dropped fluents; the events with no
        effect, ``noise``, are logged and not applied.  The event log
        keeps the cover's order.  ``dets`` is the frame's detections by
        id, the spec's map.
        """
        frame_events: list[EventOccurrence] = []
        tracks, observed = self.tracks, {}  # observed: track id -> its box for the Kalman update
        for action in result.actions:
            kind, event = action.kind, action.event
            if kind is ASSIGN or kind is RESUME:
                trk, det = tracks[action.trk], dets[action.det]
                if kind is RESUME:
                    self._backfill(trk, frame, det)
                    trk.state = ACTIVE
                    frame_events.append(event)
                observed[action.trk] = det.box
                trk.history.append(HistoryEntry(frame, det.box, OBSERVED, det.conf))
                continue
            if kind is START:
                tid = self._start_track(frame, dets[action.det])
                event = EventOccurrence(ENTERS_FOV, frame, tid)
            elif kind is HALT:
                tracks[action.trk].state = HALTED
            elif kind is END:
                self.motion.drop(action.trk)
                tracks[action.trk].state = ENDED
            # IGNORE_TRK / IGNORE_DET: no state change, noise event logged
            if event is not None:
                frame_events.append(event)
        self.motion.update(observed)
        if not frame_events:
            return
        written = [e for e in frame_events if EVENTS[e.kind].effects]  # noise writes nothing
        if written:
            self.fluents = fluents = self.fluents.copy()  # the spec keeps the store it read
            for e in sorted(written, key=lambda e: (TRACK, False) in EVENTS[e.kind].effects):
                apply_event(fluents, e)
        self.events.extend(frame_events)

    # -- lifecycle helpers ----------------------------------------------

    def _start_track(self, frame: int, det: Detection) -> int:
        tid = self._next_id
        self._next_id += 1
        trk = Track(
            id=tid,
            cls=det.cls,
            state=ACTIVE,
            history=[HistoryEntry(frame, det.box, OBSERVED, det.conf)],
            born_frame=frame,
        )
        self.tracks[tid] = trk
        self.motion.add(tid, det.box)
        return tid

    def _backfill(self, trk: Track, frame: int, det: Detection) -> None:
        """Fill a resuming track's halted frames with boxes interpolated
        linearly from its last entry to ``det``, its detection at ``frame``."""
        last = trk.history[-1]
        gap = frame - last.frame
        for k in range(1, gap):
            f = k / gap
            box = BBox2D(
                last.box.x + f * (det.box.x - last.box.x),
                last.box.y + f * (det.box.y - last.box.y),
                last.box.w + f * (det.box.w - last.box.w),
                last.box.h + f * (det.box.h - last.box.h),
            )
            trk.history.append(HistoryEntry(last.frame + k, box, INTERPOLATED, 0))

    # -- output ----------------------------------------------------------

    def finalize(self) -> Explanation:
        """Close out live tracks and return the accumulated explanation.

        Idempotent; end-of-stream closure is administrative and abduces no
        further events.
        """
        if self._finalized is None:
            for tid in self.motion.ids:
                self.tracks[tid].state = ENDED
            # The store holds the fluents of the live tracks alone, and
            # those all end here; the last spec keeps the store it read.
            self.fluents = FluentStore()
            self._finalized = Explanation(
                tracks=sorted(self.tracks.values(), key=lambda t: t.id),
                events=list(self.events),
            )
        return self._finalized
