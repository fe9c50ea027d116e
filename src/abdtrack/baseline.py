"""Abduction-disabled reference tracker: greedy matching only.

Used to quantify what the event abduction buys.  It reads a frame as the
engine does, through :func:`~abdtrack.geometry.overlap_likelihoods` and
the assign and start constraints of :class:`Thresholds`, and matches the
admitted pairs greedily by scaled IoU (highest first), then track id,
then detection id.  Unmatched tracks die immediately (no halted state,
no resume, no events); unmatched detections start new tracks under the
start constraint.
"""

from __future__ import annotations

from typing import Sequence

from .abduction import Thresholds, TrackPrediction
from .domain import ACTIVE, Detection, check_frame
from .geometry import BBox2D, TrackBoxes, overlap_likelihoods
from .motion import MotionFilter

__all__ = ["GreedyIoUTracker"]


class _Entry:
    def __init__(self, tid: int, det: Detection):
        self.id = tid
        self.cls = det.cls
        self.boxes: dict[int, BBox2D] = {}


class GreedyIoUTracker:
    def __init__(self, thresholds: Thresholds = Thresholds()):
        self.th = thresholds
        self.tracks: dict[int, _Entry] = {}
        self.finished: dict[int, _Entry] = {}
        # Kalman rows of self.tracks, in the same (ascending id) order.
        self.motion = MotionFilter()
        self._next_id = 0
        self._last_frame: int | None = None

    def step(self, frame: int, detections: Sequence[Detection]) -> None:
        """Raises ValueError, before any change, where the engine's step
        would: for a frame out of order or repeated detection ids.  A
        frame the stream skipped is an empty frame: its first one ends
        every track, and the rest change nothing."""
        check_frame(frame, self._last_frame, detections)
        if frame - 1 != self._last_frame and self.tracks:
            self.step(self._last_frame + 1, ())
        self._last_frame = frame
        boxes = list(zip(self.tracks, self.motion.predict(), strict=True))
        likelihoods = overlap_likelihoods(boxes, [(d.id, d.box) for d in detections])
        dets = {d.id: d for d in detections}
        preds = {tid: TrackPrediction(box, ACTIVE, self.tracks[tid].cls) for tid, box in boxes}
        admitted = self.th.admitted_assigns(likelihoods, dets, preds)
        pairs = sorted(
            (-likelihoods[tid, did], tid, did) for tid, dids in admitted.items() for did in dids
        )
        used_d: set[int] = set()
        obs: dict[int, BBox2D] = {}  # the matched tracks' boxes
        for _, tid, did in pairs:
            if tid in obs or did in used_d:
                continue
            used_d.add(did)
            obs[tid] = self.tracks[tid].boxes[frame] = dets[did].box
        self.motion.update(obs)
        # unmatched tracks terminate immediately
        for tid in list(self.tracks):
            if tid not in obs:
                self.finished[tid] = self.tracks.pop(tid)
                self.motion.drop(tid)
        # unmatched detections may start new tracks
        for det in detections:
            if det.id not in used_d and self.th.admits_start(det):
                e = _Entry(self._next_id, det)
                e.boxes[frame] = det.box
                self.tracks[self._next_id] = e
                self.motion.add(self._next_id, det.box)
                self._next_id += 1

    def result(self) -> TrackBoxes:
        out: TrackBoxes = {}
        for pool in (self.finished, self.tracks):
            for tid, e in pool.items():
                if e.boxes:
                    out[tid] = dict(e.boxes)
        return out
