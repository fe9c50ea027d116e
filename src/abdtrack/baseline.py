"""Abduction-disabled reference tracker: greedy IoU matching only.

Used to quantify what the event abduction buys.  Unmatched tracks die
immediately (no halted state, no resume, no events); unmatched detections
start new tracks under the same start constraints.
"""

from __future__ import annotations

from typing import Sequence

from .abduction import Thresholds
from .domain import Detection
from .geometry import BBox2D, iou
from .metrics import TrackBoxes
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

    def step(self, frame: int, detections: Sequence[Detection]) -> None:
        preds = dict(zip(self.tracks, self.motion.predict(), strict=True))
        pairs = []
        for tid, pbox in preds.items():
            for det in detections:
                if self.tracks[tid].cls != det.cls:
                    continue
                if det.conf <= self.th.conf_thresh_assign:
                    continue
                v = iou(pbox, det.box)
                if v > self.th.iou_thresh:
                    pairs.append((-v, tid, det.id))
        pairs.sort()
        used_t: set[int] = set()
        used_d: set[int] = set()
        dets = {d.id: d for d in detections}
        obs: dict[int, BBox2D] = {}
        for _, tid, did in pairs:
            if tid in used_t or did in used_d:
                continue
            used_t.add(tid)
            used_d.add(did)
            obs[tid] = dets[did].box
            self.tracks[tid].boxes[frame] = dets[did].box
        self.motion.update(obs)
        # unmatched tracks terminate immediately
        for tid in list(self.tracks):
            if tid not in used_t:
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
