"""Span tracing from outside the engine, for the traced benchmark run.

Wrappers replace the public functions at the names the engine looks them
up at call time (module globals and class attributes), so nothing in
``src/`` changes.  Each call records a span (name, start, end, parent
span, frame); the frame, the trace id, counts the steps of the run.
Spans are kept in flat arrays in memory and written out once, at the end
of the run.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children never
overlap and self times add up to the duration of their root span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

import abdtrack.abduction
import abdtrack.anticipation
import abdtrack.domain
import abdtrack.io
import abdtrack.metrics
import abdtrack.tracker
from abdtrack.domain import FluentStore
from abdtrack.motion import MotionFilter
from abdtrack.tracker import AbductionEngine

_now = time.perf_counter_ns


class SpanStore:
    """In-memory spans plus call counters keyed by metric name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.frame = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_frame = -1
        self.steps = 0
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.frame.append(self.current_frame)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "frame": np.frombuffer(self.frame, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time (ns)."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            m = a["name"] == nid
            out[name] = {
                "calls": float(m.sum()),
                "total_ns": float(dur[m].sum()),
                "self_ns": float(self_ns[m].sum()),
            }
        return out


def _span(store: SpanStore, name: str, fn: Callable, hook: Optional[Callable] = None):
    nid = store.name_id(name)

    def wrapped(*args, **kwargs):
        idx = store.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            store.close(idx)
        if hook is not None:
            hook(store.counts, args, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _count_only(store: SpanStore, name: str, fn: Callable):
    def wrapped(*args, **kwargs):
        store.counts[name] += 1
        return fn(*args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _set_frame(store: SpanStore, fn: Callable):
    # The trace id is the step's sequence number in the run: frame numbers
    # restart with every job.
    def step(engine, frame, detections):
        store.current_frame = store.steps
        store.steps += 1
        return fn(engine, frame, detections)

    step.__wrapped__ = fn
    return step


def _count_candidates(counts, args, result):
    per_track, per_det = result
    counts["abduction.candidates"] += sum(map(len, per_track.values())) + sum(
        1 for acts in per_det.values() for a in acts if a.trk is None
    )


def _count_lsap(counts, args, result):
    counts["abduction.lsap_side"] += len(args[0])


def _count_iou_cells(counts, args, result):
    counts["geometry.iou_cells"] += result.size


# (owner, attribute, span name, counter hook); span name None = count only.
TARGETS = [
    (AbductionEngine, "step", "tracker.step", None),
    (abdtrack.tracker, "solve", "abduction.solve", None),
    (abdtrack.tracker, "iou_matrix", "geometry.iou_matrix", _count_iou_cells),
    (abdtrack.tracker, "apply_event", "domain.apply_event", None),
    (abdtrack.abduction, "candidate_actions", "abduction.candidate_actions", _count_candidates),
    (abdtrack.abduction, "link_events", "abduction.link_events", None),
    (abdtrack.abduction, "possible", "domain.possible", None),
    (abdtrack.abduction, "linear_sum_assignment", "abduction.lsap", _count_lsap),
    (abdtrack.domain, "overlapping_top", None, None),
    (MotionFilter, "predict", "motion.predict", None),
    (MotionFilter, "update", "motion.update", None),
    (FluentStore, "copy", "domain.fluent_copy", None),
    (abdtrack.anticipation, "engine_views", "anticipation", None),
    (abdtrack.anticipation, "anticipate_unhide", "anticipation", None),
    (abdtrack.anticipation, "warnings", "anticipation", None),
    (abdtrack.io, "parse_mot", "io.parse", None),
    (abdtrack.io, "write_tracks", "io.write", None),
    (abdtrack.io, "write_events", "io.write", None),
    (abdtrack.io, "write_report", "io.write", None),
    (abdtrack.metrics, "evaluate", "metrics.evaluate", None),
]


def installed() -> list[str]:
    """Names of the traced targets that currently hold a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in TARGETS
        if hasattr(vars(owner)[attr], "__wrapped__")
    ]


@contextmanager
def tracing(store: SpanStore):
    """Install every wrapper for the duration of the block."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, hook in TARGETS:
            fn = vars(owner)[attr]
            if name is None:
                wrapped = _count_only(store, "geometry.overlapping_top_calls", fn)
            else:
                wrapped = _span(store, name, fn, hook)
            if name == "tracker.step":
                wrapped = _set_frame(store, wrapped)
            setattr(owner, attr, wrapped)
        yield store
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
