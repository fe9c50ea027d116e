"""Scene ontology: detections, tracks, events, the fluent store, and the
event preconditions (:func:`possible`, read from the frame's
:class:`~abdtrack.abduction.ProblemSpec`).

Fluents (per track unless noted): visibility in {fully_visible,
not_visible}, hidden_by (per ordered track pair, boolean) and clipped
(boolean).  Values persist by inertia and change only through
:func:`apply_event`, which also owns each track's fluent lifecycle:
enters_fov starts a track's fluents (fully_visible, not hidden by
anything, not clipped), leaves_fov and lost drop them.  Replaying an
event log through it therefore rebuilds every fluent at every frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, Optional

from ._records import slot_init
from .geometry import BBox2D, overlapping_top

if TYPE_CHECKING:
    from .abduction import ProblemSpec

__all__ = [
    "Detection",
    "TrackState",
    "Provenance",
    "HistoryEntry",
    "Track",
    "Visibility",
    "EventKind",
    "EventOccurrence",
    "FluentStore",
    "EngineBugError",
    "apply_event",
    "possible",
]


class EngineBugError(RuntimeError):
    """An internal consistency violation, e.g. querying an unknown track."""


@slot_init
@dataclass(frozen=True, slots=True)
class Detection:
    """One observed object in a frame: per-frame index, class, confidence
    as an integer percent, and bounding box."""

    id: int
    cls: str
    conf: int
    box: BBox2D

    def _check(self, id: int, cls: str, conf: int, box: BBox2D) -> None:
        if not 0 <= conf <= 100:
            raise ValueError(f"confidence out of range: {conf}")


# Each enum's members are also bound to module globals: on Python 3.10 and
# 3.11 a member lookup (``TrackState.ACTIVE``) goes through
# ``EnumType.__getattr__`` and costs about ten global loads, and the
# per-frame code makes many.
class TrackState(Enum):
    ACTIVE = "active"
    HALTED = "halted"
    ENDED = "ended"


ACTIVE, HALTED, ENDED = TrackState


class Provenance(Enum):
    OBSERVED = "observed"
    INTERPOLATED = "interpolated"


OBSERVED, INTERPOLATED = Provenance


@slot_init
@dataclass(frozen=True, slots=True)
class HistoryEntry:
    frame: int
    box: BBox2D
    provenance: Provenance
    conf: int = 100


@dataclass
class Track:
    """Hypothesized scene object with lifecycle state and motion history.

    Its Kalman state is not held here: while the track is live it is a
    row of the engine's :class:`~abdtrack.motion.MotionFilter` bank."""

    id: int
    cls: str
    state: TrackState
    history: list[HistoryEntry]
    born_frame: int
    halted_since: Optional[int] = None

    def halted_age(self, frame: int) -> int:
        if self.halted_since is None:
            return 0
        return frame - self.halted_since


class Visibility(str, Enum):
    FULLY_VISIBLE = "fully_visible"
    NOT_VISIBLE = "not_visible"


FULLY_VISIBLE, NOT_VISIBLE = Visibility


class EventKind(IntEnum):
    """High-level abducibles.  Integer values fix the deterministic
    preference order used when several events can explain one action."""

    HIDES_BEHIND = 0
    MISSING_DETECTIONS = 1
    UNHIDES_FROM_BEHIND = 2
    RECOVER = 3
    LEAVES_FOV = 4
    LOST = 5
    ENTERS_FOV = 6
    NOISE = 7


(HIDES_BEHIND, MISSING_DETECTIONS, UNHIDES_FROM_BEHIND, RECOVER, LEAVES_FOV, LOST, ENTERS_FOV,
 NOISE) = EventKind


@slot_init
@dataclass(frozen=True, slots=True)
class EventOccurrence:
    """An event instance at a frame.

    subject is a track id, except when subject_is_det is set (noise on an
    ignored detection, or an enters_fov still pending its track id at
    solve time; the tracker rewrites the latter to the allocated id).
    """

    kind: EventKind
    frame: int
    subject: int
    occluder: Optional[int] = None
    subject_is_det: bool = False

    def pretty(self) -> str:
        name = "det" if self.subject_is_det else "trk"
        args = f"{name}_{self.subject}"
        if self.occluder is not None:
            args += f",trk_{self.occluder}"
        return f"{self.kind.name.lower()}({args})"


class FluentStore:
    """Current fluent values for live tracks, with inertia semantics.

    Owned by one engine instance and mutated only between solves;
    snapshots may be shared read-only.
    """

    def __init__(self) -> None:
        self._visibility: dict[int, Visibility] = {}
        self._clipped: dict[int, bool] = {}
        self._hidden_pairs: set[tuple[int, int]] = set()

    # -- lifecycle ---------------------------------------------------

    def register_track(self, tid: int) -> None:
        self._visibility[tid] = FULLY_VISIBLE
        self._clipped[tid] = False

    def drop_track(self, tid: int) -> None:
        self._visibility.pop(tid, None)
        self._clipped.pop(tid, None)
        self._hidden_pairs = {p for p in self._hidden_pairs if tid not in p}

    def tracks(self) -> set[int]:
        return set(self._visibility)

    def copy(self) -> "FluentStore":
        out = FluentStore()
        out._visibility = dict(self._visibility)
        out._clipped = dict(self._clipped)
        out._hidden_pairs = set(self._hidden_pairs)
        return out

    # -- queries -----------------------------------------------------

    def _check(self, tid: int) -> None:
        if tid not in self._visibility:
            raise EngineBugError(f"fluent query for unknown track {tid}")

    def visibility(self, tid: int) -> Visibility:
        self._check(tid)
        return self._visibility[tid]

    def clipped(self, tid: int) -> bool:
        self._check(tid)
        return self._clipped[tid]

    def hidden_by(self, t1: int, t2: int) -> bool:
        self._check(t1)
        self._check(t2)
        return (t1, t2) in self._hidden_pairs

    def hidden_pairs(self) -> set[tuple[int, int]]:
        return set(self._hidden_pairs)

    def occluder_of(self, tid: int) -> list[int]:
        """Tracks t2 with hidden_by(tid, t2) = true, ascending."""
        return sorted(t2 for (t1, t2) in self._hidden_pairs if t1 == tid)


def apply_event(store: FluentStore, e: EventOccurrence) -> FluentStore:
    """Apply one event's effects atomically; mutates and returns store.

    hides_behind: visibility(T1)=not_visible, hidden_by(T1,T2)=true.
    unhides_from_behind: visibility(T1)=fully_visible, hidden_by=false.
    missing_detections: clipped=true.       recover: clipped=false.
    enters_fov(T): T's fluents start at their birth values.
    leaves_fov(T), lost(T): T's fluents, and every hidden_by pair that
    names T, are dropped.  A track still hidden behind an ending T is
    left not_visible with no occluder: a known defect.
    noise, and any event on a detection: no effects.
    """
    k = e.kind
    if e.subject_is_det:
        return store
    if k == HIDES_BEHIND:
        store._visibility[e.subject] = NOT_VISIBLE
        store._hidden_pairs.add((e.subject, e.occluder))
    elif k == UNHIDES_FROM_BEHIND:
        store._visibility[e.subject] = FULLY_VISIBLE
        store._hidden_pairs.discard((e.subject, e.occluder))
    elif k == MISSING_DETECTIONS:
        store._clipped[e.subject] = True
    elif k == RECOVER:
        store._clipped[e.subject] = False
    elif k == ENTERS_FOV:
        store.register_track(e.subject)
    elif k == LEAVES_FOV or k == LOST:
        store.drop_track(e.subject)
    return store


def touched_fluents(e: EventOccurrence) -> frozenset[tuple]:
    """Fluent instances an event writes; used to assert per-frame
    event sets touch pairwise-disjoint instances.

    Lifecycle effects are left out: enters_fov starts the fluents of a
    fresh id, and the tracker applies leaves_fov and lost after the
    frame's other events."""
    k = e.kind
    if k == HIDES_BEHIND or k == UNHIDES_FROM_BEHIND:
        return frozenset(
            {("visibility", e.subject), ("hidden_by", e.subject, e.occluder)}
        )
    if k == MISSING_DETECTIONS or k == RECOVER:
        return frozenset({("clipped", e.subject)})
    return frozenset()


def possible(spec: ProblemSpec, e: EventOccurrence) -> bool:
    """Event precondition check against the frame's problem spec: its
    pre-solve fluent snapshot, predicted boxes, halted ages, frame
    geometry and thresholds.

    hides_behind(T1,T2): predicted boxes overlap with T2's bottom edge at
    or below T1's, and neither track is already not_visible.
    unhides_from_behind(T1,T2): T1 not_visible, T2 not not_visible.
    missing_detections(T): not clipped and not not_visible.
    recover(T): clipped.
    leaves_fov(T): predicted box touches the frame boundary margin.
    enters_fov(D): detection D's box intersects the frame.
    lost(T): the track has been halted longer than max_halted_age.
    noise: always possible.
    """
    store, k = spec.fluents, e.kind
    if k == HIDES_BEHIND:
        t1, t2 = e.subject, e.occluder
        if t1 == t2:
            return False
        if store.visibility(t1) == NOT_VISIBLE:
            return False
        if store.visibility(t2) == NOT_VISIBLE:
            return False
        return overlapping_top(spec.predictions[t1].box, spec.predictions[t2].box)
    if k == UNHIDES_FROM_BEHIND:
        return (
            store.visibility(e.subject) == NOT_VISIBLE
            and store.visibility(e.occluder) != NOT_VISIBLE
        )
    if k == MISSING_DETECTIONS:
        return (
            not store.clipped(e.subject)
            and store.visibility(e.subject) != NOT_VISIBLE
        )
    if k == RECOVER:
        return store.clipped(e.subject)
    if k == LEAVES_FOV:
        (w, h), m = spec.frame_geom, spec.config.fov_margin
        box = spec.predictions[e.subject].box
        return box.x < m or box.y < m or box.x2 > w - m or box.y2 > h - m
    if k == ENTERS_FOV:
        w, h = spec.frame_geom
        box = spec.detection_boxes[e.subject]
        return box.x2 > 0 and box.y2 > 0 and box.x < w and box.y < h
    if k == LOST:
        return spec.predictions[e.subject].halted_age > spec.config.max_halted_age
    if k == NOISE:
        return True
    raise EngineBugError(f"unknown event kind {k}")
