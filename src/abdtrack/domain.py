"""Scene ontology: detections, tracks, actions, events, the fluent store,
and the event table :data:`EVENTS`, which holds each event kind's
precondition, its effects and the actions it explains.

Fluents (per track unless noted): visibility in {fully_visible,
not_visible}, hidden_by (per ordered track pair, boolean) and clipped
(boolean).  Values persist by inertia and change only through the
effects :func:`apply_event` applies, which also own each track's fluent
lifecycle, so replaying an event log rebuilds every fluent at every frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ._records import record
from .geometry import BBox2D, overlapping_top

if TYPE_CHECKING:
    from .abduction import ProblemSpec

__all__ = [
    "Detection",
    "check_frame",
    "TrackState",
    "Provenance",
    "HistoryEntry",
    "Track",
    "Visibility",
    "ActionKind",
    "EventKind",
    "EventOccurrence",
    "FluentStore",
    "EngineBugError",
    "EventRule",
    "EVENTS",
    "apply_event",
    "possible",
]


class EngineBugError(RuntimeError):
    """An internal consistency violation, e.g. querying an unknown track."""


@record
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


def check_frame(frame: int, last_frame: Optional[int], detections: Sequence[Detection]) -> None:
    """What a tracker asks of each frame it steps: a frame after
    ``last_frame`` (None before the first) and detections with distinct
    ids; raises ValueError otherwise."""
    if last_frame is not None and frame <= last_frame:
        raise ValueError(f"frames must be strictly increasing: got {frame} after {last_frame}")
    ids = [d.id for d in detections]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"frame {frame}: duplicate detection ids {dup}")


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


@record
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


class ActionKind(Enum):
    ASSIGN = "assign"
    START = "start"
    END = "end"
    HALT = "halt"
    RESUME = "resume"
    IGNORE_TRK = "ignore_trk"
    IGNORE_DET = "ignore_det"

    # Enum's __hash__ runs in Python and the solver keys dicts by kind.  An
    # identity hash varies between runs: never iterate a set of kinds.
    __hash__ = object.__hash__


ASSIGN, START, END, HALT, RESUME, IGNORE_TRK, IGNORE_DET = ActionKind


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


@record
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


TRACK = "track"  # the lifecycle pseudo-fluent: True while a track's fluents exist


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
            raise EngineBugError(f"fluent query or write for unknown track {tid}")

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

    # -- writes ------------------------------------------------------

    def write(self, fluent: str, value: object, tid: int, occluder: Optional[int] = None) -> None:
        """Set ``fluent`` of track ``tid``, or hidden_by of the pair (tid,
        occluder), to ``value``; ``TRACK`` starts or drops tid's fluents.
        Raises EngineBugError, before writing any other fluent, unless the
        store holds tid and any occluder."""
        if fluent == TRACK:
            (self.register_track if value else self.drop_track)(tid)
            return
        self._check(tid)
        if occluder is not None:
            self._check(occluder)
        if fluent == "hidden_by":
            (self._hidden_pairs.add if value else self._hidden_pairs.discard)((tid, occluder))
        else:
            (self._visibility if fluent == "visibility" else self._clipped)[tid] = value


# ----------------------------------------------------------------------
# The event table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EventRule:
    """One event kind: the action kinds it ``explains``, its precondition
    ``pre`` and its ``effects``, ``(fluent, value)`` pairs on its subject
    (``hidden_by`` on the pair (subject, occluder)), where ``(TRACK,
    True)`` starts the subject's fluents at their birth values and
    ``(TRACK, False)`` drops them and every hidden_by pair naming it.  An
    event is tried with each of the ``occluders`` it gives a subject: for
    an event on a pair of tracks, in ascending id, a superset of those
    ``pre`` can accept; for any other, None alone."""

    explains: tuple[ActionKind, ...]
    pre: Callable[[ProblemSpec, EventOccurrence], bool]
    effects: tuple[tuple[str, object], ...]
    occluders: Callable[[ProblemSpec, int], Sequence[Optional[int]]] = lambda spec, t: (None,)


def _may_hide_behind(spec: ProblemSpec, t: int) -> list[int]:
    """The other tracks whose predicted box's sides intersect t's, by
    :func:`~abdtrack.geometry.iou`'s min, max and subtract, and whose
    bottom edge is at or below t's: a superset of those
    ``overlapping_top`` accepts, as it tests neither the intersection
    area, which can underflow, nor the union, which can overflow."""
    a = spec.predictions[t].box
    ax, ay, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
    kept = []
    for t2, p in spec.predictions.items():
        b = p.box
        by2 = b.y + b.h
        if by2 >= ay2 and t2 != t:
            bx, by, bx2 = b.x, b.y, b.x + b.w
            if (ax2 if ax2 < bx2 else bx2) - (ax if ax > bx else bx) > 0 and (
                (ay2 if ay2 < by2 else by2) - (ay if ay > by else by) > 0
            ):
                kept.append(t2)
    return sorted(kept)


def _in_margin(spec: ProblemSpec, e: EventOccurrence) -> bool:
    (w, h), m = spec.frame_geom, spec.config.fov_margin
    box = spec.predictions[e.subject].box
    return box.x < m or box.y < m or box.x2 > w - m or box.y2 > h - m


def _in_frame(spec: ProblemSpec, e: EventOccurrence) -> bool:
    w, h = spec.frame_geom
    box = spec.detections_by_id[e.subject].box
    return box.x2 > 0 and box.y2 > 0 and box.x < w and box.y < h


# One entry per kind, in EventKind order, the preference order.  Each
# precondition reads the frame's problem spec: its pre-solve fluent
# snapshot, predicted boxes, halted ages, frame geometry and thresholds.
EVENTS: dict[EventKind, EventRule] = {
    HIDES_BEHIND: EventRule(
        (HALT,),
        lambda spec, e: (
            e.subject != e.occluder
            and spec.fluents.visibility(e.subject) != NOT_VISIBLE
            and spec.fluents.visibility(e.occluder) != NOT_VISIBLE
            and overlapping_top(
                spec.predictions[e.subject].box, spec.predictions[e.occluder].box
            )
        ),
        (("visibility", NOT_VISIBLE), ("hidden_by", True)),
        _may_hide_behind,
    ),
    MISSING_DETECTIONS: EventRule(
        (HALT,),
        lambda spec, e: (
            not spec.fluents.clipped(e.subject)
            and spec.fluents.visibility(e.subject) != NOT_VISIBLE
        ),
        (("clipped", True),),
    ),
    UNHIDES_FROM_BEHIND: EventRule(
        (RESUME,),
        lambda spec, e: (
            spec.fluents.visibility(e.subject) == NOT_VISIBLE
            and spec.fluents.visibility(e.occluder) != NOT_VISIBLE
        ),
        (("visibility", FULLY_VISIBLE), ("hidden_by", False)),
        lambda spec, t: [t2 for t2 in spec.fluents.occluder_of(t) if t2 in spec.predictions],
    ),
    RECOVER: EventRule(
        (RESUME,), lambda spec, e: spec.fluents.clipped(e.subject), (("clipped", False),)
    ),
    # A track still hidden behind the ending T is left not_visible with no
    # occluder, here and for lost: a known defect.
    LEAVES_FOV: EventRule((END,), _in_margin, ((TRACK, False),)),
    LOST: EventRule(
        (END,),
        lambda spec, e: spec.predictions[e.subject].halted_age > spec.config.max_halted_age,
        ((TRACK, False),),
    ),
    ENTERS_FOV: EventRule((START,), _in_frame, ((TRACK, True),)),
    NOISE: EventRule((IGNORE_TRK, IGNORE_DET), lambda spec, e: True, ()),
}


def apply_event(store: FluentStore, e: EventOccurrence) -> FluentStore:
    """Apply the effects of ``e``'s kind in :data:`EVENTS` atomically;
    mutates and returns store.  An event on a detection has none.
    Raises EngineBugError, writing nothing, if an effect other than a
    lifecycle one names a track the store does not hold."""
    if not e.subject_is_det:
        for fluent, value in EVENTS[e.kind].effects:
            store.write(fluent, value, e.subject, e.occluder)
    return store


def touched_fluents(e: EventOccurrence) -> frozenset[tuple]:
    """Fluent instances an event writes, read off its kind's effects;
    used to assert per-frame event sets touch pairwise-disjoint instances.

    Lifecycle effects are left out: enters_fov starts the fluents of a
    fresh id, and the tracker applies the events that drop a track after
    the frame's other events."""
    return frozenset([
        (fluent, e.subject, e.occluder) if fluent == "hidden_by" else (fluent, e.subject)
        for fluent, _ in EVENTS[e.kind].effects
        if fluent != TRACK
    ])


def possible(spec: ProblemSpec, e: EventOccurrence) -> bool:
    """Whether ``e`` may occur: its kind's precondition in :data:`EVENTS`,
    judged against the frame's problem spec."""
    return EVENTS[e.kind].pre(spec, e)
