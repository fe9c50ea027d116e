"""An event-log checker that does not trust the engine's event table.

It holds its own copy of every event rule, written from the rules as the
paper and README state them: the actions each event kind explains, the
occluders it ranges over, and each precondition conjunct, by name, as a
predicate of its own over the frame's problem spec, the event's subject
T and its occluder O.  Nothing of it comes from ``abdtrack.domain``'s
table but the names it compares against its own.

Each frame of a stream is stepped, and the cover ``step()`` returns is
checked against the spec the engine solved, ``engine.last_spec``:

- each action but ``assign`` carries one event, on the action's own
  track or detection, of a kind that explains it; an ``assign`` carries
  none;
- each event's occluder is one its rule ranges over;
- each event's conjuncts hold on the spec.

The log replay of ``test_tracker.TestEventReplay`` checks that the events
rebuild the fluents; this checks that every logged event was possible.
"""

from __future__ import annotations

import functools
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from abdtrack import AbductionEngine, BBox2D, Detection, EngineConfig
from abdtrack.domain import EVENTS, ActionKind, EventKind
from test_tracker import RELATION_CASES, case_input

# bench50 and the relation cases log every event kind but lost: "lost"
# adds it.
CHECKED_CASES = ["bench50", *RELATION_CASES, "lost"]


def lost_stream():
    """A car seen for five frames and never again, beside a parked one:
    it halts at frame 5 and is lost when its halted age first exceeds
    ``max_halted_age``, at frame 36."""
    parked = Detection(0, "car", 90, BBox2D(600, 200, 40, 40))
    gone = Detection(1, "car", 90, BBox2D(300, 150, 40, 60))
    return EngineConfig(), [(f, [parked, gone] if f < 5 else [parked]) for f in range(40)]


def _visible(spec, t):
    return spec.fluents.visibility(t) != "not_visible"


def _overlapping_top(spec, t, o):
    # The boxes share area, and O's bottom edge is at or below T's: the
    # ground-plane proxy for O standing nearer the camera.
    a, b = spec.predictions[t].box, spec.predictions[o].box
    overlap_w = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    overlap_h = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    return overlap_w > 0 and overlap_h > 0 and b.y + b.h >= a.y + a.h


def _in_margin(spec, t, o):
    (w, h), m = spec.frame_geom, spec.config.fov_margin
    b = spec.predictions[t].box
    return b.x < m or b.y < m or b.x + b.w > w - m or b.y + b.h > h - m


def _in_frame(spec, d, o):
    w, h = spec.frame_geom
    b = next(det.box for det in spec.detections if det.id == d)
    return b.x + b.w > 0 and b.y + b.h > 0 and b.x < w and b.y < h


CONJUNCTS = {
    "distinct": lambda spec, t, o: t != o,
    "subject_visible": lambda spec, t, o: _visible(spec, t),
    "occluder_visible": lambda spec, t, o: _visible(spec, o),
    "overlapping_top": _overlapping_top,
    "subject_unclipped": lambda spec, t, o: not spec.fluents.clipped(t),
    "subject_hidden": lambda spec, t, o: not _visible(spec, t),
    "subject_clipped": lambda spec, t, o: spec.fluents.clipped(t),
    "in_margin": _in_margin,
    "overdue": lambda spec, t, o: spec.predictions[t].halted_age > spec.config.max_halted_age,
    "in_frame": _in_frame,
}

# kind -> (the actions it explains, its conjuncts in order, whether O is a track)
RULES = {
    EventKind.HIDES_BEHIND: (
        ("halt",), ("distinct", "subject_visible", "occluder_visible", "overlapping_top"), True
    ),
    EventKind.MISSING_DETECTIONS: (("halt",), ("subject_unclipped", "subject_visible"), False),
    EventKind.UNHIDES_FROM_BEHIND: (("resume",), ("subject_hidden", "occluder_visible"), True),
    EventKind.RECOVER: (("resume",), ("subject_clipped",), False),
    EventKind.LEAVES_FOV: (("end",), ("in_margin",), False),
    EventKind.LOST: (("end",), ("overdue",), False),
    EventKind.ENTERS_FOV: (("start",), ("in_frame",), False),
    EventKind.NOISE: (("ignore_trk", "ignore_det"), (), False),
}

ON_DETECTION = ("start", "ignore_det")


def in_range(spec, kind, t, o) -> bool:
    """Whether O is an occluder that kind's rule ranges over: any other
    live track for hides_behind, a live track T is hidden behind for
    unhides_from_behind, and None for an event on one subject."""
    if not RULES[kind][2]:
        return o is None
    if o not in spec.predictions:
        return False
    return kind is not EventKind.UNHIDES_FROM_BEHIND or spec.fluents.hidden_by(t, o)


def frame_faults(spec, result) -> list[str]:
    """What is wrong with one frame's cover, as readable lines; none for
    an admissible one."""
    faults = []
    for action in result.actions:
        kind, e = action.kind.value, action.event
        if kind == "assign":
            if e is not None:
                faults.append(f"{action.pretty()} carries {e.pretty()}")
            continue
        if e is None:
            faults.append(f"{action.pretty()} has no event")
            continue
        explains, conjuncts, _ = RULES[e.kind]
        on_det = kind in ON_DETECTION
        subject = action.det if on_det else action.trk
        if kind not in explains:
            faults.append(f"{e.pretty()} does not explain {action.pretty()}")
        if (e.subject, e.subject_is_det) != (subject, on_det):
            faults.append(f"{e.pretty()} is not on the subject of {action.pretty()}")
        elif not in_range(spec, e.kind, e.subject, e.occluder):
            faults.append(f"{e.pretty()}: occluder out of the rule's range")
        elif e.kind is not EventKind.NOISE:
            failed = [n for n in conjuncts if not CONJUNCTS[n](spec, e.subject, e.occluder)]
            if failed:
                faults.append(f"{e.pretty()}: {', '.join(failed)} false")
    events = tuple(a.event for a in result.actions if a.event is not None)
    if result.events != events:
        faults.append("the result's events are not its actions' events")
    return faults


@functools.cache
def checked_kinds(name: str) -> Counter:
    """Step case ``name`` frame by frame and check every frame's cover;
    returns the event kinds checked, counted."""
    if name == "lost":
        config, frames = lost_stream()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            config, frames = case_input(name, Path(tmp))
    eng = AbductionEngine(config)
    kinds: Counter = Counter()
    for frame, dets in frames:
        steps = len(eng.latencies)
        result = eng.step(frame, dets)
        # a frame the stream skips is stepped inside step() and not seen here
        assert len(eng.latencies) == steps + 1, f"{name}: frames skipped before {frame}"
        spec = eng.last_spec
        assert spec.frame == frame
        assert frame_faults(spec, result) == [], f"{name}, frame {frame}"
        kinds.update(a.event.kind for a in result.actions if a.event is not None)
    return kinds


def test_rules_are_the_engines():
    # The checker's names and order are its own; the engine's must agree.
    assert list(EVENTS) == list(RULES)
    for kind, (explains, conjuncts, _) in RULES.items():
        assert [a.value for a in EVENTS[kind].explains] == list(explains), kind
        assert EVENTS[kind].pre == conjuncts, kind
    assert {n for _, conjuncts, _ in RULES.values() for n in conjuncts} == set(CONJUNCTS)
    assert {a for explains, _, _ in RULES.values() for a in explains} | {"assign"} == {
        a.value for a in ActionKind
    }


@pytest.mark.parametrize("name", CHECKED_CASES)
def test_every_logged_event_is_possible(name):
    assert checked_kinds(name)


def test_the_cases_log_every_kind():
    # Each rule is checked somewhere: the streams log every event kind.
    seen = sum((checked_kinds(name) for name in CHECKED_CASES), Counter())
    assert set(seen) == set(EventKind), set(EventKind) - set(seen)
