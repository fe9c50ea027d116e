"""Forward simulation over abduced state: when and where does a hidden
track leave its occluder, and should the ego vehicle be warned.

Both the hidden track and its occluder are dead-reckoned with their
estimated velocities; with a static occluder this reduces to the plain
moving-out rule.  Positions are anchored at the box corner (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Mapping

from .geometry import BBox2D, in_front_region, proper_part

__all__ = [
    "TrackView",
    "Anticipation",
    "interpolated_position",
    "anticipate_unhide",
    "warnings",
    "engine_views",
    "format_anticipation",
    "format_warning",
]


@dataclass(frozen=True)
class TrackView:
    """Minimal per-track state the queries need: current (dead-reckoned)
    box and estimated velocity in px/frame."""

    box: BBox2D
    velocity: tuple[float, float]


@dataclass(frozen=True)
class Anticipation:
    track: int
    occluder: int
    frame: int
    position: tuple[float, float]


def interpolated_position(view: TrackView, current_frame: int, frame: int) -> tuple[float, float]:
    """Linear position estimate: corner + velocity * (frame - current)."""
    if frame <= current_frame:
        raise ValueError("interpolation frame must lie in the future")
    dt = frame - current_frame
    vx, vy = view.velocity
    return (view.box.x + vx * dt, view.box.y + vy * dt)


def anticipate_unhide(
    views: Mapping[int, TrackView],
    hidden_pairs: set[tuple[int, int]],
    current_frame: int,
    horizon: int,
) -> list[Anticipation]:
    """Earliest future frame within the horizon at which each hidden
    track's dead-reckoned box stops being a proper part of its occluder's
    dead-reckoned box; omitted when it never does.

    Each step's boxes are not built: their corners and far edges are
    computed with the float operations of :meth:`BBox2D.translated` and
    :func:`proper_part`, and a box is built only to raise its own
    ``ValueError`` when a corner is not finite."""
    if not hidden_pairs:
        return []
    out: list[Anticipation] = []
    for t1, t2 in sorted(hidden_pairs):
        if t1 not in views or t2 not in views:
            continue
        hidden, occluder = views[t1], views[t2]
        a, b = hidden.box, occluder.box
        if not proper_part(a, b):
            continue
        (avx, avy), (bvx, bvy) = hidden.velocity, occluder.velocity
        for k in range(1, horizon + 1):
            ax, ay = a.x + avx * k, a.y + avy * k
            bx, by = b.x + bvx * k, b.y + bvy * k
            if not (isfinite(ax) and isfinite(ay) and isfinite(bx) and isfinite(by)):
                a.translated(avx * k, avy * k)
                b.translated(bvx * k, bvy * k)
            if not (bx < ax and by < ay and ax + a.w < bx + b.w and ay + a.h < by + b.h):
                # (ax, ay) is interpolated_position at frame current_frame + k
                out.append(Anticipation(t1, t2, current_frame + k, (ax, ay)))
                break
    return out


def warnings(
    anticipations: list[Anticipation],
    current_frame: int,
    frame_geom: tuple[float, float],
    anticipation_threshold: int,
) -> list[Anticipation]:
    """The anticipations that warrant a warning, in order: those both
    imminent (within the anticipation threshold) and in the ego corridor."""
    return [
        a
        for a in anticipations
        if a.frame - current_frame < anticipation_threshold
        and in_front_region(a.position, frame_geom)
    ]


def engine_views(engine) -> tuple[dict[int, TrackView], set[tuple[int, int]]]:
    """The hidden pairs currently in force, plus a TrackView of each track
    in them, seen at its prediction in the last frame's spec (a pair links
    only tracks of that spec)."""
    hidden = engine.fluents.hidden_pairs()
    views: dict[int, TrackView] = {}
    if not hidden:
        return views, hidden
    for tid in {t for pair in hidden for t in pair}:
        box = engine.last_spec.predictions[tid].box
        views[tid] = TrackView(box=box, velocity=engine.motion.velocity(tid))
    return views, hidden


def format_anticipation(a: Anticipation) -> str:
    return f"anticipate(unhides_from_behind(trk_{a.track}, trk_{a.occluder}), {a.frame})"


def format_position(a: Anticipation) -> str:
    x, y = int(round(a.position[0])), int(round(a.position[1]))
    return f"point2d(interpolated_position(trk_{a.track}, {a.frame}), {x}, {y})"


def format_warning(a: Anticipation) -> str:
    """The warning line of an anticipation that :func:`warnings` returned."""
    return f"warning(hidden_entity_in_front(trk_{a.track}, {a.frame}))"
