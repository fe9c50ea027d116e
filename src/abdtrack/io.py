"""Detection-stream ingestion and result serialization.

Supported inputs: the MOT Challenge CSV format
(``frame,id,x,y,w,h,conf,...``, id = -1 for raw detections) and the KITTI
tracking label format (space separated, type plus left/top/right/bottom
corners).  Confidences at or below 1.0 are read as fractions and mapped to
integer percent by round(100*c); larger values are taken as percent
directly; everything is clamped to [0, 100].  Each box is validated by
:class:`~abdtrack.geometry.BBox2D`; a bad number or box fails with its
line number.

Outputs: MOT result lines, the engine's event log in
``occurs_at(EVENT,FRAME)`` form, and a structured JSON report carrying
provenance and the event log.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .domain import Detection, EventOccurrence
from .geometry import BBox2D
from .metrics import TrackBoxes
from .tracker import Explanation

__all__ = [
    "DetectionStream",
    "parse_mot",
    "parse_kitti",
    "parse_mot_tracks",
    "write_events",
    "write_tracks",
    "write_report",
    "explanation_to_boxes",
    "format_event",
]


@dataclass
class DetectionStream:
    """Ordered frames of detections; frame indices strictly increasing."""

    frames: list[tuple[int, list[Detection]]]


def _conf_percent(raw: float) -> int:
    """Integer percent of a confidence; ``round`` rejects nan and inf."""
    pct = round(100.0 * raw) if raw <= 1.0 else round(raw)
    return int(min(100, max(0, pct)))


def _rows(text: str, sep: str | None, min_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number from 1, fields) of each non-blank line; a line with
    fewer than min_fields fields raises with its number."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) < min_fields:
            raise ValueError(f"line {lineno}: expected at least {min_fields} fields, got {len(parts)}")
        yield lineno, parts


def parse_mot(text: str) -> DetectionStream:
    """Parse MOT Challenge detection text; every detection has class
    ``object``.  Lines out of frame order are tolerated (sorted);
    malformed lines raise with their line number."""
    by_frame: dict[int, list[Detection]] = {}
    for lineno, parts in _rows(text, ",", 7):
        try:
            frame = int(float(parts[0]))
            box = BBox2D(*(float(v) for v in parts[2:6]))
            conf = _conf_percent(float(parts[6]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        dets = by_frame.setdefault(frame, [])
        dets.append(Detection(id=len(dets), cls="object", conf=conf, box=box))
    return DetectionStream([(f, by_frame[f]) for f in sorted(by_frame)])


def parse_kitti(text: str, class_filter: set[str] | None = None) -> DetectionStream:
    """Parse KITTI tracking label text; right/bottom corners are converted
    to widths/heights.  class_filter keeps only the named types
    (lower-cased); 'DontCare' rows are always skipped."""
    by_frame: dict[int, list[Detection]] = {}
    for lineno, parts in _rows(text, None, 10):
        try:
            frame = int(float(parts[0]))
            cls = parts[2].lower()
            x1, y1, x2, y2 = (float(v) for v in parts[6:10])
            conf = float(parts[17]) if len(parts) > 17 else 100.0
            if cls == "dontcare" or (class_filter is not None and cls not in class_filter):
                continue
            box = BBox2D(x1, y1, x2 - x1, y2 - y1)
            pct = _conf_percent(conf)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        dets = by_frame.setdefault(frame, [])
        dets.append(Detection(id=len(dets), cls=cls, conf=pct, box=box))
    return DetectionStream([(f, by_frame[f]) for f in sorted(by_frame)])


def parse_mot_tracks(text: str) -> TrackBoxes:
    """Parse a MOT ground-truth or result file into track id -> frame -> box."""
    out: TrackBoxes = {}
    for lineno, parts in _rows(text, ",", 6):
        try:
            frame = int(float(parts[0]))
            tid = int(float(parts[1]))
            box = BBox2D(*(float(v) for v in parts[2:6]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        out.setdefault(tid, {})[frame] = box
    return out


def format_event(e: EventOccurrence) -> str:
    return f"occurs_at({e.pretty()},{e.frame})"


def write_events(exp: Explanation) -> str:
    """One occurs_at(EVENT,FRAME) line per event, chronological."""
    return "".join(format_event(e) + "\n" for e in exp.events)


def write_tracks(exp: Explanation) -> str:
    """MOT result lines (frame,id,x,y,w,h,conf,-1,-1,-1).

    Box coordinates use full-precision reprs so observed entries
    round-trip exactly through parse; interpolated entries carry conf 0.
    """
    lines = []
    entries = []
    for trk in exp.tracks:
        for h in trk.history:
            entries.append((h.frame, trk.id, h))
    entries.sort(key=lambda t: (t[0], t[1]))
    for frame, tid, h in entries:
        conf = h.conf / 100.0
        lines.append(
            f"{frame},{tid},{h.box.x!r},{h.box.y!r},{h.box.w!r},{h.box.h!r},{conf!r},-1,-1,-1"
        )
    return "".join(line + "\n" for line in lines)


def explanation_to_boxes(exp: Explanation) -> TrackBoxes:
    return {
        trk.id: {h.frame: h.box for h in trk.history}
        for trk in exp.tracks
        if trk.history
    }


def write_report(exp: Explanation) -> str:
    """Structured JSON: tracks with per-entry provenance plus the event log."""
    doc = {
        "tracks": [
            {
                "id": trk.id,
                "class": trk.cls,
                "born_frame": trk.born_frame,
                "history": [
                    {
                        "frame": h.frame,
                        "box": [h.box.x, h.box.y, h.box.w, h.box.h],
                        "provenance": h.provenance.value,
                        "conf": h.conf,
                    }
                    for h in trk.history
                ],
            }
            for trk in exp.tracks
        ],
        "events": [
            {
                "kind": e.kind.name.lower(),
                "frame": e.frame,
                "subject": ("det_" if e.subject_is_det else "trk_") + str(e.subject),
                "occluder": None if e.occluder is None else f"trk_{e.occluder}",
            }
            for e in exp.events
        ],
    }
    return json.dumps(doc, indent=2)
