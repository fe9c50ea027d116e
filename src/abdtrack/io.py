"""Detection-stream ingestion and result serialization.

Supported inputs: the MOT Challenge CSV format
(``frame,id,x,y,w,h,conf,...``, id = -1 for raw detections) and the KITTI
tracking label format (space separated, type plus left/top/right/bottom
corners).  Confidences at or below 1.0 are read as fractions and mapped to
integer percent by round(100*c); larger values are taken as percent
directly; everything is clamped to [0, 100].  Each box is validated by
:class:`~abdtrack.geometry.BBox2D`, and frame numbers and track ids must
be integral (``7`` or ``7.0``); a bad number or box fails with its line
number.

Outputs: MOT result lines, the engine's event log in ``occurs_at(EVENT,FRAME)``
form, and a JSON report of provenance and the event log that is byte for
byte ``json.dumps(doc, indent=2)`` of its fixed schema, from templates.
The track and report writers write each box coordinate as ``json`` does,
from text rendered once per explanation.

Each writer builds its text with one join over a list of pieces: the
report's tracks and events go straight into the document's list, and the
track file's lines are grouped by frame as the tracks are walked in id
order, so no sort key is built per line.  A long stream's write phase
sets its peak memory, and every further join or ``%`` of the whole text
would hold one more copy of it.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .domain import Detection, EventOccurrence, Provenance
from .geometry import BBox2D, TrackBoxes
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
    """Integer percent of a confidence; ``round`` rejects nan and inf,
    and returns an int."""
    pct = round(100.0 * raw) if raw <= 1.0 else round(raw)
    return 0 if pct < 0 else 100 if pct > 100 else pct


def _integer(field: str, name: str) -> int:
    """The value of an integral number field; a fractional or non-finite
    one raises rather than being truncated."""
    v = float(field)
    if not v.is_integer():
        raise ValueError(f"{name} is not an integer: {field!r}")
    return int(v)


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
    # A row's frame field is read only when it differs from the last row's,
    # since a file lists each frame's rows together.
    last_frame = dets = None
    for lineno, parts in _rows(text, ",", 7):
        try:
            if parts[0] != last_frame:
                dets = by_frame.setdefault(_integer(parts[0], "frame"), [])
                last_frame = parts[0]
            box = BBox2D(float(parts[2]), float(parts[3]), float(parts[4]), float(parts[5]))
            conf = _conf_percent(float(parts[6]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        dets.append(Detection(len(dets), "object", conf, box))
    return DetectionStream([(f, by_frame[f]) for f in sorted(by_frame)])


def parse_kitti(text: str, class_filter: set[str] | None = None) -> DetectionStream:
    """Parse KITTI tracking label text; right/bottom corners are converted
    to widths/heights.  class_filter keeps only the named types, compared
    lower-cased with surrounding spaces stripped (``Car`` keeps KITTI's
    ``Car`` rows); 'DontCare' rows are always skipped."""
    if class_filter is not None:
        class_filter = {c.strip().lower() for c in class_filter}
    by_frame: dict[int, list[Detection]] = {}
    for lineno, parts in _rows(text, None, 10):
        try:
            frame = _integer(parts[0], "frame")
            cls = parts[2].lower()
            x1, y1, x2, y2 = map(float, parts[6:10])
            conf = float(parts[17]) if len(parts) > 17 else 100.0
            if cls == "dontcare" or (class_filter is not None and cls not in class_filter):
                continue
            box = BBox2D(x1, y1, x2 - x1, y2 - y1)
            pct = _conf_percent(conf)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        dets = by_frame.setdefault(frame, [])
        dets.append(Detection(len(dets), cls, pct, box))
    return DetectionStream([(f, by_frame[f]) for f in sorted(by_frame)])


def parse_mot_tracks(text: str) -> TrackBoxes:
    """Parse a MOT ground-truth or result file into track id -> frame ->
    box; a second row for a (track, frame) pair raises with its line
    number."""
    out: TrackBoxes = {}
    for lineno, parts in _rows(text, ",", 6):
        try:
            frame = _integer(parts[0], "frame")
            tid = _integer(parts[1], "track id")
            box = BBox2D(*map(float, parts[2:6]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        boxes = out.setdefault(tid, {})
        if frame in boxes:
            raise ValueError(f"line {lineno}: track {tid} already has a box in frame {frame}")
        boxes[frame] = box
    return out


def format_event(e: EventOccurrence) -> str:
    return f"occurs_at({e.pretty()},{e.frame})"


def write_events(exp: Explanation) -> str:
    """One occurs_at(EVENT,FRAME) line per event, chronological."""
    return "".join(format_event(e) + "\n" for e in exp.events)


def _number(v: float) -> str:
    """A box coordinate as ``json`` writes it: a float (a numpy float64
    too) by ``float.__repr__``, an int by ``int.__repr__``.  Any other real,
    such as a numpy int64 or float32, which ``json`` cannot write, as the
    float it converts to."""
    if isinstance(v, float):
        return float.__repr__(v)
    return int.__repr__(v) if isinstance(v, int) else float.__repr__(float(v))


def _coordinates(b: BBox2D) -> str:
    """``"x,y,w,h"``, each coordinate as ``json`` writes it."""
    x, y, w, h = b.x, b.y, b.w, b.h
    if type(x) is type(y) is type(w) is type(h) is float:
        return "%r,%r,%r,%r" % (x, y, w, h)
    return ",".join([_number(x), _number(y), _number(w), _number(h)])


def _box_text(exp: Explanation) -> list[list[str]]:
    """Each track's history's boxes as :func:`_coordinates` text, one list
    per track in history order, rendered by the first writer that asks and
    cached on ``exp`` for the other.  The writers pair the cache with the
    tracks strictly, so a track or entry added or removed after the first
    writer ran raises ``ValueError`` rather than being dropped."""
    if exp.box_text is None:
        exp.box_text = [[_coordinates(e.box) for e in trk.history] for trk in exp.tracks]
    return exp.box_text


def write_tracks(exp: Explanation) -> str:
    """MOT result lines (frame,id,x,y,w,h,conf,-1,-1,-1), in (frame, id)
    order.

    Box coordinates are written as the report writes them, in full
    precision (a numpy float as a plain float), so observed entries
    round-trip exactly through parse; interpolated entries carry conf 0.
    """
    pairs = sorted(zip(exp.tracks, _box_text(exp), strict=True), key=lambda pair: pair[0].id)
    # one repr per distinct confidence; the engine's are integer percents
    conf_text = {c: repr(c / 100.0) for c in {h.conf for trk in exp.tracks for h in trk.history}}
    # Walking the tracks in id order puts each frame's lines in id order.
    by_frame: dict[int, list[str]] = {}
    for trk, texts in pairs:
        for h, text in zip(trk.history, texts, strict=True):
            by_frame.setdefault(h.frame, []).append(
                f"{h.frame},{trk.id},{text},{conf_text[h.conf]},-1,-1,-1\n"
            )
    return "".join([line for frame in sorted(by_frame) for line in by_frame[frame]])


def explanation_to_boxes(exp: Explanation) -> TrackBoxes:
    return {
        trk.id: {h.frame: h.box for h in trk.history}
        for trk in exp.tracks
        if trk.history
    }


def _template(doc: dict, depth: int) -> str:
    """``json.dumps(doc, indent=2)`` nested ``depth`` levels deep, each "%s"
    value unquoted to take the JSON text of a value."""
    return json.dumps(doc, indent=2).replace('"%s"', "%s").replace("\n", "\n" + "  " * depth)


_ENTRY = _template({"frame": "%s", "box": ["%s"], "provenance": "%s", "conf": "%s"}, 4)
_TRACK = _template(dict.fromkeys(["id", "class", "born_frame", "history"], "%s"), 2)
_EVENT = _template(dict.fromkeys(["kind", "frame", "subject", "occluder"], "%s"), 2)
_PROVENANCE = {p: json.dumps(p.value) for p in Provenance}
# Between two coordinates of an entry's box in the report, whose items
# sit six levels deep.
_COORD_SEP = ",\n" + "  " * 6


# The report's three literal parts, around its two arrays.
_DOCUMENT = _template({"tracks": "%s", "events": "%s"}, 0).split("%s")


def _array(items: list[str], depth: int) -> list[str]:
    """The pieces of the JSON array of the items' texts, opened at nesting
    level ``depth``: its opening, the items with separators between them
    and its closing."""
    if not items:
        return ["[]"]
    pad = "\n" + "  " * depth
    sep = "," + pad + "  "
    pieces = ["[" + pad + "  "]
    for item in items:
        pieces += (item, sep)
    pieces[-1] = pad + "]"
    return pieces


def write_report(exp: Explanation) -> str:
    """Structured JSON: tracks with per-entry provenance plus the event log,
    byte for byte ``json.dumps(doc, indent=2)`` of the report's document."""
    tracks = []
    for trk, texts in zip(exp.tracks, _box_text(exp), strict=True):
        history = [
            _ENTRY % (h.frame, text.replace(",", _COORD_SEP), _PROVENANCE[h.provenance], h.conf)
            for h, text in zip(trk.history, texts, strict=True)
        ]
        cls = encode_basestring_ascii(trk.cls)
        tracks.append(_TRACK % (trk.id, cls, trk.born_frame, "".join(_array(history, 3))))
    events = [
        _EVENT % ('"%s"' % e.kind.name.lower(), e.frame,
                  ('"det_%s"' if e.subject_is_det else '"trk_%s"') % e.subject,
                  "null" if e.occluder is None else '"trk_%s"' % e.occluder)
        for e in exp.events
    ]
    head, middle, tail = _DOCUMENT
    return "".join([head, *_array(tracks, 1), middle, *_array(events, 1), tail])
