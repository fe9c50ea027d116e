"""Test-only reference writers.  The report: its document built as dicts
and lists and serialised by ``json.dumps(doc, indent=2)``.  The track
file: one f-string per entry, each box coordinate as ``json`` writes it.

:func:`abdtrack.io.write_report` and :func:`abdtrack.io.write_tracks`
must give the same bytes on every explanation; these are the definitions
of their formats.
"""

from __future__ import annotations

import json

from abdtrack.tracker import Explanation


def reference_report(exp: Explanation) -> str:
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


def reference_tracks(exp: Explanation) -> str:
    entries = sorted(
        ((h.frame, trk.id, h) for trk in exp.tracks for h in trk.history), key=lambda t: t[:2]
    )
    return "".join(
        f"{f},{tid},{','.join(json.dumps(v) for v in (h.box.x, h.box.y, h.box.w, h.box.h))},"
        f"{h.conf / 100.0!r},-1,-1,-1\n"
        for f, tid, h in entries
    )
