"""Test-only reference report writer: the report's document built as
dicts and lists and serialised by ``json.dumps(doc, indent=2)``.

:func:`abdtrack.io.write_report` must give the same bytes on every
explanation; this is the definition of its format.
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
