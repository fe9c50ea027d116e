"""Golden worked-example fixtures shared across tests.

frame235: an occlusion frame from a street scene (a car passing behind a
bus).  The solver must halt the car's track, link a hides-behind event
against the bus, and ignore the low-confidence extra detection.  The
new-track confidence threshold is raised to 60 here: with the engine
default (50) the conf-59 detection would legally start a track, and the
golden outcome ignores it instead.

frame268: the matching reappearance frame: the halted, hidden car track
must resume on the returning car detection via an unhide event.

frame79: a 15-detection / 10-track data dump used as the golden fixture
for byte-exact fact emission.
"""

from __future__ import annotations

from abdtrack import (
    BBox2D,
    Detection,
    FluentStore,
    ProblemSpec,
    Thresholds,
    TrackPrediction,
    TrackState,
)
from abdtrack.domain import EventKind, EventOccurrence, apply_event
from conftest import scaled_likelihoods

FRAME235_THRESHOLDS = Thresholds(conf_thresh_new_track=60)


def frame235_spec() -> ProblemSpec:
    dets = (
        Detection(0, "person", 99, BBox2D(1114, 450, 148, 270)),
        Detection(1, "bus", 99, BBox2D(8, 305, 992, 333)),
        Detection(2, "traffic_light", 86, BBox2D(656, 205, 21, 56)),
        Detection(3, "traffic_light", 81, BBox2D(179, 137, 42, 75)),
        Detection(4, "traffic_light", 78, BBox2D(108, 89, 46, 86)),
        Detection(5, "traffic_light", 59, BBox2D(784, 202, 21, 44)),
    )
    preds = {
        3: TrackPrediction(BBox2D(178, 136, 43, 73), TrackState.ACTIVE, "traffic_light"),
        7: TrackPrediction(BBox2D(105, 90, 49, 82), TrackState.ACTIVE, "traffic_light"),
        8: TrackPrediction(BBox2D(655, 205, 21, 55), TrackState.ACTIVE, "traffic_light"),
        12: TrackPrediction(BBox2D(48, 294, 915, 350), TrackState.ACTIVE, "bus"),
        13: TrackPrediction(BBox2D(904, 473, 181, 108), TrackState.ACTIVE, "car"),
        15: TrackPrediction(BBox2D(1111, 427, 156, 310), TrackState.ACTIVE, "person"),
    }
    likelihoods = {
        (15, 0): 82426,
        (12, 1): 88079,
        (13, 1): 3022,
        (8, 2): 98532,
        (3, 3): 94981,
        (7, 4): 90457,
    }
    fluents = FluentStore()
    for tid in preds:
        fluents.register_track(tid)
    return ProblemSpec(
        frame=235,
        detections=dets,
        predictions=preds,
        likelihoods=likelihoods,
        fluents=fluents,
        config=FRAME235_THRESHOLDS,
        frame_geom=(1242.0, 375.0),
    )


def frame268_spec() -> ProblemSpec:
    """Reappearance frame: same six tracks; the car track is halted and
    hidden by the bus; the car detection (det_1) must resume it."""
    dets = (
        Detection(0, "person", 99, BBox2D(1180, 420, 150, 290)),
        Detection(1, "car", 99, BBox2D(1010, 470, 170, 110)),
        Detection(2, "bus", 99, BBox2D(10, 300, 990, 335)),
        Detection(3, "traffic_light", 83, BBox2D(100, 92, 47, 85)),
        Detection(4, "traffic_light", 82, BBox2D(652, 204, 22, 55)),
        Detection(5, "traffic_light", 80, BBox2D(175, 135, 43, 74)),
    )
    preds = {
        3: TrackPrediction(BBox2D(176, 136, 43, 73), TrackState.ACTIVE, "traffic_light"),
        7: TrackPrediction(BBox2D(101, 92, 48, 84), TrackState.ACTIVE, "traffic_light"),
        8: TrackPrediction(BBox2D(653, 205, 21, 55), TrackState.ACTIVE, "traffic_light"),
        12: TrackPrediction(BBox2D(12, 298, 988, 336), TrackState.ACTIVE, "bus"),
        13: TrackPrediction(BBox2D(995, 468, 181, 108), TrackState.HALTED, "car", halted_age=33),
        15: TrackPrediction(BBox2D(1178, 421, 152, 292), TrackState.ACTIVE, "person"),
    }
    fluents = FluentStore()
    for tid in preds:
        fluents.register_track(tid)
    # the hide abduced at frame 235 is still in force
    apply_event(fluents, EventOccurrence(EventKind.HIDES_BEHIND, 235, 13, occluder=12))
    return ProblemSpec(
        frame=268,
        detections=dets,
        predictions=preds,
        likelihoods=scaled_likelihoods(preds, dets),
        fluents=fluents,
        config=FRAME235_THRESHOLDS,
        frame_geom=(1242.0, 375.0),
    )


FRAME79_DETS = (
    ("car", 99, (0, 189, 208, 119)),
    ("car", 99, (697, 187, 105, 68)),
    ("car", 99, (220, 178, 215, 138)),
    ("car", 99, (401, 183, 89, 72)),
    ("car", 95, (640, 179, 38, 28)),
    ("car", 91, (520, 179, 27, 23)),
    ("car", 84, (473, 182, 39, 33)),
    ("car", 75, (588, 179, 30, 22)),
    ("car", 72, (494, 184, 29, 29)),
    ("car", 46, (557, 176, 11, 14)),
    ("car", 40, (475, 173, 28, 18)),
    ("car", 25, (422, 174, 39, 13)),
    ("car", 22, (453, 176, 24, 12)),
    ("truck", 52, (586, 174, 32, 22)),
    ("truck", 52, (579, 172, 21, 20)),
)

FRAME79_TRKS = {
    0: ("car", TrackState.HALTED, (-42, 227, 249, 159)),
    1: ("car", TrackState.ACTIVE, (698, 186, 102, 68)),
    4: ("car", TrackState.ACTIVE, (590, 179, 26, 21)),
    5: ("car", TrackState.ACTIVE, (639, 179, 39, 27)),
    6: ("car", TrackState.ACTIVE, (245, 187, 182, 115)),
    7: ("car", TrackState.ACTIVE, (495, 181, 27, 31)),
    9: ("car", TrackState.HALTED, (319, 184, 54, 41)),
    11: ("car", TrackState.ACTIVE, (-26, 188, 235, 113)),
    12: ("car", TrackState.ACTIVE, (404, 181, 85, 70)),
    13: ("car", TrackState.ACTIVE, (522, 179, 23, 22)),
}

# Pairs with nonzero IoU at frame 79, ordered by det then track.
FRAME79_IOU_PAIRS = [
    (0, 0), (11, 0), (1, 1), (6, 2), (9, 2), (12, 2), (6, 3), (12, 3),
    (5, 4), (7, 5), (13, 5), (7, 6), (12, 6), (4, 7), (7, 8), (13, 8),
    (7, 10), (12, 10), (12, 11), (12, 12), (4, 13), (4, 14),
]


def frame79_spec() -> ProblemSpec:
    dets = tuple(
        Detection(i, cls, conf, BBox2D(*box)) for i, (cls, conf, box) in enumerate(FRAME79_DETS)
    )
    preds = {
        tid: TrackPrediction(BBox2D(*box), state, cls, halted_age=5 if state == TrackState.HALTED else 0)
        for tid, (cls, state, box) in FRAME79_TRKS.items()
    }
    fluents = FluentStore()
    for tid in preds:
        fluents.register_track(tid)
    for tid, (_, state, _) in FRAME79_TRKS.items():
        if state == TrackState.HALTED:
            apply_event(
                fluents, EventOccurrence(EventKind.MISSING_DETECTIONS, 70, tid)
            )
    return ProblemSpec(
        frame=79,
        detections=dets,
        predictions=preds,
        likelihoods=scaled_likelihoods(preds, dets),
        fluents=fluents,
        config=Thresholds(),
        frame_geom=(1242.0, 375.0),
    )
