import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from abdtrack import AbductionEngine, BBox2D, Detection, EngineConfig
from abdtrack.domain import (
    EventKind,
    EventOccurrence,
    HistoryEntry,
    Provenance,
    Track,
    TrackState,
)
from abdtrack import io
from abdtrack.io import (
    explanation_to_boxes,
    format_event,
    parse_kitti,
    parse_mot,
    parse_mot_tracks,
    write_events,
    write_report,
    write_tracks,
)
from abdtrack.tracker import Explanation
from reference_report import reference_report, reference_tracks


class TestParseMot:
    def test_single_line(self):
        stream = parse_mot("1,-1,100,200,50,80,0.9\n")
        assert len(stream.frames) == 1
        frame, dets = stream.frames[0]
        assert frame == 1 and len(dets) == 1
        d = dets[0]
        assert (d.box.x, d.box.y, d.box.w, d.box.h) == (100.0, 200.0, 50.0, 80.0)
        assert d.conf == 90

    def test_empty_file(self):
        assert parse_mot("").frames == []

    def test_integral_frame_in_float_form(self):
        stream = parse_mot("7,-1,0,0,10,10,0.9\n7.0,-1,20,0,10,10,0.9\n")
        assert [(f, len(dets)) for f, dets in stream.frames] == [(7, 2)]

    @pytest.mark.parametrize("frame", ["1.7", "1.2", "nan", "inf"])
    def test_non_integral_frame_rejected_with_line_number(self, frame):
        # 1.7 and 1.2 used to merge into frame 1.
        with pytest.raises(ValueError, match="line 2: frame is not an integer"):
            parse_mot(f"1,-1,0,0,10,10,0.9\n{frame},-1,0,0,10,10,0.9\n")

    def test_two_lines_same_frame(self):
        stream = parse_mot("3,-1,0,0,10,10,1\n3,-1,50,50,10,10,0.5\n")
        assert len(stream.frames) == 1
        _, dets = stream.frames[0]
        assert len(dets) == 2 and dets[0].id == 0 and dets[1].id == 1
        assert dets[1].conf == 50

    def test_non_monotone_sorted(self):
        stream = parse_mot("5,-1,0,0,10,10,1\n2,-1,0,0,10,10,1\n")
        assert [f for f, _ in stream.frames] == [2, 5]

    def test_frame_listed_again_after_another(self):
        stream = parse_mot("1,-1,0,0,10,10,1\n2,-1,0,0,10,10,1\n1,-1,50,0,10,10,0.5\n")
        assert [(f, [(d.id, d.box.x, d.conf) for d in dets]) for f, dets in stream.frames] == [
            (1, [(0, 0.0, 100), (1, 50.0, 50)]),
            (2, [(0, 0.0, 100)]),
        ]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_mot("1,-1,0,0,10,10,1\n1,-1,zzz,0,10,10,1\n")

    def test_percent_style_confidence(self):
        stream = parse_mot("1,-1,0,0,10,10,85\n")
        assert stream.frames[0][1][0].conf == 85

    @pytest.mark.parametrize("bad", ["nan", "x", "inf"])
    def test_repeated_bad_confidence_raises_on_its_first_line(self, bad):
        # The error names the first line that holds the bad text.
        with pytest.raises(ValueError, match="^line 2: "):
            parse_mot(f"1,-1,0,0,10,10,0.9\n1,-1,20,0,10,10,{bad}\n2,-1,0,0,10,10,{bad}\n")

    @pytest.mark.parametrize("line", ["1,-1,nan,10,20,20,0.9", "1,-1,0,10,inf,20,0.9",
                                      "1,-1,0,10,20,20,nan", "inf,-1,0,10,20,20,0.9",
                                      "1,-1,100,100,1e200,1e200,0.9",
                                      "1,-1,100,100,1e-200,1e203,0.9",
                                      "1,-1,100,100,1e-200,1e-200,0.9"])
    def test_non_finite_rejected_with_line_number(self, line):
        with pytest.raises(ValueError, match="line 2"):
            parse_mot("1,-1,0,0,10,10,1\n" + line + "\n")


class TestParseKitti:
    LINE = "0 -1 Car 0 0 -10.0 100.0 120.0 150.0 160.0 1.5 1.6 3.2 1.0 1.0 1.0 0.1 0.95"

    def test_single_line(self):
        stream = parse_kitti(self.LINE + "\n")
        frame, dets = stream.frames[0]
        assert frame == 0
        d = dets[0]
        assert d.cls == "car"
        assert (d.box.x, d.box.y, d.box.w, d.box.h) == (100.0, 120.0, 50.0, 40.0)
        assert d.conf == 95

    def test_class_filter_and_dontcare(self):
        text = (
            self.LINE + "\n"
            "0 -1 Pedestrian 0 0 0 10 10 20 30 1 1 1 0 0 0 0 0.8\n"
            "0 -1 DontCare 0 0 0 5 5 8 8 1 1 1 0 0 0 0\n"
        )
        stream = parse_kitti(text, class_filter={"car"})
        assert [d.cls for d in stream.frames[0][1]] == ["car"]
        stream_all = parse_kitti(text)
        assert [d.cls for d in stream_all.frames[0][1]] == ["car", "pedestrian"]

    @pytest.mark.parametrize("names", [{"Car"}, {" car "}, {"CAR", "Van"}])
    def test_class_filter_names_any_case(self, names):
        stream = parse_kitti(self.LINE + "\n", class_filter=names)
        assert [d.cls for d in stream.frames[0][1]] == ["car"]

    def test_integral_frame_in_float_form(self):
        stream = parse_kitti(self.LINE.replace("0", "3.0", 1) + "\n")
        assert stream.frames[0][0] == 3

    @pytest.mark.parametrize("frame", ["1.7", "0.5", "nan"])
    def test_non_integral_frame_rejected_with_line_number(self, frame):
        with pytest.raises(ValueError, match="line 2: frame is not an integer"):
            parse_kitti(self.LINE + "\n" + self.LINE.replace("0", frame, 1) + "\n")

    def test_score_column_optional(self):
        line = "2 -1 Cyclist 0 0 0 10 10 20 30 1 1 1 0 0 0 0"
        stream = parse_kitti(line + "\n")
        assert stream.frames[0][1][0].conf == 100

    def test_malformed(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_kitti("0 -1 Car 0 0\n")

    @pytest.mark.parametrize("corners", ["nan 120.0 150.0 160.0", "100.0 120.0 inf 160.0",
                                         "-1e308 -1e308 1e308 1e308", "0 0 1e200 1e200",
                                         "0 0 1e-200 1e203", "0 0 1e-200 1e-200"])
    def test_non_finite_rejected_with_line_number(self, corners):
        line = f"0 -1 Car 0 0 -10.0 {corners} 1.5 1.6 3.2 1.0 1.0 1.0 0.1 0.95"
        with pytest.raises(ValueError, match="line 2"):
            parse_kitti(self.LINE + "\n" + line + "\n")


# Confidences and the integer percents both parsers read them as: a
# fraction up to 1.0, a percent above it, clamped to [0, 100].
CONF_PERCENTS = [(-5, 0), (0, 0), (0.004, 0), (0.005, 0), (1.0, 100), (1.5, 2), (100, 100),
                 (100.4, 100), (250, 100)]


@pytest.mark.parametrize("conf, percent", CONF_PERCENTS)
def test_confidence_percent_clamped_by_both_parsers(conf, percent):
    mot = parse_mot(f"1,-1,0,0,10,10,{conf}\n")
    kitti = parse_kitti(f"0 -1 Car 0 0 0 0 0 10 10 1 1 1 0 0 0 0 {conf}\n")
    for stream in (mot, kitti):
        (det,) = stream.frames[0][1]
        assert det.conf == percent and type(det.conf) is int


class TestParseMotTracks:
    @pytest.mark.parametrize("line", ["1,1,nan,10,20,20", "1,1,0,10,20,inf", "1,1,0,10,0,20",
                                      "1,1,0,10,1e200,1e200", "1,1,0,10,1e-200,1e203",
                                      "1,1,0,10,1e-200,1e-200"])
    def test_bad_box_rejected_with_line_number(self, line):
        with pytest.raises(ValueError, match="line 2"):
            parse_mot_tracks("1,1,0,0,10,10\n" + line + "\n")

    def test_integral_frame_and_id_in_float_form(self):
        out = parse_mot_tracks("7.0,3.0,0,0,10,10\n")
        assert list(out) == [3] and list(out[3]) == [7]

    @pytest.mark.parametrize("line, name", [("1.5,1,0,0,10,10", "frame"),
                                            ("2,1.5,0,0,10,10", "track id"),
                                            ("2,inf,0,0,10,10", "track id")])
    def test_non_integral_frame_or_id_rejected_with_line_number(self, line, name):
        with pytest.raises(ValueError, match=f"line 2: {name} is not an integer"):
            parse_mot_tracks("1,1,0,0,10,10\n" + line + "\n")

    def test_short_line_rejected_with_field_count(self):
        with pytest.raises(ValueError, match="line 3: expected at least 6 fields, got 5"):
            parse_mot_tracks("1,1,0,0,10,10\n\n1,1,0,0,10\n")

    @pytest.mark.parametrize("second", ["1,1,5,5,10,10", "1.0,1,0,0,10,10", "1,1.0,0,0,10,10"])
    def test_repeated_track_frame_rejected_with_line_number(self, second):
        with pytest.raises(ValueError, match="line 3: track 1 already has a box in frame 1"):
            parse_mot_tracks("1,1,0,0,10,10\n2,1,0,0,10,10\n" + second + "\n")


class TestWriteEvents:
    def test_paper_grammar(self):
        e = EventOccurrence(EventKind.HIDES_BEHIND, 235, 13, occluder=12)
        assert format_event(e) == "occurs_at(hides_behind(trk_13,trk_12),235)"

    def test_enters_fov_line(self):
        e = EventOccurrence(EventKind.ENTERS_FOV, 172, 30)
        assert format_event(e) == "occurs_at(enters_fov(trk_30),172)"

    def test_empty(self):
        assert write_events(Explanation(tracks=[], events=[])) == ""

    def test_chronological_output(self):
        events = [
            EventOccurrence(EventKind.ENTERS_FOV, 1, 0),
            EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 0),
            EventOccurrence(EventKind.RECOVER, 6, 0),
        ]
        out = write_events(Explanation(tracks=[], events=events))
        assert out.splitlines() == [
            "occurs_at(enters_fov(trk_0),1)",
            "occurs_at(missing_detections(trk_0),4)",
            "occurs_at(recover(trk_0),6)",
        ]

    def test_grammar_parseable_corpus(self):
        grammar = re.compile(
            r"^occurs_at\("
            r"(enters_fov|leaves_fov|missing_detections|recover|lost|noise)\((trk|det)_\d+\)"
            r"|occurs_at\((hides_behind|unhides_from_behind)\(trk_\d+,trk_\d+\)"
            r",\d+\)$"
        )
        rng = np.random.default_rng(17)
        kinds = list(EventKind)
        for _ in range(300):
            k = kinds[int(rng.integers(0, len(kinds)))]
            needs_occ = k in (EventKind.HIDES_BEHIND, EventKind.UNHIDES_FROM_BEHIND)
            e = EventOccurrence(
                k,
                int(rng.integers(0, 10_000)),
                int(rng.integers(0, 500)),
                occluder=int(rng.integers(0, 500)) if needs_occ else None,
                subject_is_det=(k == EventKind.NOISE and rng.random() < 0.5),
            )
            line = format_event(e)
            assert grammar.match(line), line


class TestWriteTracks:
    def _explanation(self):
        eng = AbductionEngine(EngineConfig(frame_geom=(400.0, 300.0)))
        eng.step(1, [Detection(0, "car", 99, BBox2D(10.5, 20.25, 30.0, 40.0))])
        eng.step(2, [Detection(0, "car", 97, BBox2D(12.5, 21.25, 30.0, 40.0))])
        return eng.finalize()

    def test_roundtrip_exact_for_observed(self):
        exp = self._explanation()
        text = write_tracks(exp)
        parsed = parse_mot_tracks(text)
        boxes = explanation_to_boxes(exp)
        assert parsed == boxes

    def test_numpy_float_box_written_as_float(self):
        # numpy >= 2 reprs a float64 as "np.float64(10.5)", which the
        # track file's reader rejects.
        eng = AbductionEngine(EngineConfig(frame_geom=(400.0, 300.0)))
        box = BBox2D(*np.array([10.5, 20.25, 30.0, 40.0]))
        eng.step(1, [Detection(0, "car", 99, box)])
        exp = eng.finalize()
        text = write_tracks(exp)
        assert text == "1,0,10.5,20.25,30.0,40.0,0.99,-1,-1,-1\n"
        assert parse_mot_tracks(text) == explanation_to_boxes(exp)

    @pytest.mark.parametrize("values, dtype, written", [
        ([3, 4, 5, 6], np.int64, "3.0,4.0,5.0,6.0"),
        ([0.5, 0.25, 5, 6], np.float32, "0.5,0.25,5.0,6.0"),
    ])
    def test_other_numpy_scalars_written_as_floats(self, values, dtype, written):
        # json cannot write these: both writers write the float each converts to
        box = BBox2D(*np.array(values, dtype=dtype))
        exp = Explanation([_track(0, entries=[(1, box, _OBS, 90)])], [])
        assert write_tracks(exp) == f"1,0,{written},0.9,-1,-1,-1\n"
        assert parse_mot_tracks(write_tracks(exp)) == explanation_to_boxes(exp)
        assert json.loads(write_report(exp))["tracks"][0]["history"][0]["box"] == [
            float(v) for v in written.split(",")
        ]

    def test_mot_result_shape(self):
        text = write_tracks(self._explanation())
        for line in text.splitlines():
            parts = line.split(",")
            assert len(parts) == 10
            assert parts[7:] == ["-1", "-1", "-1"]

    def test_structured_report(self):
        import json

        text = write_report(self._explanation())
        doc = json.loads(text)
        assert doc["tracks"][0]["history"][0]["provenance"] == "observed"
        assert doc["events"][0]["kind"] == "enters_fov"
        entries = [
            (1, "10.5", "20.25", 99),
            (2, "12.5", "21.25", 97),
        ]
        history = ",\n".join(
            f"""        {{
          "frame": {f},
          "box": [
            {x},
            {y},
            30.0,
            40.0
          ],
          "provenance": "observed",
          "conf": {c}
        }}"""
            for f, x, y, c in entries
        )
        assert text == f"""{{
  "tracks": [
    {{
      "id": 0,
      "class": "car",
      "born_frame": 1,
      "history": [
{history}
      ]
    }}
  ],
  "events": [
    {{
      "kind": "enters_fov",
      "frame": 1,
      "subject": "trk_0",
      "occluder": null
    }}
  ]
}}"""


def _track(tid, cls="car", entries=()):
    history = [HistoryEntry(f, box, prov, conf) for f, box, prov, conf in entries]
    born = history[0].frame if history else 0
    return Track(tid, cls, TrackState.ENDED, history, born)


_OBS, _INTERP = Provenance.OBSERVED, Provenance.INTERPOLATED
_ENTRY = (3, BBox2D(10.5, 20.25, 30.0, 40.0), _OBS, 99)
_EVENT = EventOccurrence(EventKind.ENTERS_FOV, 3, 0)

# Explanations for the shapes no golden case has; the golden cases are
# compared in test_golden.py.
REPORT_CASES = {
    "no_tracks": Explanation([], [_EVENT]),
    "no_events": Explanation([_track(0, entries=[_ENTRY])], []),
    "empty": Explanation([], []),
    "empty_history": Explanation([_track(0), _track(1, entries=[_ENTRY])], [_EVENT]),
    "one_entry": Explanation([_track(4, entries=[_ENTRY])], [_EVENT]),
    "non_ascii_class": Explanation([_track(0, cls="Fußgänger \u2192 🚲", entries=[_ENTRY])], []),
    "quoted_class": Explanation([_track(0, cls='say "car"\\\n\t', entries=[_ENTRY])], []),
    "int_box": Explanation(
        [
            _track(
                0,
                entries=[
                    (7, BBox2D(300, 100, 40, 60), _OBS, 100),
                    (8, BBox2D(301, 100.5, 40, 60), _INTERP, 0),
                ],
            )
        ],
        [],
    ),
    "float_subclass_box": Explanation(
        [_track(0, entries=[(1, BBox2D(*np.array([0.1, 1e16, 1e-7, 2.5])), _OBS, 50)])], []
    ),
    "det_subject": Explanation([], [EventOccurrence(EventKind.NOISE, 12, 3, subject_is_det=True)]),
    "occluder": Explanation(
        [],
        [
            EventOccurrence(EventKind.HIDES_BEHIND, 9, 1, occluder=2),
            EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 15, 1, occluder=12),
            EventOccurrence(EventKind.LOST, 40, 3),
        ],
    ),
}


def _one_track(*boxes):
    """An explanation of one track whose observed entries hold the boxes,
    at frames 1, 2, ..."""
    return Explanation([_track(0, entries=[
        (f, box, _OBS, 90) for f, box in enumerate(boxes, start=1)
    ])], [])


# Consecutive entries of one track whose equal coordinates have different
# texts, and runs whose texts the writers take from the entry before.
REPEAT_CASES = {
    # 0.0 == -0.0, but their reprs differ
    "x_zero_then_minus_zero": _one_track(BBox2D(0.0, 5.0, 3.0, 4.0), BBox2D(-0.0, 5.0, 3.0, 4.0)),
    "x_minus_zero_then_zero": _one_track(BBox2D(-0.0, 5.0, 3.0, 4.0), BBox2D(0.0, 5.0, 3.0, 4.0)),
    "y_zero_then_minus_zero": _one_track(BBox2D(5.0, 0.0, 3.0, 4.0), BBox2D(5.0, -0.0, 3.0, 4.0)),
    "y_minus_zero_then_zero": _one_track(BBox2D(5.0, -0.0, 3.0, 4.0), BBox2D(5.0, 0.0, 3.0, 4.0)),
    # 300 == 300.0, but an int prints without the ".0"
    "int_then_equal_float": _one_track(BBox2D(300, 100, 40, 60), BBox2D(300.0, 100.0, 40.0, 60.0)),
    "float_then_equal_int": _one_track(BBox2D(300.0, 100.0, 40.0, 60.0), BBox2D(300, 100, 40, 60)),
    "float64_then_equal_float": _one_track(
        BBox2D(*np.array([0.1, 0.2, 0.3, 0.4])), BBox2D(0.1, 0.2, 0.3, 0.4)
    ),
    "identical_run_then_h_changes": _one_track(
        *[BBox2D(10.5, 20.25, 30.0, 40.0)] * 3, BBox2D(10.5, 20.25, 30.0, 40.5)
    ),
    # The box the engine's back-fill makes between two observed boxes of
    # one size at x = -0.0: -0.0 + f * 0.0 is 0.0.
    "interpolated_between_one_size": Explanation([_track(0, entries=[
        (1, BBox2D(-0.0, 5.0, 30.0, 40.0), _OBS, 90),
        (2, BBox2D(0.0, 5.5, 30.0, 40.0), _INTERP, 0),
        (3, BBox2D(-0.0, 6.0, 30.0, 40.0), _OBS, 90),
    ])], []),
}


# The writers' calls in each order, alone and twice.
WRITER_CALLS = [
    ("tracks",), ("report",), ("tracks", "tracks"), ("report", "report"),
    ("tracks", "report"), ("report", "tracks"),
]


class TestWriterCache:
    """The two writers share each entry's rendered box text, cached on the
    explanation by whichever runs first; a coordinate's text is taken from
    the entry before only where the two are the same text."""

    CASES = {
        **REPORT_CASES,
        **REPEAT_CASES,
        "engine": TestWriteTracks()._explanation(),
        "mixed_boxes": Explanation(
            [
                _track(2, entries=[(5, BBox2D(1, 2.5, 3, 4), _OBS, 7)]),
                _track(0),
                _track(1, entries=[(5, BBox2D(*np.array([0.1, 0.2, 0.3, 0.4])), _OBS, 100),
                                   (6, BBox2D(-0.0, 1e-7, 2.0**60, 1e22), _INTERP, 0)]),
            ],
            [],
        ),
    }

    @pytest.mark.parametrize("calls", WRITER_CALLS, ids="-".join)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_bytes_in_any_order(self, name, calls):
        case = self.CASES[name]
        exp = Explanation(case.tracks, case.events)  # nothing cached yet
        writers = {"tracks": (write_tracks, reference_tracks),
                   "report": (write_report, reference_report)}
        for call in calls:
            write, reference = writers[call]
            assert write(exp) == reference(case)

    def test_rendered_once_and_read_only_after(self):
        exp = Explanation(
            [_track(0, entries=[_ENTRY, (4, BBox2D(300, 100, 40, 60), _OBS, 100)]), _track(1)], []
        )
        assert exp.box_text is None
        tracks = write_tracks(exp)
        assert exp.box_text == [["10.5,20.25,30.0,40.0", "300,100,40,60"], []]
        report = write_report(exp)
        # A history changed once a writer has run is written as it was.
        exp.tracks[0].history[0] = HistoryEntry(3, BBox2D(1.0, 2.0, 3.0, 4.0), _OBS, 99)
        assert (write_tracks(exp), write_report(exp)) == (tracks, report)
        assert exp == Explanation(exp.tracks, [])  # the cache is no part of equality

    @pytest.mark.parametrize("where", ["track", "entry"])
    @pytest.mark.parametrize("first, second", [(write_tracks, write_report), (write_report, write_tracks)])
    def test_added_after_a_writer_raises(self, where, first, second):
        exp = Explanation([_track(0, entries=[_ENTRY])], [])
        first(exp)
        if where == "track":
            exp.tracks.append(_track(1, entries=[_ENTRY]))
        else:
            exp.tracks[0].history.append(HistoryEntry(4, BBox2D(1.0, 2.0, 3.0, 4.0), _OBS, 99))
        with pytest.raises(ValueError, match="zip"):
            second(exp)


class TestWriteReport:
    @pytest.mark.parametrize("name", sorted(REPORT_CASES))
    def test_matches_reference(self, name):
        exp = REPORT_CASES[name]
        assert write_report(exp) == reference_report(exp)

    def test_empty_lists_and_null(self):
        text = write_report(REPORT_CASES["empty"])
        assert text == '{\n  "tracks": [],\n  "events": []\n}'
        assert '"occluder": null' in write_report(REPORT_CASES["no_tracks"])
        assert '"history": []' in write_report(REPORT_CASES["empty_history"])

    def test_int_box_prints_ints(self):
        text = write_report(REPORT_CASES["int_box"])
        assert "            300,\n" in text and "300.0" not in text
        assert "            301,\n            100.5,\n" in text


def _long_float(v: float) -> float:
    """The first float at or above v whose repr has 17 significant digits,
    as most of a Kalman-filtered box's coordinates do."""
    while len(repr(v).replace(".", "").lstrip("0")) != 17:
        v = math.nextafter(v, math.inf)
    return v


class TestWriterMemory:
    """Each writer joins its output once, so the traced peak while it runs
    stays within a small multiple of the text it returns.  The bounds fail
    a report writer that joins all tracks into one array string and then
    formats that into the document (3.2x here), and a track writer that
    sorts a tuple per line before formatting the lines (3.4x).  The box
    text cache keeps one string per entry: its peak while it renders is
    1.8x the text it caches here.  A cache of each entry's four coordinate
    texts reads 4.7x, and one that keeps them beside the entry's text
    while it renders reads 6.4x."""

    @staticmethod
    def _explanation() -> Explanation:
        # Like churn's: ten tracks over the whole stream and many short
        # ones, 21,000 entries in all, and every kind of event per track.
        rng = random.Random(7)
        tracks = []
        for tid, length in enumerate([1500] * 10 + [40] * 150):
            born = 1 if length == 1500 else rng.randrange(1, 1460)
            entries = []
            for f in range(born, born + length):
                # [100, 256) holds many floats of 17 significant digits
                box = BBox2D(*(_long_float(rng.uniform(100.0, 250.0)) for _ in range(4)))
                entries.append((f, box, _OBS if rng.random() < 0.9 else _INTERP, rng.randrange(101)))
            tracks.append(_track(tid, entries=entries))
        events = [EventOccurrence(kind, trk.born_frame, trk.id) for trk in tracks for kind in EventKind]
        return Explanation(tracks, events)

    @staticmethod
    def _peak(write, exp) -> tuple[str, int]:
        tracemalloc.start()
        try:
            text = write(exp)
            return text, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("write, bound", [(write_report, 2.5), (write_tracks, 3.2)])
    def test_peak_within_a_multiple_of_the_output(self, write, bound):
        exp = self._explanation()
        io._box_text(exp)  # rendered before either writer is traced
        text, peak = self._peak(write, exp)
        assert peak <= bound * len(text), (peak, len(text))

    def test_box_text_peak_within_a_multiple_of_its_text(self):
        exp = self._explanation()
        _, peak = self._peak(io._box_text, exp)
        text = sum(len(t) for texts in exp.box_text for t in texts)
        assert peak <= 2.5 * text, (peak, text)
