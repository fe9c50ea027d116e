import math
import re
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

import abdtrack.tracker
from abdtrack import abduction
from abdtrack import AbductionEngine, BBox2D, Detection, EngineConfig, GreedyIoUTracker, Thresholds
from abdtrack.abduction import Action, ActionKind, SolveResult
from abdtrack.cli import _engine_config, _read_stream, build_parser
from abdtrack.domain import (
    EventKind,
    EventOccurrence,
    FluentStore,
    Provenance,
    TrackState,
    Visibility,
    apply_event,
)
from abdtrack.io import explanation_to_boxes, write_events, write_report, write_tracks
from test_golden import CASES, _mot_text

GEOM = (400.0, 300.0)


def engine(**thresholds) -> AbductionEngine:
    return AbductionEngine(EngineConfig(thresholds=Thresholds(**thresholds), frame_geom=GEOM))


def det(i, box, cls="car", conf=99):
    return Detection(i, cls, conf, box)


def occlusion_stream(gap_start=10, gap_len=5, n_frames=25):
    """A target crossing behind a big static occluder; the target's
    detections vanish for gap_len frames."""
    occluder = BBox2D(150, 80, 120, 100)
    frames = []
    for f in range(n_frames):
        x = 60 + 8 * f
        target = BBox2D(x, 120, 30, 24)
        dets = [det(0, occluder)]
        if not (gap_start <= f < gap_start + gap_len):
            dets.append(det(1, target))
        frames.append((f, dets))
    return frames


class TestBasicLoop:
    def test_three_frame_stream(self):
        eng = engine()
        for f in range(3):
            eng.step(f, [det(0, BBox2D(50, 50, 20, 20))])
        exp = eng.finalize()
        assert len(exp.tracks) == 1
        trk = exp.tracks[0]
        assert [h.frame for h in trk.history] == [0, 1, 2]
        assert all(h.provenance == Provenance.OBSERVED for h in trk.history)
        assert [e.kind for e in exp.events] == [EventKind.ENTERS_FOV]
        assert exp.events[0].subject == trk.id

    def test_empty_stream(self):
        eng = engine()
        for f in range(4):
            eng.step(f, [])
        exp = eng.finalize()
        assert exp.tracks == [] and exp.events == []

    def test_out_of_order_frame_rejected(self):
        eng = engine()
        eng.step(5, [])
        with pytest.raises(ValueError):
            eng.step(5, [])
        with pytest.raises(ValueError):
            eng.step(3, [])

    def test_duplicate_detection_ids_rejected(self):
        eng = engine()
        box = BBox2D(50, 50, 20, 20)
        with pytest.raises(ValueError, match="duplicate detection ids"):
            eng.step(0, [det(0, box), det(0, box.translated(100, 0))])
        eng.step(0, [det(0, box), det(1, box.translated(100, 0))])  # frame not consumed
        assert len(eng.finalize().tracks) == 2

    def test_finalize_idempotent(self):
        eng = engine()
        for f in range(3):
            eng.step(f, [det(0, BBox2D(50, 50, 20, 20))])
        first = eng.finalize()
        second = eng.finalize()
        assert first is second

    def test_step_after_finalize_rejected(self):
        eng = engine()
        eng.step(0, [])
        eng.finalize()
        with pytest.raises(RuntimeError):
            eng.step(1, [])


class TestEngineConfig:
    # A frame size that is not finite and positive once made every
    # detection an ignore_det and the stream end with no track.
    @pytest.mark.parametrize(
        "geom", [(math.nan, 375.0), (-5.0, 375.0), (0.0, 0.0), (1242.0, math.inf)]
    )
    def test_rejects_frame_geom_not_finite_and_positive(self, geom):
        with pytest.raises(ValueError, match=r"^frame geometry must be WxH, finite and positive: "):
            EngineConfig(frame_geom=geom)


class TestStartRule:
    @pytest.mark.parametrize("conf", [49, 50, 51])
    @pytest.mark.parametrize("h", [24.75, 25.0, 25.25])  # area 99, 100, 101
    def test_baseline_starts_a_track_when_the_engine_does(self, conf, h):
        # either side of conf_thresh_new_track = 50 and size_threshold = 100
        d = det(0, BBox2D(200, 150, 4, h), conf=conf)
        eng, base = engine(), GreedyIoUTracker(Thresholds())
        eng.step(0, [d])
        base.step(0, [d])
        assert bool(eng.tracks) == bool(base.tracks) == (conf > 50 and h > 25)


class TestAssignRule:
    BOX = BBox2D(100, 100, 100, 100)

    @pytest.mark.parametrize("scaled", [29_999, 30_000, 30_001])
    @pytest.mark.parametrize("conf", [30, 31])
    @pytest.mark.parametrize("cls", ["car", "pedestrian"])
    def test_baseline_keeps_its_track_when_the_engine_assigns(self, scaled, conf, cls):
        # A static box detected again shifted right by dx has IoU
        # (100 - dx) / (100 + dx); aim 0.3 above the scaled value, so the
        # 30,000 case has a float IoU above iou_thresh = 0.3 but a scaled
        # one not above 30,000.  Either side of conf_thresh_assign = 30.
        v = (scaled + 0.3) / 100_000
        again = det(0, self.BOX.translated(100 * (1 - v) / (1 + v), 0), cls=cls, conf=conf)
        eng, base = engine(), GreedyIoUTracker(Thresholds())
        for f, d in enumerate([det(0, self.BOX), again]):
            result = eng.step(f, [d])
            base.step(f, [d])
        assert eng.last_spec.likelihoods == {(0, 0): scaled}
        assigned = any(a.kind == ActionKind.ASSIGN for a in result.actions)
        assert assigned == (0 in base.tracks) == (scaled > 30_000 and conf > 30 and cls == "car")


# Each tracker as a (new tracker, its tracks' boxes) pair.
TRACKERS = {
    "engine": (engine, lambda eng: explanation_to_boxes(eng.finalize())),
    "baseline": (lambda: GreedyIoUTracker(Thresholds()), GreedyIoUTracker.result),
}


@pytest.mark.parametrize("new, boxes", TRACKERS.values(), ids=TRACKERS.keys())
class TestFrameChecks:
    """The engine and the baseline reject the same frames with the same
    message, before either changes any state."""

    A, B = BBox2D(50, 50, 20, 20), BBox2D(150, 50, 20, 20)

    def test_repeated_detection_ids_rejected(self, new, boxes):
        tracker = new()
        for f in (0, 1):
            message = rf"^frame {f}: duplicate detection ids \[99\]$"
            with pytest.raises(ValueError, match=message):
                tracker.step(f, [det(99, self.A), det(99, self.B)])
        tracker.step(0, [det(99, self.A)])  # neither frame consumed
        assert boxes(tracker) == {0: {0: self.A}}

    def test_frame_not_after_the_last_rejected(self, new, boxes):
        tracker = new()
        tracker.step(5, [det(0, self.A)])
        for f in (5, 3):
            message = rf"^frames must be strictly increasing: got {f} after 5$"
            with pytest.raises(ValueError, match=message):
                tracker.step(f, [det(0, self.B)])
        tracker.step(6, [det(0, self.A)])
        assert boxes(tracker) == {0: {5: self.A, 6: self.A}}


class TestFramePaysForWhatItHolds:
    """A frame that only moves tracks along, each track with one assign
    edge to a detection no other track can take, takes the solver's
    forced-assign rule alone: it links no event, solves no matching,
    applies no event and copies no fluent store."""

    BOXES = [BBox2D(30.0 + 90.0 * i, 100.0, 40.0, 40.0) for i in range(4)]

    def _count(self, monkeypatch, counts, owner, name):
        fn = vars(owner)[name]

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_forced_frames_link_solve_apply_and_copy_nothing(self, monkeypatch):
        counts = Counter()
        for owner, name in [
            (abduction, "link_events"),
            (abduction, "linear_sum_assignment"),
            (abdtrack.tracker, "apply_event"),
            (FluentStore, "copy"),
        ]:
            self._count(monkeypatch, counts, owner, name)
        eng = engine()
        eng.step(0, [det(i, b) for i, b in enumerate(self.BOXES)])
        assert counts["link_events"] == counts["apply_event"] == 4  # the starts
        counts.clear()
        for f in range(1, 20):
            # the detection ids change from frame to frame; the rule does not
            dets = [det((i + f) % 4, b) for i, b in enumerate(self.BOXES)]
            result = eng.step(f, dets)
            assert [(a.kind, a.trk, a.det) for a in result.actions] == [
                (ActionKind.ASSIGN, t, (t + f) % 4) for t in range(4)
            ]
            assert result.events == () and eng.last_spec.fluents is eng.fluents
        assert counts == Counter()
        assert [len(t.history) for t in eng.finalize().tracks] == [20] * 4

    def test_a_noise_frame_copies_no_store(self):
        # The halted target's ignore_trk frames log noise alone, which
        # writes no fluent: the engine keeps the store its spec read.  Its
        # hides_behind frame writes, on a copy.
        eng = engine()
        for f, dets in occlusion_stream(gap_start=10, gap_len=5):
            before = eng.fluents
            kinds = {e.kind for e in eng.step(f, dets).events}
            assert eng.last_spec.fluents is before
            if f == 10:
                assert EventKind.HIDES_BEHIND in kinds and eng.fluents is not before
            elif 11 <= f <= 14:
                assert kinds == {EventKind.NOISE} and eng.fluents is before

    def test_a_spec_keeps_the_fluents_it_read(self):
        # Frames with events and the end of the stream change the
        # engine's fluents; no spec's snapshot changes with them.
        eng = engine()
        specs, states = [], []
        for f, dets in occlusion_stream():
            eng.step(f, dets)
            specs.append(eng.last_spec)
            states.append(fluent_state(eng.last_spec.fluents))
        eng.finalize()
        assert eng.fluents.tracks() == set()
        assert [fluent_state(s.fluents) for s in specs] == states
        assert sum(a != b for a, b in zip(states, states[1:])) >= 2  # the events change them


class TestOcclusion:
    def test_identity_preserved_and_events(self):
        eng = engine()
        for f, dets in occlusion_stream():
            eng.step(f, dets)
        exp = eng.finalize()
        assert len(exp.tracks) == 2
        target = [t for t in exp.tracks if t.history[0].box.w == 30][0]
        # one track id throughout: history covers every frame
        assert [h.frame for h in target.history] == list(range(25))
        hides = [e for e in exp.events if e.kind == EventKind.HIDES_BEHIND]
        unhides = [e for e in exp.events if e.kind == EventKind.UNHIDES_FROM_BEHIND]
        assert len(hides) == 1 and len(unhides) == 1
        assert hides[0].subject == target.id == unhides[0].subject
        assert hides[0].frame == 10 and unhides[0].frame == 15

    def test_gap_backfilled_with_interpolation(self):
        eng = engine()
        for f, dets in occlusion_stream():
            eng.step(f, dets)
        exp = eng.finalize()
        target = [t for t in exp.tracks if t.history[0].box.w == 30][0]
        gap = [h for h in target.history if 10 <= h.frame < 15]
        assert all(h.provenance == Provenance.INTERPOLATED for h in gap)
        # linear interpolation between the boxes around the gap
        before = [h for h in target.history if h.frame == 9][0]
        after = [h for h in target.history if h.frame == 15][0]
        mid = gap[2]  # frame 12
        f = (12 - 9) / (15 - 9)
        assert mid.box.x == pytest.approx(before.box.x + f * (after.box.x - before.box.x))

    def test_history_continuity(self):
        eng = engine()
        for f, dets in occlusion_stream():
            eng.step(f, dets)
        for trk in eng.finalize().tracks:
            frames = [h.frame for h in trk.history]
            assert frames == list(range(frames[0], frames[-1] + 1))

    def test_waiting_halted_track_logs_noise(self):
        eng = engine()
        for f, dets in occlusion_stream(gap_start=10, gap_len=5):
            eng.step(f, dets)
        exp = eng.finalize()
        target = [t for t in exp.tracks if t.history[0].box.w == 30][0]
        noise = [
            e for e in exp.events if e.kind == EventKind.NOISE and e.subject == target.id
        ]
        # halted at 10, resumed at 15: ignored (waiting) at 11..14
        assert [e.frame for e in noise] == [11, 12, 13, 14]


class TestLifecycle:
    def test_ids_unique_and_monotone(self):
        eng = engine()
        eng.step(0, [det(0, BBox2D(20, 20, 20, 20))])
        eng.step(1, [det(0, BBox2D(20, 20, 20, 20)), det(1, BBox2D(200, 200, 24, 24))])
        eng.step(2, [det(0, BBox2D(20, 20, 20, 20)), det(1, BBox2D(200, 200, 24, 24))])
        exp = eng.finalize()
        ids = [t.id for t in exp.tracks]
        assert ids == sorted(set(ids))
        born = {t.id: t.born_frame for t in exp.tracks}
        assert born[0] == 0 and born[1] == 1

    def test_overdue_halted_track_is_lost(self):
        eng = engine(max_halted_age=5)
        for f in range(3):
            eng.step(f, [det(0, BBox2D(150, 150, 20, 20))])
        for f in range(3, 15):
            eng.step(f, [])
        exp = eng.finalize()
        lost = [e for e in exp.events if e.kind == EventKind.LOST]
        assert len(lost) == 1
        # halted at 3; waits ages 1..5; ends once the age gate opens
        assert lost[0].frame == 9
        trk = exp.tracks[0]
        assert trk.state == TrackState.ENDED
        missing = [e for e in exp.events if e.kind == EventKind.MISSING_DETECTIONS]
        assert [e.frame for e in missing] == [3]

    def test_spec_holds_the_live_tracks_in_id_order(self):
        eng = engine(max_halted_age=5)
        for f in range(15):
            dets = [det(0, BBox2D(150, 150, 20, 20))]
            if f < 3:
                dets.append(det(1, BBox2D(50, 50, 20, 20)))  # lost at frame 9
            if f >= 12:
                dets.append(det(1, BBox2D(250, 200, 20, 20)))
            eng.step(f, dets)
        assert list(eng.last_spec.predictions) == [0, 2]
        assert eng.motion.ids == [0, 2]
        assert eng.tracks[1].state == TrackState.ENDED
        assert [t.id for t in eng.finalize().tracks] == [0, 1, 2]

    def test_track_leaving_frame_gets_leaves_fov(self):
        eng = engine()
        # moving right toward the frame edge, detections stop mid-way
        f = 0
        for f in range(10):
            x = 300 + 12 * f
            eng.step(f, [det(0, BBox2D(min(x, 370.0), 100, 28, 20))])
        for f in range(10, 20):
            eng.step(f, [])
        exp = eng.finalize()
        kinds = [e.kind for e in exp.events]
        assert EventKind.LEAVES_FOV in kinds

    def test_low_confidence_detection_ignored_as_noise(self):
        eng = engine()
        eng.step(0, [det(0, BBox2D(50, 50, 20, 20))])
        eng.step(1, [det(0, BBox2D(50, 50, 20, 20)), det(1, BBox2D(200, 200, 20, 20), conf=10)])
        exp = eng.finalize()
        assert len(exp.tracks) == 1
        noise = [e for e in exp.events if e.kind == EventKind.NOISE and e.subject_is_det]
        assert [(e.subject, e.frame) for e in noise] == [(1, 1)]

    def test_tiny_detection_cannot_start_track(self):
        eng = engine()  # size_threshold 100 px^2
        eng.step(0, [det(0, BBox2D(50, 50, 8, 8))])
        exp = eng.finalize()
        assert exp.tracks == []

    def test_online_incremental(self):
        # processing a prefix gives identical state to processing the
        # same prefix within a longer run (no lookahead anywhere)
        stream = occlusion_stream()
        eng_full = engine()
        prefix_events = None
        for f, dets in stream:
            eng_full.step(f, dets)
            if f == 12:
                prefix_events = list(eng_full.events)
        eng_prefix = engine()
        for f, dets in stream[:13]:
            eng_prefix.step(f, dets)
        assert list(eng_prefix.events) == prefix_events


# The golden cases that the stream relations run on.
RELATION_CASES = ["churn", *(f"occlusion{k}" for k in range(5))]


def case_input(name, tmp_path):
    """The engine config and the frames of a golden case, as ``abdtrack
    track`` reads them, its files written in tmp_path."""
    cfg, flags, config_text = CASES[name]
    (tmp_path / "dets.txt").write_text(_mot_text(cfg))
    flags = ["--input", str(tmp_path / "dets.txt"), *flags]
    if config_text is not None:
        (tmp_path / "engine.cfg").write_text(config_text)
        flags += ["--config", str(tmp_path / "engine.cfg")]
    args = build_parser().parse_args(["track", *flags])
    return _engine_config(args), _read_stream(args).frames


def apply_frame(store: FluentStore, events) -> None:
    """Apply one frame's events, the ending ones (leaves_fov, lost) last."""
    ending = (EventKind.LEAVES_FOV, EventKind.LOST)
    for e in sorted(events, key=lambda e: e.kind in ending):
        apply_event(store, e)


def fluent_state(store: FluentStore):
    return (
        {t: (store.visibility(t), store.clipped(t)) for t in sorted(store.tracks())},
        store.hidden_pairs(),
    )


def unexplained_hidden(eng: AbductionEngine) -> list[int]:
    """Live tracks that are not_visible with no live occluder in hidden_by;
    the frame invariant asks for none after every frame."""
    live = eng.fluents.tracks()
    return [
        t
        for t in sorted(live)
        if eng.fluents.visibility(t) is Visibility.NOT_VISIBLE
        and not any(o in live for o in eng.fluents.occluder_of(t))
    ]


class TestEventReplay:
    """Fluents change only by events: the event log alone rebuilds them;
    and every hidden track keeps a live occluder."""

    @pytest.mark.parametrize("name", ["bench50", *RELATION_CASES])
    def test_replay_rebuilds_the_fluents(self, name, tmp_path):
        config, frames = case_input(name, tmp_path)
        eng = AbductionEngine(config)
        replayed = FluentStore()
        for frame, dets in frames:
            logged = len(eng.events)
            eng.step(frame, dets)
            apply_frame(replayed, eng.events[logged:])
            assert fluent_state(replayed) == fluent_state(eng.fluents)
            assert replayed.tracks() == set(eng.motion.ids)
            assert unexplained_hidden(eng) == [], frame
        assert any(e.kind == EventKind.HIDES_BEHIND for e in eng.events)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: a track hidden behind an occluder that ends "
        "is left not_visible with no occluder",
    )
    def test_hidden_track_keeps_an_occluder_when_it_ends(self):
        # ROADMAP item 4's repro: the car trk_0 hides behind the bus trk_1
        # at frame 8; the bus halts at 12 and leaves the field of view at
        # 13.  The static box keeps frames 12-14 in the stream.
        eng = engine()
        for f in range(1, 41):
            boxes = []
            if f <= 7 or f >= 15:
                boxes.append(BBox2D(300, 100, 40, 60))
            if f <= 11:
                boxes.append(BBox2D(260 + 20 * (f - 8), 60, 80, 120))
            boxes.append(BBox2D(30, 200, 30, 30))
            eng.step(f, [det(i, b) for i, b in enumerate(boxes)])
            assert unexplained_hidden(eng) == [], f

    def test_hiding_behind_an_ending_track_leaves_no_pair(self, monkeypatch):
        eng = engine()
        eng.step(0, [det(0, BBox2D(100, 100, 40, 60)), det(1, BBox2D(110, 90, 30, 40))])
        t0, t1 = sorted(eng.fluents.tracks())
        hides = EventOccurrence(EventKind.HIDES_BEHIND, 1, t1, occluder=t0)
        leaves = EventOccurrence(EventKind.LEAVES_FOV, 1, t0)
        # the cover lists t0's end before t1's halt
        result = SolveResult(
            actions=(
                Action(ActionKind.END, trk=t0, event=leaves),
                Action(ActionKind.HALT, trk=t1, event=hides),
            ),
            events=(leaves, hides),
            objective=(0, 0, 0),
        )
        monkeypatch.setattr("abdtrack.tracker.solve", lambda spec: result)
        eng.step(1, [])
        assert eng.events[-2:] == [leaves, hides]
        assert not any(t0 in pair for pair in eng.fluents.hidden_pairs())
        assert fluent_state(eng.fluents) == ({t1: (Visibility.NOT_VISIBLE, False)}, set())


def covers(config: EngineConfig, frames) -> tuple[list[str], tuple[str, str, str]]:
    """Each frame's cover, its actions as ``Action.pretty`` writes them;
    and the event log, the track file and the report of the run."""
    eng = AbductionEngine(config)
    actions = [a.pretty() for frame, dets in frames for a in eng.step(frame, dets).actions]
    exp = eng.finalize()
    return actions, (write_events(exp), write_tracks(exp), write_report(exp))


def outputs(config: EngineConfig, frames) -> tuple[str, str, str]:
    """The event log, the track file and the report of one run."""
    return covers(config, frames)[1]


class TestEveryFrameStepped:
    """The frame is the engine's one unit of time: a frame the stream
    skips is stepped as an empty frame while any track is live."""

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_skipped_frames_step_as_empty_frames(self, name, tmp_path):
        # The frames f with f % 7 == 3 emptied and stepped, or left out.
        # The last frame stays: a stream that ends on a skipped frame
        # never steps it.
        config, frames = case_input(name, tmp_path)
        last = frames[-1][0]
        emptied = [(f, [] if f % 7 == 3 and f != last else dets) for f, dets in frames]
        skipped = [(f, dets) for f, dets in emptied if dets or f == last]
        assert len(skipped) < len(emptied) == len(frames)
        assert outputs(config, skipped) == outputs(config, emptied)

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_outputs_shift_with_the_frames(self, name, tmp_path):
        # No rule reads an absolute frame number.
        shift = 100_000
        config, frames = case_input(name, tmp_path)
        events, tracks, _ = outputs(config, frames)
        events_s, tracks_s, _ = outputs(config, [(f + shift, dets) for f, dets in frames])
        assert [f"{head},{int(f[:-1]) - shift})"
                for head, f in (line.rsplit(",", 1) for line in events_s.splitlines())
                ] == events.splitlines()
        assert [f"{int(f) - shift},{rest}"
                for f, rest in (line.split(",", 1) for line in tracks_s.splitlines())
                ] == tracks.splitlines()

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_outputs_ignore_the_order_of_a_frames_detections(self, name, tmp_path):
        # No list order of the detections leaks into the covers.
        config, frames = case_input(name, tmp_path)
        assert covers(config, [(f, dets[::-1]) for f, dets in frames]) == covers(config, frames)

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_outputs_follow_a_relabelling_of_the_detection_ids(self, name, tmp_path):
        # d -> 3d + 1 keeps the ids' order, so the covers are the same up
        # to the relabelling: no rule does arithmetic on an id or takes it
        # for a list position.  The track file and the report name no
        # detection.
        config, frames = case_input(name, tmp_path)
        relabel = partial(re.sub, r"det_(\d+)", lambda m: f"det_{3 * int(m[1]) + 1}")
        actions, (events, tracks, report) = covers(config, frames)
        actions_r, (events_r, tracks_r, report_r) = covers(
            config, [(f, [replace(d, id=3 * d.id + 1) for d in dets]) for f, dets in frames]
        )
        assert any("det_" in a for a in actions)
        assert actions_r == [relabel(a) for a in actions]
        assert events_r == relabel(events)
        assert (tracks_r, report_r) == (tracks, report)

    @pytest.mark.parametrize("name", ["bench50", *RELATION_CASES])
    def test_event_log_follows_a_mirror_of_integer_boxes(self, name, tmp_path):
        # x -> W - x - w: no precondition tells left from right.  Boxes
        # rounded to integers (w and h at least 1) keep the mirror exact.
        config, frames = case_input(name, tmp_path)
        width = config.frame_geom[0]

        def boxes(box_of):
            return [(f, [replace(d, box=box_of(d.box)) for d in dets]) for f, dets in frames]

        def rounded(b):
            return BBox2D(round(b.x), round(b.y), max(1, round(b.w)), max(1, round(b.h)))

        def mirrored(b):
            b = rounded(b)
            return BBox2D(width - b.x - b.w, b.y, b.w, b.h)

        assert outputs(config, boxes(mirrored))[0] == outputs(config, boxes(rounded))[0]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_halted_age_counts_frames_since_the_halt(self, name, tmp_path, monkeypatch):
        # Each prediction's halted age: 0 for an active track; for a
        # halted one, the frames since the event that halted it.
        config, frames = case_input(name, tmp_path)
        eng = AbductionEngine(config)
        halted_at: dict[int, int] = {}
        read = halted = 0
        solve = abdtrack.tracker.solve

        def checked_solve(spec):
            nonlocal read, halted
            for e in eng.events[read:]:
                if e.kind in (EventKind.HIDES_BEHIND, EventKind.MISSING_DETECTIONS):
                    halted_at[e.subject] = e.frame
            read = len(eng.events)
            for tid, pred in spec.predictions.items():
                since = halted_at[tid] if pred.state is TrackState.HALTED else spec.frame
                halted += pred.state is TrackState.HALTED
                assert pred.halted_age == spec.frame - since, (spec.frame, tid)
            return solve(spec)

        monkeypatch.setattr(abdtrack.tracker, "solve", checked_solve)
        for frame, dets in frames:
            eng.step(frame, dets)
        assert halted > 0

    def test_long_gap_costs_at_most_max_halted_age_plus_two_steps(self):
        eng = engine()
        box = BBox2D(150, 150, 40, 40)
        eng.step(1, [det(0, box)])
        eng.step(10**12, [])
        extra = len(eng.latencies) - 2
        assert 0 < extra <= Thresholds().max_halted_age + 2
        assert eng.latencies[-1].frame == 10**12
        assert [e.kind for e in eng.events if e.kind != EventKind.NOISE] == [
            EventKind.ENTERS_FOV, EventKind.MISSING_DETECTIONS, EventKind.LOST,
        ]
        # with no track live, a gap costs no step: only the frame's own
        eng.step(2 * 10**12, [det(0, box)])
        assert len(eng.latencies) == extra + 3
        assert [t.born_frame for t in eng.finalize().tracks] == [1, 2 * 10**12]

    def test_rejected_frame_after_a_gap_changes_nothing(self):
        eng = engine()
        eng.step(1, [det(0, BBox2D(150, 150, 40, 40))])
        with pytest.raises(ValueError, match="duplicate detection ids"):
            eng.step(9, [det(0, BBox2D(10, 10, 20, 20)), det(0, BBox2D(90, 90, 20, 20))])
        assert [s.frame for s in eng.latencies] == [1]
        assert len(eng.events) == 1 and eng.tracks[0].state == TrackState.ACTIVE

    def test_baseline_ends_its_tracks_at_a_skipped_frame(self):
        # "Unmatched tracks die immediately": at the first skipped frame.
        base = GreedyIoUTracker()
        for f in (1, 2, 3, 6, 7, 8):
            base.step(f, [det(0, BBox2D(100, 100, 40, 40))])
        assert {t: sorted(b) for t, b in base.result().items()} == {0: [1, 2, 3], 1: [6, 7, 8]}
