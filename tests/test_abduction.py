import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_lsap

from abdtrack import (
    BBox2D,
    Detection,
    FluentStore,
    ProblemSpec,
    Thresholds,
    TrackPrediction,
    TrackState,
    candidate_actions,
    emit_facts,
    link_events,
    solve,
    solve_oracle,
)
from abdtrack import abduction, domain
from abdtrack.abduction import Action, ActionKind
from abdtrack.domain import (
    EngineBugError,
    EventKind,
    EventOccurrence,
    Visibility,
    apply_event,
    possible,
)
from abdtrack.geometry import IOU_SCALE, overlap_likelihoods, overlapping_top
from conftest import assert_certificate, edge_case_boxes, make_random_spec, scaled_likelihoods
from reference_solver import halt_events_reference, solve_reference
from worked_examples import frame235_spec, frame268_spec, frame79_spec


def simple_spec(tracks, dets, frame=10, thresholds=Thresholds(), fluent_setup=None,
                frame_geom=(320.0, 320.0)):
    """tracks: {tid: (box, state, cls, halted_age)}; dets: [(cls, conf, box)]."""
    fluents = FluentStore()
    for tid in tracks:
        fluents.register_track(tid)
    if fluent_setup:
        fluent_setup(fluents)
    preds = {
        tid: TrackPrediction(box=box, state=state, cls=cls, halted_age=age)
        for tid, (box, state, cls, age) in tracks.items()
    }
    detections = tuple(
        Detection(i, cls, conf, box) for i, (cls, conf, box) in enumerate(dets)
    )
    return ProblemSpec(
        frame=frame,
        detections=detections,
        predictions=preds,
        likelihoods=scaled_likelihoods(preds, detections),
        fluents=fluents,
        config=thresholds,
        frame_geom=frame_geom,
    )


class TestThresholds:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Thresholds) if f.name != "iou_thresh"]
    )
    @pytest.mark.parametrize("value", [-1, math.inf])
    def test_rejects_negative_and_infinite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative$"):
            Thresholds(**{name: value})


class TestCandidateActions:
    def test_active_track_good_detection(self):
        spec = simple_spec(
            {1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0)},
            [("car", 99, BBox2D(1, 1, 20, 20))],
        )
        per_track, per_det = candidate_actions(spec)
        kinds = {a.kind for a in per_track[1]}
        assert kinds == {ActionKind.ASSIGN, ActionKind.HALT}

    def test_halted_track_no_detections(self):
        # interior and young: no event explains an end
        spec = simple_spec(
            {1: (BBox2D(50, 50, 20, 20), TrackState.HALTED, "car", 3)}, []
        )
        per_track, _ = candidate_actions(spec)
        assert per_track[1] == [
            Action(ActionKind.IGNORE_TRK, trk=1, event=EventOccurrence(EventKind.NOISE, 10, 1))
        ]

    def test_halted_track_at_boundary_ends(self):
        # the end is explained, so the ignore it dominates is left out
        spec = simple_spec(
            {1: (BBox2D(2, 50, 20, 20), TrackState.HALTED, "car", 3)}, []
        )
        per_track, _ = candidate_actions(spec)
        assert per_track[1] == [
            Action(ActionKind.END, trk=1, event=EventOccurrence(EventKind.LEAVES_FOV, 10, 1))
        ]

    def test_low_conf_detection_only_ignorable(self):
        spec = simple_spec({}, [("car", 10, BBox2D(200, 200, 20, 20))])
        _, per_det = candidate_actions(spec)
        assert [a.kind for a in per_det[0]] == [ActionKind.IGNORE_DET]

    def test_detection_outside_frame_only_ignorable(self):
        # confident and large, but no enters_fov explains a start
        spec = simple_spec({}, [("car", 99, BBox2D(400, 400, 40, 40))])
        _, per_det = candidate_actions(spec)
        assert per_det[0] == [
            Action(
                ActionKind.IGNORE_DET,
                det=0,
                event=EventOccurrence(EventKind.NOISE, 10, 0, subject_is_det=True),
            )
        ]

    def test_detection_in_frame_starts(self):
        spec = simple_spec({}, [("car", 99, BBox2D(200, 200, 40, 40))])
        _, per_det = candidate_actions(spec)
        assert per_det[0] == [
            Action(
                ActionKind.START,
                det=0,
                event=EventOccurrence(EventKind.ENTERS_FOV, 10, 0, subject_is_det=True),
            )
        ]

    def test_edges_listed_by_detection_id(self):
        box = BBox2D(100, 100, 20, 20)
        spec = _relabelled(
            simple_spec(
                {
                    1: (box, TrackState.ACTIVE, "car", 0),
                    2: (BBox2D(200, 100, 20, 20), TrackState.HALTED, "car", 3),
                },
                [("car", 99, box), ("car", 99, box.translated(1, 0)), ("car", 99, box.translated(0, 1))],
                fluent_setup=lambda s: apply_event(
                    s, EventOccurrence(EventKind.MISSING_DETECTIONS, 7, 2)
                ),
            )
        )
        ids = [d.id for d in spec.detections]
        assert ids == sorted(ids, reverse=True)
        per_track, _ = candidate_actions(spec)
        assert [(a.kind, a.det) for a in per_track[1]] == [
            (ActionKind.ASSIGN, d) for d in sorted(ids)
        ] + [(ActionKind.HALT, None)]
        assert [(a.kind, a.det) for a in per_track[2]] == [
            (ActionKind.RESUME, d) for d in sorted(ids)
        ] + [(ActionKind.IGNORE_TRK, None)]

    def test_class_mismatch_blocks_assign(self):
        spec = simple_spec(
            {1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "person", 0)},
            [("car", 99, BBox2D(1, 1, 20, 20))],
        )
        per_track, _ = candidate_actions(spec)
        assert {a.kind for a in per_track[1]} == {ActionKind.HALT}

    def test_iou_threshold_blocks_assign(self):
        th = Thresholds(iou_thresh=0.9)
        spec = simple_spec(
            {1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0)},
            [("car", 99, BBox2D(5, 5, 20, 20))],
            thresholds=th,
        )
        per_track, _ = candidate_actions(spec)
        assert {a.kind for a in per_track[1]} == {ActionKind.HALT}


class TestLinkEvents:
    def test_halt_with_occluder_hides_behind(self):
        spec = simple_spec(
            {
                1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0),
                2: (BBox2D(5, 5, 40, 40), TrackState.ACTIVE, "bus", 0),
            },
            [],
        )
        event = link_events(spec, ActionKind.HALT, 1)
        # the fixed order prefers the occlusion explanation to the
        # missing detections that are possible too
        assert event == EventOccurrence(EventKind.HIDES_BEHIND, 10, 1, occluder=2)
        assert possible(spec, EventKind.MISSING_DETECTIONS, 1)

    def test_resume_of_hidden_track_unhides(self):
        def setup(s):
            apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2))

        spec = simple_spec(
            {
                1: (BBox2D(0, 0, 20, 20), TrackState.HALTED, "car", 4),
                2: (BBox2D(5, 5, 40, 40), TrackState.ACTIVE, "bus", 0),
            },
            [("car", 99, BBox2D(0, 0, 20, 20))],
            fluent_setup=setup,
        )
        event = link_events(spec, ActionKind.RESUME, 1, 0)
        assert event == EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 10, 1, occluder=2)
        assert not possible(spec, EventKind.RECOVER, 1)

    def test_halt_without_occluder_only_missing_detections(self):
        spec = simple_spec(
            {1: (BBox2D(100, 100, 20, 20), TrackState.ACTIVE, "car", 0)}, []
        )
        assert link_events(spec, ActionKind.HALT, 1) == EventOccurrence(
            EventKind.MISSING_DETECTIONS, 10, 1
        )

    def test_end_interior_young_track_unexplainable(self):
        spec = simple_spec(
            {1: (BBox2D(100, 100, 20, 20), TrackState.HALTED, "car", 2)}, []
        )
        assert link_events(spec, ActionKind.END, 1) is None

    def test_end_at_boundary_leaves_fov(self):
        spec = simple_spec(
            {1: (BBox2D(2, 100, 20, 20), TrackState.HALTED, "car", 2)}, []
        )
        assert link_events(spec, ActionKind.END, 1) == EventOccurrence(EventKind.LEAVES_FOV, 10, 1)

    def test_end_overdue_lost(self):
        spec = simple_spec(
            {1: (BBox2D(100, 100, 20, 20), TrackState.HALTED, "car", 31)}, []
        )
        assert link_events(spec, ActionKind.END, 1) == EventOccurrence(EventKind.LOST, 10, 1)
        assert not possible(spec, EventKind.LEAVES_FOV, 1)

    def test_builds_the_one_occurrence_it_returns(self, monkeypatch):
        # An interior halted track younger than max_halted_age: leaves_fov
        # and lost both fail before noise explains its ignore_trk.  Three
        # preconditions are tested and one occurrence is built, the event
        # returned; a link that returns None builds none.
        tested, built = [], []

        def counted_possible(*args):
            tested.append(args[1])
            return possible(*args)

        def counted_occurrence(*args):
            built.append(EventOccurrence(*args))
            return built[-1]

        monkeypatch.setattr(abduction, "possible", counted_possible)
        monkeypatch.setattr(abduction, "EventOccurrence", counted_occurrence)
        spec = simple_spec({1: (BBox2D(100, 100, 20, 20), TrackState.HALTED, "car", 2)}, [])
        assert link_events(spec, ActionKind.END, 1) is None
        assert tested == [EventKind.LEAVES_FOV, EventKind.LOST] and built == []
        kind, event = abduction._explained(spec, 1, None, ActionKind.END)
        assert (kind, event) == (ActionKind.IGNORE_TRK, EventOccurrence(EventKind.NOISE, 10, 1))
        assert tested[2:] == [EventKind.LEAVES_FOV, EventKind.LOST, EventKind.NOISE]
        assert built == [event] and built[0] is event


def _active(spec):
    return [t for t, p in spec.predictions.items() if p.state == TrackState.ACTIVE]


def _halt_event(spec, t):
    return link_events(spec, ActionKind.HALT, t)


def _hide_or_clip(spec, rng):
    """Make two active tracks clipped or not visible, a state no engine
    reaches, so that their halts need an occluder or have no event."""
    active = _active(spec)
    if len(active) < 2:
        return
    for t in rng.choice(active, size=2, replace=False).tolist():
        if rng.random() < 0.8:
            kind, occluder = EventKind.MISSING_DETECTIONS, None
        else:
            kind, occluder = EventKind.HIDES_BEHIND, active[0]
        if possible(spec, kind, t, occluder):
            apply_event(spec.fluents, EventOccurrence(kind, 0, t, occluder))


def _relabelled(spec):
    """The spec with its detection ids in the reverse of their positions
    and none equal to its position, so the tie-break's detection id
    order runs against the matrix columns."""
    n = len(spec.detections)
    return _with_detection_ids(spec, [3 * n - 2 * j for j in range(n)])


def _reversed(spec):
    """The spec with its detection ids the positions reversed, so that an
    id taken for a position picks another detection instead of none."""
    n = len(spec.detections)
    return _with_detection_ids(spec, [n - 1 - j for j in range(n)])


def _with_detection_ids(spec, ids):
    new_id = {d.id: i for d, i in zip(spec.detections, ids)}
    return dataclasses.replace(
        spec,
        detections=tuple(dataclasses.replace(d, id=new_id[d.id]) for d in spec.detections),
        likelihoods={(t, new_id[d]): ml for (t, d), ml in spec.likelihoods.items()},
    )


def _expected_options(spec):
    """The explained options, derived from the integrity rules and
    link_events alone: per track its edges in detection id order, each
    resume linked on its own, then the first explained fallback; per
    detection the first explained of start, ignore_det."""
    config = spec.config

    def first(*actions):
        for a in actions:
            if (event := link_events(spec, a.kind, a.trk, a.det)) is not None:
                return [dataclasses.replace(a, event=event)]
        return []

    per_track = {}
    for t, p in sorted(spec.predictions.items()):
        opts = []
        for d in sorted(spec.detections, key=lambda d: d.id):
            if d.cls != p.cls:
                continue
            if p.state == TrackState.ACTIVE:
                ml = spec.likelihoods.get((t, d.id), 0)
                if d.conf > config.conf_thresh_assign and ml > config.iou_thresh_scaled:
                    opts.append(Action(ActionKind.ASSIGN, t, d.id))
            elif d.conf > config.conf_thresh_resume:
                opts += first(Action(ActionKind.RESUME, t, d.id))
        if p.state == TrackState.ACTIVE:
            opts.append(Action(ActionKind.HALT, trk=t))
        else:
            opts += first(Action(ActionKind.END, trk=t), Action(ActionKind.IGNORE_TRK, trk=t))
        per_track[t] = opts
    per_det = {}
    for d in spec.detections:
        start = d.conf > config.conf_thresh_new_track and d.box.area > config.size_threshold
        probes = [Action(ActionKind.START, det=d.id)] if start else []
        per_det[d.id] = first(*probes, Action(ActionKind.IGNORE_DET, det=d.id))
    return per_track, per_det


class TestExplanationLinking:
    def test_detection_ids_not_positions(self):
        inside, outside = BBox2D(100, 100, 20, 20), BBox2D(500, 500, 20, 20)
        preds = {1: TrackPrediction(BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car")}
        detections = (Detection(9, "car", 99, outside), Detection(4, "car", 99, inside))
        fluents = FluentStore()
        fluents.register_track(1)
        spec = ProblemSpec(
            frame=10,
            detections=detections,
            predictions=preds,
            likelihoods=scaled_likelihoods(preds, detections),
            fluents=fluents,
            frame_geom=(320.0, 320.0),
        )
        result = solve(spec)
        assert result == solve_oracle(spec)
        enters = [e.subject for e in result.events if e.kind == EventKind.ENTERS_FOV]
        assert enters == [4]
        assert {a.pretty() for a in result.actions} == {
            "halt(trk_1)", "start(det_4)", "ignore_det(det_9)"
        }

    def test_links_no_assign_and_each_explanation_once(self, monkeypatch):
        calls = []
        original = abduction.link_events

        def counting(spec, kind, trk=None, det=None):
            calls.append(Action(kind, trk, det))
            return original(spec, kind, trk, det)

        monkeypatch.setattr(abduction, "link_events", counting)
        box = BBox2D(100, 100, 20, 20)
        spec = simple_spec(
            {
                1: (box, TrackState.ACTIVE, "car", 0),
                2: (BBox2D(200, 100, 20, 20), TrackState.HALTED, "car", 3),
            },
            [("car", 99, box), ("car", 99, box.translated(1, 0)), ("car", 99, box.translated(0, 1))],
            fluent_setup=lambda s: apply_event(
                s, EventOccurrence(EventKind.MISSING_DETECTIONS, 7, 2)
            ),
        )
        result = solve(spec)
        assert "resume(trk_2,det_1)" in {a.pretty() for a in result.actions}
        assert ActionKind.ASSIGN not in {a.kind for a in calls}
        # the assigned track's halt is never linked
        assert Action(ActionKind.HALT, trk=1) not in calls
        resumes = [a for a in calls if a.kind == ActionKind.RESUME]
        assert len(resumes) == 1  # one explanation for three resume candidates
        keys = [(a.kind, a.trk, a.det if a.trk is None else None) for a in calls]
        assert len(keys) == len(set(keys))

    def test_links_no_option_for_a_forced_detection(self, monkeypatch):
        linked = []
        original = abduction.link_events

        def counting(spec, kind, trk=None, det=None):
            linked.append(det)
            return original(spec, kind, trk, det)

        monkeypatch.setattr(abduction, "link_events", counting)
        box1, box2 = BBox2D(40, 40, 30, 30), BBox2D(150, 40, 30, 30)
        spec = simple_spec(
            {1: (box1, TrackState.ACTIVE, "car", 0), 2: (box2, TrackState.ACTIVE, "car", 0)},
            [("car", 99, box1.translated(2, 0)), ("car", 99, BBox2D(100, 200, 30, 30)),
             ("car", 99, box2.translated(0, 2))],
        )
        assert [a.pretty() for a in solve(spec).actions] == [
            "assign(trk_1,det_0)", "assign(trk_2,det_2)", "start(det_1)"
        ]
        assert [d for d in linked if d is not None] == [1]
        # the oracle's view still gives every detection its option
        linked.clear()
        _, per_det = candidate_actions(spec)
        assert [(d, [a.pretty() for a in opts]) for d, opts in per_det.items()] == [
            (0, ["start(det_0)"]), (1, ["start(det_1)"]), (2, ["start(det_2)"])
        ]
        assert [d for d in linked if d is not None] == [0, 1, 2]

    def test_admissible_iff_linkable_and_cover_carries_first_event(self):
        # Random specs of 10-60 tracks, every other one with fluents no
        # engine reaches (active tracks clipped or not visible), so that
        # some halts are explained only by an occluder, or by nothing.
        rng = np.random.default_rng(32)
        seen = Counter()
        for k in range(120):
            spec = make_random_spec(rng, max_tracks=60, max_dets=30, min_tracks=10)
            if k % 2:
                _hide_or_clip(spec, rng)

            assert candidate_actions(spec) == _expected_options(spec)
            unexplained = [t for t in _active(spec) if _halt_event(spec, t) is None]

            try:
                result = solve(spec)
            except EngineBugError as err:
                # only for a cover halt that no event explains
                assert any(f"track {t} has no explainable fallback" in str(err) for t in unexplained)
                seen["raised"] += 1
                continue
            seen["solved past an unexplained halt"] += bool(unexplained)
            for a in result.actions:
                linked = (
                    None if a.kind == ActionKind.ASSIGN else link_events(spec, a.kind, a.trk, a.det)
                )
                assert a.event == linked
                if a.kind == ActionKind.HALT and not possible(
                    spec, EventKind.MISSING_DETECTIONS, a.trk
                ):
                    seen["halt explained by an occluder"] += 1
        assert len(seen) == 3 and min(seen.values()) > 0, seen

    def test_halts_taken_as_admissible_give_the_strict_optimum(self, monkeypatch):
        # solve tries halts as admissible and links only the cover's.  On
        # small specs with hand-set fluents it must return the oracle's
        # optimum over the strictly admissible actions, and raise only
        # where its cover holds a halt that no event explains.
        def strict(spec):
            cands, det_opts = candidate_actions(spec)
            cands = {
                t: [a for a in acts if a.kind != ActionKind.HALT or link_events(spec, a.kind, t)]
                for t, acts in cands.items()
            }
            return cands, det_opts

        rng = np.random.default_rng(41)
        seen = Counter()
        for _ in range(400):
            spec = make_random_spec(rng, min_tracks=2)
            _hide_or_clip(spec, rng)
            with monkeypatch.context() as m:
                m.setattr(abduction, "candidate_actions", strict)
                try:
                    expected = solve_oracle(spec)
                except EngineBugError:  # no cover of strictly admissible actions
                    expected = None
            try:
                result = solve(spec)
            except EngineBugError:
                assert any(_halt_event(spec, t) is None for t in _active(spec))
                seen["raised"] += 1
                continue
            assert result == expected
            seen["equal past an unexplained halt"] += any(
                _halt_event(spec, t) is None for t in _active(spec)
            )
        assert seen["raised"] > 0 and seen["equal past an unexplained halt"] > 0, seen


def _edge_case_spec(rng):
    """Active tracks on edge-case boxes (see ``edge_case_boxes``), given
    in shuffled id order, some hidden behind another or clipped."""
    boxes = edge_case_boxes(rng, int(rng.integers(2, 30)))
    ids = rng.choice(100, size=len(boxes), replace=False).tolist()
    fluents = FluentStore()
    for t in ids:
        fluents.register_track(t)
    for t in ids:
        roll = rng.random()
        if roll < 0.2 and t != ids[0]:
            apply_event(fluents, EventOccurrence(EventKind.HIDES_BEHIND, 0, t, occluder=ids[0]))
        elif roll < 0.4:
            apply_event(fluents, EventOccurrence(EventKind.MISSING_DETECTIONS, 0, t))
    return ProblemSpec(
        frame=1,
        detections=(),
        predictions={t: TrackPrediction(b, TrackState.ACTIVE, "car") for t, b in zip(ids, boxes)},
        likelihoods={},
        fluents=fluents,
        frame_geom=(320.0, 320.0),
    )


def _prefilter_cases(spec):
    """Count the ordered pairs of visible tracks that reach an edge case
    of the halt prefilter: sides that touch, equal bottoms that
    ``overlapping_top`` accepts, and pairs it rejects whose sides do
    intersect, with the occluder's bottom at or below, because their
    intersection area underflows to 0, their union overflows, or their
    ratio is tiny (a tiny box in a huge one)."""
    visible = [t for t in spec.predictions if spec.fluents.visibility(t) != Visibility.NOT_VISIBLE]
    cases = Counter()
    for t1, t2 in itertools.permutations(visible, 2):
        a, b = spec.predictions[t1].box, spec.predictions[t2].box
        iw = min(a.x2, b.x2) - max(a.x, b.x)
        ih = min(a.y2, b.y2) - max(a.y, b.y)
        exact = overlapping_top(a, b)
        cases["touching"] += iw == 0 and ih > 0
        cases["equal bottoms"] += exact and a.y2 == b.y2
        if iw > 0 and ih > 0 and b.y2 >= a.y2 and not exact:
            inter = iw * ih
            if inter == 0:
                cases["underflow"] += 1
            else:
                over = a.area + b.area - inter == math.inf
                cases["overflow" if over else "tiny ratio"] += 1
    return cases


def _assert_prefilter_exact(spec, t):
    """The halt prefilter keeps every occluder that the full scan of
    every other track finds possible, and the halt's abduced event is
    the scan's first: so the prefilter's events are the scan's.  Returns
    the scan's events."""
    events = halt_events_reference(spec, t)
    occluders = {e.occluder for e in events if e.kind is EventKind.HIDES_BEHIND}
    assert occluders <= set(domain._may_hide_behind(spec, t))
    assert link_events(spec, ActionKind.HALT, t) == next(iter(events), None)
    return events


class TestHaltPrefilter:
    # link_events judges a halt's occluders only among the tracks the
    # geometric prefilter keeps; that must not change its event.
    def test_equals_full_scan_on_random_specs(self):
        rng = np.random.default_rng(61)
        seen, cases = Counter(), Counter()
        for k in range(150):
            if k % 3 == 0:
                spec = make_random_spec(rng, max_tracks=60, max_dets=10, min_tracks=2)
                _hide_or_clip(spec, rng)
            elif k % 3 == 1:
                spec = _halted_heavy_spec(rng, int(rng.integers(2, 61)), 5)
            else:
                spec = _edge_case_spec(rng)
                cases.update(_prefilter_cases(spec))
            for t in spec.predictions:
                seen.update(e.kind for e in _assert_prefilter_exact(spec, t))
        assert seen[EventKind.HIDES_BEHIND] > 0 and seen[EventKind.MISSING_DETECTIONS] > 0, seen
        assert len(cases) == 5 and min(cases.values()) > 0, cases

    @pytest.mark.parametrize("n_tracks", [100, 200])
    def test_equals_full_scan_on_bench_frames(self, n_tracks, bench_frames):
        hides = 0
        for spec, _ in bench_frames(n_tracks):
            for t in spec.predictions:
                events = _assert_prefilter_exact(spec, t)
                hides += sum(e.kind is EventKind.HIDES_BEHIND for e in events)
        assert hides > 0


class TestSolve:
    def test_paper_frame_235(self):
        result = solve(frame235_spec())
        actions = {a.pretty() for a in result.actions}
        assert actions == {
            "halt(trk_13)",
            "assign(trk_15,det_0)",
            "assign(trk_12,det_1)",
            "assign(trk_8,det_2)",
            "assign(trk_3,det_3)",
            "assign(trk_7,det_4)",
            "ignore_det(det_5)",
        }
        hides = [e for e in result.events if e.kind == EventKind.HIDES_BEHIND]
        assert len(hides) == 1
        assert (hides[0].subject, hides[0].occluder, hides[0].frame) == (13, 12, 235)

    def test_paper_frame_268(self):
        result = solve(frame268_spec())
        pretty = {a.pretty() for a in result.actions}
        assert "resume(trk_13,det_1)" in pretty
        unhides = [e for e in result.events if e.kind == EventKind.UNHIDES_FROM_BEHIND]
        assert len(unhides) == 1
        assert (unhides[0].subject, unhides[0].occluder, unhides[0].frame) == (13, 12, 268)

    def test_empty_spec(self):
        spec = simple_spec({}, [])
        result = solve(spec)
        assert result.actions == ()
        assert result.objective == (0, 0, 0)

    def test_single_pair_assign(self):
        spec = simple_spec(
            {1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0)},
            [("car", 99, BBox2D(0, 0, 20, 20))],
        )
        result = solve(spec)
        assert [a.pretty() for a in result.actions] == ["assign(trk_1,det_0)"]
        ml = spec.likelihoods[(1, 0)]
        assert result.objective == (ml + 1, 0, 0)
        assert result == solve_oracle(spec)

    def test_cover_property(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            spec = make_random_spec(rng)
            result = solve(spec)
            trks = [a.trk for a in result.actions if a.trk is not None]
            dets = [a.det for a in result.actions if a.det is not None]
            assert sorted(trks) == sorted(spec.predictions)
            assert sorted(dets) == sorted(d.id for d in spec.detections)

    def test_constraint_soundness_fuzz(self):
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            spec = make_random_spec(rng, max_tracks=4, max_dets=4)
            result = solve(spec)
            for a in result.actions:
                k = a.kind
                if k == ActionKind.ASSIGN:
                    p, d = spec.predictions[a.trk], spec.detections[a.det]
                    assert p.state == TrackState.ACTIVE
                    assert p.cls == d.cls
                    assert d.conf > spec.config.conf_thresh_assign
                    assert spec.likelihoods[(a.trk, a.det)] > spec.config.iou_thresh_scaled
                elif k == ActionKind.RESUME:
                    p, d = spec.predictions[a.trk], spec.detections[a.det]
                    assert p.state == TrackState.HALTED
                    assert p.cls == d.cls
                    assert d.conf > spec.config.conf_thresh_resume
                elif k == ActionKind.START:
                    d = spec.detections[a.det]
                    assert d.conf > spec.config.conf_thresh_new_track
                    assert d.box.area > spec.config.size_threshold
                elif k in (ActionKind.END, ActionKind.IGNORE_TRK):
                    assert spec.predictions[a.trk].state == TrackState.HALTED
                elif k == ActionKind.HALT:
                    assert spec.predictions[a.trk].state == TrackState.ACTIVE

    def test_event_soundness(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            spec = make_random_spec(rng)
            for e in solve(spec).events:
                assert possible(spec, e.kind, e.subject, e.occluder)

    def test_iou_threshold_monotone_in_assign_count(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            spec = make_random_spec(rng, thresholds=Thresholds(iou_thresh=0.0))
            counts = []
            for t in (0.0, 0.1, 0.3, 0.5, 0.7):
                spec_t = ProblemSpec(
                    frame=spec.frame,
                    detections=spec.detections,
                    predictions=spec.predictions,
                    likelihoods=spec.likelihoods,
                    fluents=spec.fluents,
                    config=Thresholds(iou_thresh=t),
                    frame_geom=spec.frame_geom,
                )
                r = solve(spec_t)
                counts.append(sum(1 for a in r.actions if a.kind == ActionKind.ASSIGN))
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            spec = make_random_spec(rng)
            assert solve(spec) == solve(spec)

    def test_disjoint_fluent_effects_per_frame(self):
        from abdtrack.domain import touched_fluents

        rng = np.random.default_rng(14)
        for _ in range(500):
            result = solve(make_random_spec(rng))
            seen = set()
            for e in result.events:
                t = touched_fluents(e)
                assert not (t & seen)
                seen |= t


# One action of each kind and its (level 10 gain, level 3 cost, level 2
# cost), valued against a likelihood of 61,234 for (trk_1, det_0).
_OBJECTIVE_LEVELS = [
    (Action(ActionKind.ASSIGN, 1, 0), (61_235, 0, 0)),
    (Action(ActionKind.RESUME, 1, 0), (0, 0, 1)),
    (Action(ActionKind.HALT, 1), (0, 0, 0)),
    (Action(ActionKind.END, 1), (0, 0, 5)),
    (Action(ActionKind.IGNORE_TRK, 1), (0, 10, 0)),
    (Action(ActionKind.START, det=0), (0, 0, 5)),
    (Action(ActionKind.IGNORE_DET, det=0), (0, 10, 0)),
]


class TestObjective:
    spec = dataclasses.replace(simple_spec({}, []), likelihoods={(1, 0): 61_234})

    def test_table_has_every_kind(self):
        assert {a.kind for a, _ in _OBJECTIVE_LEVELS} == set(ActionKind)

    @pytest.mark.parametrize(
        "action, levels", _OBJECTIVE_LEVELS, ids=[a.kind.value for a, _ in _OBJECTIVE_LEVELS]
    )
    def test_one_action(self, action, levels):
        assert abduction._objective(self.spec, (action,)) == levels

    def test_levels_add_over_actions(self):
        actions = [a for a, _ in _OBJECTIVE_LEVELS]
        assert abduction._objective(self.spec, actions) == (61_235, 20, 11)
        assert abduction._objective(self.spec, []) == (0, 0, 0)


class TestOracle:
    def test_refuses_large_instances(self):
        tracks = {
            i: (BBox2D(30 * i, 0, 20, 20), TrackState.ACTIVE, "car", 0) for i in range(6)
        }
        spec = simple_spec(tracks, [])
        with pytest.raises(ValueError):
            solve_oracle(spec)

    def test_equivalence_batch(self, monkeypatch):
        # Also counts the specs where the oracle valued a cover holding an
        # ignore that candidate_actions leaves out as dominated.
        objective = abduction._objective
        valued = set()

        def valuing(spec, actions):
            valued.update(a.pretty() for a in actions if a.event and a.event.kind == EventKind.NOISE)
            return objective(spec, actions)

        monkeypatch.setattr(abduction, "_objective", valuing)
        rng = np.random.default_rng(15)
        dominated_enumerated = 0
        for _ in range(400):
            spec = make_random_spec(rng)
            for s in (spec, _relabelled(spec)):
                per_track, per_det = candidate_actions(s)
                left_out = {
                    f"ignore_trk(trk_{t})" for t, acts in per_track.items()
                    if acts[-1].kind == ActionKind.END
                } | {
                    f"ignore_det(det_{d})" for d, acts in per_det.items()
                    if acts[0].kind == ActionKind.START
                }
                valued.clear()
                r = solve(s)
                # solve's cover, also valued here, holds no dominated ignore
                assert not left_out & valued
                ro = solve_oracle(s)
                dominated_enumerated += bool(left_out & valued)
                assert r.objective == ro.objective
                assert r.actions == ro.actions
                assert r.events == ro.events
        assert dominated_enumerated > 0

    def test_degenerate_all_active_no_overlap(self):
        # nothing overlaps: every track halts, every detection starts or
        # is ignored, exactly as the constraints dictate
        spec = simple_spec(
            {
                1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0),
                2: (BBox2D(40, 0, 20, 20), TrackState.ACTIVE, "car", 0),
            },
            [("car", 99, BBox2D(100, 100, 20, 20)), ("car", 10, BBox2D(200, 200, 20, 20))],
        )
        r = solve(spec)
        assert r == solve_oracle(spec)
        by_trk = {a.trk: a.kind for a in r.actions if a.trk is not None}
        by_det = {a.det: a.kind for a in r.actions if a.trk is None}
        assert by_trk == {1: ActionKind.HALT, 2: ActionKind.HALT}
        assert by_det == {0: ActionKind.START, 1: ActionKind.IGNORE_DET}

    def test_all_zero_iou(self):
        spec = simple_spec(
            {
                1: (BBox2D(0, 0, 20, 20), TrackState.ACTIVE, "car", 0),
                2: (BBox2D(250, 250, 20, 20), TrackState.HALTED, "car", 2),
            },
            [("car", 99, BBox2D(100, 100, 20, 20))],
            fluent_setup=lambda s: apply_event(
                s, EventOccurrence(EventKind.MISSING_DETECTIONS, 1, 2)
            ),
        )
        r = solve(spec)
        assert r == solve_oracle(spec)
        kinds = {a.trk: a.kind for a in r.actions if a.trk is not None}
        assert kinds[1] == ActionKind.HALT
        # halted track resumes on the high-confidence detection (no IoU
        # requirement on resume), beating a fresh start
        assert kinds[2] == ActionKind.RESUME


class TestLargeInstances:
    def test_equals_reference_solver(self, counted_solve):
        # past the oracle's limit: 10x10 to 60x60, about a third of the tracks
        # halted (resume ties) and duplicated detection boxes (exact ties)
        rng = np.random.default_rng(31)
        for _ in range(300):
            spec = make_random_spec(rng, max_tracks=60, max_dets=60, min_tracks=10, min_dets=10)
            assert counted_solve(spec) == solve_reference(spec)
            relabelled = _relabelled(spec)
            assert counted_solve(relabelled) == solve_reference(relabelled)
        counts = counted_solve.counts
        assert all(counts[r] > 0 for r in ("forced", "mixed")), counts

    def test_frame_of_separated_pairs_past_the_folding_limit_solves(self, monkeypatch):
        # 1000x1000, past the size one block could once fold exactly in
        # float64 (742x742); each pair here is a forced assign, so the
        # frame needs no matching.
        monkeypatch.setattr(abduction, "linear_sum_assignment", _no_matching)
        boxes = [BBox2D(30.0 * (i % 40), 30.0 * (i // 40), 20, 20) for i in range(1000)]
        spec = ProblemSpec(
            frame=1,
            detections=tuple(Detection(j, "car", 90, box) for j, box in enumerate(boxes)),
            predictions={
                t: TrackPrediction(box, TrackState.ACTIVE, "car") for t, box in enumerate(boxes)
            },
            likelihoods={(t, t): IOU_SCALE for t in range(1000)},
            fluents=FluentStore(),
            frame_geom=(1200.0, 750.0),
        )
        result = solve(spec)
        assert [(a.kind, a.trk, a.det) for a in result.actions] == [
            (ActionKind.ASSIGN, t, t) for t in range(1000)
        ]

    def test_block_past_the_former_folding_limit_solves(self, large_block):
        # One active track with two assign edges joins 2000 halted tracks
        # of its class and their 400 resumable detections into one
        # matching, which float64 could not fold exactly.  Five forced
        # pairs of another class make the frame larger than the matching.
        # The active track takes its likelier detection; the other 399 are
        # resumed by the lowest-id halted tracks, all on the same fallback,
        # each on the lowest free detection id.
        spec, result, _ = large_block
        assign, resume, ignore = ActionKind.ASSIGN, ActionKind.RESUME, ActionKind.IGNORE_TRK
        assert [(a.kind, a.trk, a.det) for a in result.actions] == [
            (assign, 0, 0),
            *((resume, t, t) for t in range(1, 400)),
            *((ignore, t, None) for t in range(400, 2001)),
            *((assign, 2001 + k, 400 + k) for k in range(5)),
        ]
        level10 = 80_000 + 1 + 5 * (IOU_SCALE + 1)
        assert result.objective == abduction._objective(spec, result.actions)
        assert result.objective == (level10, 10 * 1601, 399)


def _no_matching(*args, **kwargs):
    raise AssertionError("a matching was solved")


class TestOneMatching:
    def test_pure_resume_components_equal_the_oracle(self, counted_solve):
        # A forced assign whose detection is also resumable, then two
        # components of resumes alone, solved in the one matching: car,
        # with more tracks than detections and fallbacks ignore_trk, end
        # by leaves_fov and end by lost; person, with more detections than
        # tracks, one starting and one only ignorable.
        halted = TrackState.HALTED
        spec = simple_spec(
            {
                1: (BBox2D(40, 40, 30, 30), TrackState.ACTIVE, "car", 0),
                3: (BBox2D(100, 150, 30, 30), halted, "car", 3),
                4: (BBox2D(2, 200, 30, 30), halted, "car", 3),
                5: (BBox2D(200, 150, 30, 30), halted, "car", 40),
                7: (BBox2D(250, 250, 30, 30), halted, "person", 5),
            },
            [
                ("car", 90, BBox2D(40, 40, 30, 30)),
                ("car", 90, BBox2D(150, 280, 8, 8)),  # too small to start
                ("car", 90, BBox2D(100, 100, 30, 30)),
                ("person", 90, BBox2D(60, 250, 40, 40)),
                ("person", 90, BBox2D(400, 100, 30, 30)),  # outside
            ],
            fluent_setup=lambda s: [
                apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 1, t))
                for t in (3, 4, 5, 7)
            ],
        )
        result = counted_solve(spec)
        assert [a.pretty() for a in result.actions] == [
            "assign(trk_1,det_0)",
            "resume(trk_3,det_1)",
            "resume(trk_4,det_2)",
            "end(trk_5)",
            "resume(trk_7,det_4)",
            "start(det_3)",
        ]
        assert result.events[2] == EventOccurrence(EventKind.LOST, 10, 5)
        for s in (spec, _relabelled(spec), _reversed(spec)):
            assert counted_solve(s) == solve_reference(s) == solve_oracle(s)


def _random_gains(rng, n_rows, n_cols, density, top):
    """Per row, gains in 1..top on a random subset of the columns, keyed
    in a random order (a row's order ranks its columns)."""
    return [
        {j: int(rng.integers(1, top + 1)) for j in rng.permutation(n_cols).tolist()
         if rng.random() < density}
        for _ in range(n_rows)
    ]


def _canonical_by_enumeration(rows):
    """The best of every matching, by gain, then by each row's choice in
    row order (its columns in its key order, then none).  The matchings
    are visited in that choice order, so the first of the highest gain
    is kept."""
    best, choice = [-1, None], []

    def visit(i, used, total):
        if i == len(rows):
            if total > best[0]:
                best[:] = total, choice[:]
            return
        for j, g in [*rows[i].items(), (-1, 0)]:
            if j not in used:
                choice.append(j)
                visit(i + 1, used | {j} - {-1}, total + g)
                choice.pop()

    visit(0, frozenset(), 0)
    return best[1]


class TestBlockSolver:
    def test_optimum_equals_scipy_and_duals_certify_it(self):
        rng = np.random.default_rng(41)
        shapes = Counter()
        for _ in range(400):
            n_rows, n_cols = (int(n) for n in rng.integers(1, 30, size=2))
            density = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
            top = int(rng.choice([1, 3, 1000]))  # 1 and 3: many tied gains
            rows = _random_gains(rng, n_rows, n_cols, density, top)
            result = abduction.linear_sum_assignment(rows, n_cols)
            assert_certificate(rows, n_cols, result)
            dense = np.zeros((n_rows, n_cols), dtype=np.int64)
            for i, row in enumerate(rows):
                dense[i, list(row)] = list(row.values())
            r, c = scipy_lsap(dense, maximize=True)
            assert result[0] == dense[r, c].sum()
            # past float64: the same gains times 2**60 keep the same matchings
            big = [{j: g << 60 for j, g in row.items()} for row in rows]
            scaled = abduction.linear_sum_assignment(big, n_cols)
            assert_certificate(big, n_cols, scaled)
            assert scaled[0] == result[0] << 60
            shapes[(n_rows > n_cols) - (n_rows < n_cols), top] += 1
        assert all(shapes[s, top] for s in (-1, 1) for top in (1, 3, 1000)), shapes

    def test_empty_rows_and_columns(self):
        assert abduction.linear_sum_assignment([], 0) == (0, [], [], [])
        assert abduction.linear_sum_assignment([{}, {}], 3) == (0, [-1, -1], [0, 0], [0, 0, 0])

    def test_canonical_matching_equals_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n_rows, n_cols = (int(n) for n in rng.integers(1, 6, size=2))
            top = int(rng.choice([1, 2, 5]))
            rows = _random_gains(rng, n_rows, n_cols, float(rng.choice([0.4, 0.8, 1.0])), top)
            _, match, u, v = abduction.linear_sum_assignment(rows, n_cols)
            canonical = abduction.canonical_matching(rows, match, u, v)
            assert canonical == _canonical_by_enumeration(rows)

    def test_canonical_matching_searches_from_both_sides(self, monkeypatch):
        # Small dense rows with gains in 1..3 tie often, so the exchange
        # searches from the row and from the column it frees, and each
        # search both finds a path and fails, many times over.
        outcomes = Counter()
        search = abduction._cover

        def counted(start, i, from_row, *args):
            found = search(start, i, from_row, *args)
            outcomes[from_row, found] += 1
            return found

        monkeypatch.setattr(abduction, "_cover", counted)
        rng = np.random.default_rng(47)
        for _ in range(3000):
            n_rows, n_cols = (int(n) for n in rng.integers(1, 7, size=2))
            rows = _random_gains(rng, n_rows, n_cols, float(rng.uniform(0.6, 1.0)), 3)
            _, match, u, v = abduction.linear_sum_assignment(rows, n_cols)
            canonical = abduction.canonical_matching(rows, match, u, v)
            assert canonical == _canonical_by_enumeration(rows)
        assert all(outcomes[key] >= 10 for key in itertools.product((True, False), repeat=2)), (
            outcomes
        )

    @pytest.mark.parametrize("n_tracks", [50, 100, 200, 400])
    def test_duals_certify_each_whole_frame_of_the_bench_frames(
        self, n_tracks, bench_frames, counted_solve
    ):
        # At most one solver call per frame, for all of the frame's tracks
        # left after the forced assigns; its duals prove its matching
        # optimal, and with the forced assigns' gains the whole cover
        # (counted_solve checks all three).
        for spec, result in bench_frames(n_tracks):
            assert counted_solve(spec) == result
        assert counted_solve.counts["matchings"] > 0


def _halted_heavy_spec(rng, n_tracks, n_dets):
    """A spec of mostly halted tracks in 2-3 classes, with mixed fallbacks:
    halted tracks end by leaves_fov (at the border) or lost (overdue), or
    are only ignorable (inside and young); detections start, or are only
    ignorable (unconfident, small or outside the frame).  Each halted
    track is hidden behind an active one or clipped, so its resume is
    explained; the active tracks' boxes bait assigns and exact ties."""
    classes = ["car", "person", "bus"][: int(rng.integers(2, 4))]
    fluents = FluentStore()
    preds = {}
    track_ids = sorted(rng.choice(200, size=n_tracks, replace=False).tolist())
    for t in track_ids:
        fluents.register_track(t)
        cls = str(rng.choice(classes))
        box = BBox2D(*rng.uniform(20, 250, size=2).tolist(), *rng.uniform(8, 40, size=2).tolist())
        if rng.random() < 0.2:
            preds[t] = TrackPrediction(box, TrackState.ACTIVE, cls)
            continue
        roll, age = rng.random(), int(rng.integers(0, 31))
        if roll < 0.3:
            box = BBox2D(float(rng.uniform(-20, 5)), box.y, box.w, box.h)
        elif roll < 0.55:
            age = int(rng.integers(31, 60))
        preds[t] = TrackPrediction(box, TrackState.HALTED, cls, age)
    active = [t for t in track_ids if preds[t].state == TrackState.ACTIVE]
    for t in track_ids:
        if preds[t].state == TrackState.HALTED:
            if active and rng.random() < 0.4:
                e = EventOccurrence(EventKind.HIDES_BEHIND, 0, t, occluder=int(rng.choice(active)))
            else:
                e = EventOccurrence(EventKind.MISSING_DETECTIONS, 0, t)
            apply_event(fluents, e)
    dets = []
    for j in range(n_dets):
        roll = rng.random()
        if active and roll < 0.3:
            box = preds[int(rng.choice(active))].box.translated(*rng.uniform(-3, 3, size=2))
        elif dets and roll < 0.45:
            box = dets[int(rng.integers(len(dets)))].box
        elif roll < 0.6:
            box = BBox2D(float(rng.uniform(330, 400)), 100.0, 30.0, 30.0)  # outside
        else:
            side = float(rng.choice([5.0, 30.0]))  # too small to start, or not
            box = BBox2D(*rng.uniform(0, 280, size=2).tolist(), side, side)
        conf = int(rng.choice([20, 45, 60, 90]))
        dets.append(Detection(j, str(rng.choice(classes)), conf, box))
    return ProblemSpec(
        frame=int(rng.integers(1, 500)),
        detections=tuple(dets),
        predictions=preds,
        likelihoods=scaled_likelihoods(preds, dets),
        fluents=fluents,
        frame_geom=(320.0, 320.0),
    )


class TestHaltedHeavy:
    # Resume rows dominate these specs: a halted row's resume cells hold
    # its fallback's value and are keyed by detection id, and mixed
    # fallbacks make the rows differ, so both show in the cover.
    def test_equals_reference_solver(self, counted_solve):
        rng = np.random.default_rng(51)
        seen = Counter()
        for _ in range(60):
            spec = _halted_heavy_spec(rng, int(rng.integers(10, 61)), int(rng.integers(5, 41)))
            for s in (spec, _relabelled(spec), _reversed(spec)):
                result = counted_solve(s)
                assert result == solve_reference(s)
                seen.update(a.kind for a in result.actions)
        assert all(seen[k] > 0 for k in ActionKind), seen
        counts = counted_solve.counts
        assert all(counts[r] > 0 for r in ("forced", "mixed")), counts

    def test_equals_oracle_within_its_limit(self):
        rng = np.random.default_rng(52)
        seen = Counter()
        for _ in range(300):
            spec = _halted_heavy_spec(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            for s in (spec, _relabelled(spec), _reversed(spec)):
                result = solve(s)
                assert result == solve_oracle(s)
                assert result == solve_reference(s)
                seen.update(a.kind for a in result.actions)
        assert all(seen[k] > 0 for k in ActionKind), seen


class TestOneOptionTable:
    def test_dropping_an_option_changes_solve_and_oracle(self, monkeypatch):
        # Both solvers read the table: drop the first edge of each cover
        # from it, and both covers change, and still agree.
        table = abduction._option_table
        rng = np.random.default_rng(53)
        dropped = 0
        for _ in range(40):
            spec = make_random_spec(rng)
            before = solve(spec)
            assert before == solve_oracle(spec)
            edges = [a for a in before.actions if a.kind in (ActionKind.ASSIGN, ActionKind.RESUME)]
            if not edges:
                continue

            def dropping(s, edge=edges[0]):
                tracks, forced = table(s)
                option, dids, fallback = tracks[edge.trk]
                tracks[edge.trk] = option, [d for d in dids if d != edge.det], fallback
                if forced.get(edge.det) == edge.trk:
                    del forced[edge.det]
                return tracks, forced

            with monkeypatch.context() as m:
                m.setattr(abduction, "_option_table", dropping)
                after, oracle = solve(spec), solve_oracle(spec)
            assert edges[0] not in after.actions and after != before
            assert oracle == after
            dropped += 1
        assert dropped > 10


def _assert_result_order(spec, result):
    """solve's result contract: one action per track in ascending id, then
    the detection-only actions in ascending detection id; the events are
    the actions' in that order; the objective is the cover's, and _result
    makes the same result from the cover in any order."""
    actions = result.actions
    n = len(spec.predictions)
    assert [a.trk for a in actions[:n]] == sorted(spec.predictions)
    dets = [a.det for a in actions[n:]]
    assert all(a.trk is None for a in actions[n:]) and dets == sorted(dets)
    assert result.events == tuple(a.event for a in actions if a.event is not None)
    assert result.objective == abduction._objective(spec, actions)
    assert result == abduction._result(spec, list(reversed(actions)))


class TestCoverOrder:
    # solve builds its result in order; the oracle and the reference
    # solver make theirs by _result.  All three score it by _objective.
    def test_random_and_relabelled_specs(self, counted_solve):
        rng = np.random.default_rng(71)
        for _ in range(200):
            spec = make_random_spec(rng, max_tracks=40, max_dets=40, min_tracks=1)
            for s in (spec, _relabelled(spec), _reversed(spec)):
                _assert_result_order(s, counted_solve(s))
        counts = counted_solve.counts
        assert all(counts[r] > 0 for r in ("forced", "mixed", "no edge")), counts

    def test_halted_heavy_and_edge_case_specs(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            spec = _halted_heavy_spec(rng, int(rng.integers(2, 61)), int(rng.integers(1, 41)))
            for s in (spec, _relabelled(spec), _reversed(spec)):
                _assert_result_order(s, solve(s))
        solved = 0
        for _ in range(300):
            try:
                result = solve(spec := _edge_case_spec(rng))
            except EngineBugError:  # a clipped track's halt has no event
                continue
            _assert_result_order(spec, result)
            solved += 1
        assert solved > 10

    @pytest.mark.parametrize("n_tracks", [50, 100, 200])
    def test_bench_frames(self, n_tracks, counted_solve, bench_frames):
        # Crowded frames: one matching between forced assigns.
        for spec, result in bench_frames(n_tracks):
            assert counted_solve(spec) == result
            _assert_result_order(spec, result)
            reordered = _reversed(spec)
            _assert_result_order(reordered, counted_solve(reordered))
        counts = counted_solve.counts
        assert counts["forced"] > 0 and counts["mixed"] > 0, counts


class TestOptionTableEdges:
    def test_edges_kept_in_sweep_order_come_out_by_id(self):
        # The likelihoods list a track's pairs by (x, id), the sweep's
        # order; a class and a confidence failure lie between the kept
        # edges, det_3 (x=98) and det_0 (x=110).
        box = BBox2D(100, 100, 40, 40)
        preds = {1: TrackPrediction(box, TrackState.ACTIVE, "car")}
        dets = (
            Detection(0, "car", 90, box.translated(10, 0)),
            Detection(1, "person", 90, box.translated(-5, 0)),
            Detection(2, "car", 20, box),
            Detection(3, "car", 90, box.translated(-2, 0)),
        )
        fluents = FluentStore()
        fluents.register_track(1)
        spec = ProblemSpec(
            frame=10, detections=dets, predictions=preds,
            likelihoods=overlap_likelihoods([(1, box)], [(d.id, d.box) for d in dets]),
            fluents=fluents, frame_geom=(320.0, 320.0),
        )
        assert list(spec.likelihoods) == [(1, 1), (1, 3), (1, 2), (1, 0)]
        edge, dids, fallback = abduction._option_table(spec)[0][1]
        assert edge == (ActionKind.ASSIGN, None) and fallback == (ActionKind.HALT, None)
        assert dids == [0, 3]
        assert candidate_actions(spec) == _expected_options(spec)

    def test_halted_track_gets_resume_edges_only(self):
        box = BBox2D(100, 100, 40, 40)
        spec = simple_spec(
            {4: (box, TrackState.HALTED, "car", 2)},
            [("car", 90, box), ("car", 90, BBox2D(250, 250, 30, 30)), ("car", 40, box)],
            fluent_setup=lambda s: apply_event(
                s, EventOccurrence(EventKind.MISSING_DETECTIONS, 8, 4)
            ),
        )
        assert spec.likelihoods[4, 0] == IOU_SCALE
        (edge, dids, fallback), = abduction._option_table(spec)[0].values()
        assert edge == (ActionKind.RESUME, EventOccurrence(EventKind.RECOVER, 10, 4))
        assert dids == [0, 1]  # every confident car, overlapping or not
        assert [a.pretty() for a in solve(spec).actions[:1]] == ["resume(trk_4,det_0)"]

    def test_no_resume_link_when_forced_assigns_take_every_detection(self, monkeypatch):
        # Both confident cars are forced assigns of the active tracks, so
        # the halted car track 3 may resume on neither: the table links
        # no resume for it, and the cover is the one the oracle and the
        # reference solver find with those resumes tried.
        linked = []
        original = abduction.link_events

        def counting(spec, kind, trk=None, det=None):
            linked.append(kind)
            return original(spec, kind, trk, det)

        box1, box2 = BBox2D(40, 40, 30, 30), BBox2D(150, 40, 30, 30)
        spec = simple_spec(
            {
                1: (box1, TrackState.ACTIVE, "car", 0),
                2: (box2, TrackState.ACTIVE, "car", 0),
                3: (BBox2D(100, 200, 30, 30), TrackState.HALTED, "car", 3),
            },
            [("car", 99, box1.translated(2, 0)), ("car", 99, box2.translated(0, 2)),
             ("car", 40, BBox2D(100, 200, 30, 30))],
            fluent_setup=lambda s: apply_event(
                s, EventOccurrence(EventKind.MISSING_DETECTIONS, 7, 3)
            ),
        )
        assert link_events(spec, ActionKind.RESUME, 3) is not None
        monkeypatch.setattr(abduction, "link_events", counting)
        tracks, forced = abduction._option_table(spec)
        assert forced == {0: 1, 1: 2}
        assert tracks[3][:2] == ((ActionKind.RESUME, None), [])
        result = solve(spec)
        assert ActionKind.RESUME not in linked
        assert [a.pretty() for a in result.actions] == [
            "assign(trk_1,det_0)", "assign(trk_2,det_1)", "ignore_trk(trk_3)", "ignore_det(det_2)"
        ]
        linked.clear()
        per_track, _ = candidate_actions(spec)
        assert linked.count(ActionKind.RESUME) == 1  # the oracle's view tries them
        assert [a.pretty() for a in per_track[3]] == [
            "resume(trk_3,det_0)", "resume(trk_3,det_1)", "ignore_trk(trk_3)"
        ]
        assert result == solve_oracle(spec) == solve_reference(spec)

    def test_ended_track_raises(self):
        box = BBox2D(100, 100, 40, 40)
        spec = simple_spec({2: (box, TrackState.ENDED, "car", 0)}, [("car", 90, box)])
        assert spec.likelihoods == {(2, 0): IOU_SCALE}
        with pytest.raises(EngineBugError, match="ended track 2 in problem spec"):
            abduction._option_table(spec)
        with pytest.raises(EngineBugError, match="ended track 2 in problem spec"):
            solve(spec)


def _clipped(*tids):
    """Fluent setup that clips active tracks, a state no engine reaches:
    their halt is explained only by an occluder."""
    return lambda s: [
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 0, t)) for t in tids
    ]


class TestUnexplainedCoverHalt:
    def test_raises_for_a_track_with_no_edge(self):
        spec = simple_spec(
            {
                1: (BBox2D(40, 40, 30, 30), TrackState.ACTIVE, "car", 0),
                5: (BBox2D(150, 40, 30, 30), TrackState.ACTIVE, "car", 0),
            },
            [("car", 90, BBox2D(150, 40, 30, 30))],
            fluent_setup=_clipped(1),
        )
        assert _halt_event(spec, 1) is None
        with pytest.raises(EngineBugError, match=r"^track 1 has no explainable fallback action$"):
            solve(spec)

    def test_raises_for_a_track_a_mixed_block_leaves_on_its_fallback(self, monkeypatch):
        # Tracks 1 and 2 both claim det_0, and 2 overlaps it more; track
        # 2's bottom edge lies above track 1's, so 1 cannot hide behind it.
        # Track 1 is a row of the frame's one matching, which leaves it on
        # its halt: the raise comes after that matching is solved.
        box = BBox2D(100, 100, 40, 40)
        spec = simple_spec(
            {
                1: (box.translated(0, 10), TrackState.ACTIVE, "car", 0),
                2: (box, TrackState.ACTIVE, "car", 0),
            },
            [("car", 90, box)],
            fluent_setup=_clipped(1),
        )
        assert _halt_event(spec, 1) is None
        calls, solver = [], abduction.linear_sum_assignment

        def matching(rows, n_cols):
            calls.append(len(rows))
            return solver(rows, n_cols)

        monkeypatch.setattr(abduction, "linear_sum_assignment", matching)
        with pytest.raises(EngineBugError, match=r"^track 1 has no explainable fallback action$"):
            solve(spec)
        assert calls == [2]


class TestEmitFacts:
    def test_detection_line_format(self):
        spec = simple_spec({}, [("car", 99, BBox2D(1114, 450, 148, 270))], frame=235)
        text = emit_facts(spec)
        assert "det(det_0, car, 99)." in text.splitlines()
        assert "box2d(det_0, 1114, 450, 148, 270)." in text.splitlines()

    def test_empty_spec_only_const(self):
        spec = simple_spec({}, [], frame=5)
        assert emit_facts(spec) == "#const curr_time=5.\n"

    def test_zero_iou_pairs_omitted(self):
        spec = simple_spec(
            {7: (BBox2D(0, 0, 10, 10), TrackState.ACTIVE, "car", 0)},
            [("car", 99, BBox2D(200, 200, 10, 10))],
        )
        assert "iou(" not in emit_facts(spec)

    def test_iou_lines_ordered_and_spaced(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            spec = make_random_spec(rng)
            lines = [l for l in emit_facts(spec).splitlines() if l.startswith("iou(")]
            keys = []
            for l in lines:
                assert " " not in l
                t, d, ml = l[len("iou(") : -2].split(",")
                assert int(ml) > 0
                keys.append((int(d[4:]), int(t[4:])))
            assert keys == sorted(keys)

    def test_frame79_fact_lines(self):
        text = emit_facts(frame79_spec())
        lines = text.splitlines()
        assert lines[0] == "#const curr_time=79."
        assert "trk(trk_0, car)." in lines
        assert "trk_state(trk_0, halted)." in lines
        assert "box2d(trk_0, -42, 227, 249, 159)." in lines
        # iou lines carry no spaces and are ordered by detection then track
        iou_lines = [l for l in lines if l.startswith("iou(")]
        assert iou_lines[0].startswith("iou(trk_0,det_0,")
        assert iou_lines[1].startswith("iou(trk_11,det_0,")
