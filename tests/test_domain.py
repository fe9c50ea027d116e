import re
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from abdtrack.abduction import ProblemSpec, TrackPrediction, link_events
from abdtrack.domain import (
    EVENTS,
    TRACK,
    ActionKind,
    Detection,
    EngineBugError,
    EventKind,
    EventOccurrence,
    FluentStore,
    TrackState,
    Visibility,
    apply_event,
    possible,
    touched_fluents,
)
from abdtrack.geometry import BBox2D
from conftest import make_random_spec


def store_with(*tids):
    s = FluentStore()
    for t in tids:
        s.register_track(t)
    return s


class CountingStore(FluentStore):
    """A fluent store that records each query it answers, in order."""

    def __init__(self):
        super().__init__()
        self.queries = []

    def visibility(self, tid):
        self.queries.append(("visibility", tid))
        return super().visibility(tid)

    def clipped(self, tid):
        self.queries.append(("clipped", tid))
        return super().clipped(tid)


class TestHoldsAt:
    def test_fresh_track_defaults(self):
        s = store_with(1)
        assert s.visibility(1) == Visibility.FULLY_VISIBLE
        assert s.clipped(1) is False
        assert s.tracks() == {1} and s.hidden_pairs() == set()

    def test_hides_behind_makes_not_visible(self):
        s = store_with(1, 2)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2))
        assert s.visibility(1) == Visibility.NOT_VISIBLE

    def test_inertia_no_events(self):
        s = store_with(1, 2)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 3, 1))
        before = (s.visibility(1), s.clipped(1), s.hidden_by(1, 2), s.tracks())
        for _ in range(50):  # any number of event-free queries
            assert (s.visibility(1), s.clipped(1), s.hidden_by(1, 2), s.tracks()) == before

    def test_unknown_track_is_engine_bug(self):
        s = store_with(1)
        with pytest.raises(EngineBugError):
            s.visibility(99)
        with pytest.raises(EngineBugError):
            s.clipped(99)


class TestApplyEvent:
    def test_hidden_by_set(self):
        s = store_with(1, 2)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2))
        assert s.hidden_by(1, 2) is True
        assert s.hidden_by(2, 1) is False

    def test_missing_detections_sets_clipped(self):
        s = store_with(1)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 5, 1))
        assert s.clipped(1) is True

    def test_unrelated_fluents_unchanged(self):
        s = store_with(1, 2, 3)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2))
        assert s.visibility(3) == Visibility.FULLY_VISIBLE
        assert s.clipped(1) is False
        assert s.tracks() == {1, 2, 3}

    def test_unhide_restores(self):
        s = store_with(1, 2)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2))
        apply_event(s, EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 9, 1, occluder=2))
        assert s.visibility(1) == Visibility.FULLY_VISIBLE
        assert s.hidden_by(1, 2) is False

    def test_recover_clears_clipped(self):
        s = store_with(1)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 5, 1))
        apply_event(s, EventOccurrence(EventKind.RECOVER, 6, 1))
        assert s.clipped(1) is False

    def test_fov_events(self):
        # enters_fov starts a track's fluents at their birth values,
        # leaves_fov drops them together with the pairs naming the track
        s = FluentStore()
        apply_event(s, EventOccurrence(EventKind.ENTERS_FOV, 4, 1, subject_is_det=True))
        assert s.tracks() == set()
        apply_event(s, EventOccurrence(EventKind.ENTERS_FOV, 4, 1))
        apply_event(s, EventOccurrence(EventKind.ENTERS_FOV, 4, 2))
        assert s.tracks() == {1, 2}
        assert s.visibility(1) == Visibility.FULLY_VISIBLE and s.clipped(1) is False
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 5, 2, occluder=1))
        apply_event(s, EventOccurrence(EventKind.LEAVES_FOV, 6, 1))
        assert s.tracks() == {2} and s.hidden_pairs() == set()
        with pytest.raises(EngineBugError):
            s.visibility(1)

    def test_lost_noise_no_effects(self):
        # noise changes nothing; lost changes nothing but ending its track
        s = store_with(1, 2)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 2))
        snapshot = {t: (s.visibility(t), s.clipped(t)) for t in (1, 2)}
        apply_event(s, EventOccurrence(EventKind.NOISE, 5, 1))
        apply_event(s, EventOccurrence(EventKind.NOISE, 5, 7, subject_is_det=True))
        assert {t: (s.visibility(t), s.clipped(t)) for t in (1, 2)} == snapshot
        apply_event(s, EventOccurrence(EventKind.LOST, 5, 1))
        assert s.tracks() == {2}
        assert (s.visibility(2), s.clipped(2)) == snapshot[2]

    def test_writes_need_known_tracks(self):
        # As a query does, a write of a track the store does not hold
        # raises, and it writes nothing: the store keeps no fluent of a
        # track that tracks() does not list.
        cases = [
            (EventOccurrence(EventKind.HIDES_BEHIND, 5, 5, occluder=6), ()),
            (EventOccurrence(EventKind.HIDES_BEHIND, 5, 5, occluder=6), (5,)),
            (EventOccurrence(EventKind.HIDES_BEHIND, 5, 6, occluder=5), (5,)),
            (EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 5, 5, occluder=6), (5,)),
            (EventOccurrence(EventKind.MISSING_DETECTIONS, 5, 7), (1,)),
            (EventOccurrence(EventKind.RECOVER, 5, 7), (1,)),
        ]
        for e, tids in cases:
            s = store_with(*tids)
            with pytest.raises(EngineBugError):
                apply_event(s, e)
            assert s.tracks() == set(tids) and s.hidden_pairs() == set()
            assert set(s._visibility) == set(s._clipped) == set(tids)
            assert all(s.visibility(t) == Visibility.FULLY_VISIBLE for t in tids)

    def test_order_independent_when_disjoint(self):
        events = [
            EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2),
            EventOccurrence(EventKind.MISSING_DETECTIONS, 5, 3),
            EventOccurrence(EventKind.LEAVES_FOV, 5, 4),
        ]
        seen = set()
        for e in events:
            t = touched_fluents(e)
            assert not (t & seen)
            seen |= t
        s1 = store_with(1, 2, 3, 4)
        for e in events:
            apply_event(s1, e)
        s2 = store_with(1, 2, 3, 4)
        for e in reversed(events):
            apply_event(s2, e)
        assert s1.tracks() == s2.tracks() == {1, 2, 3}
        for t in (1, 2, 3):
            assert s1.visibility(t) == s2.visibility(t)
            assert s1.clipped(t) == s2.clipped(t)
        assert s1.hidden_pairs() == s2.hidden_pairs() == {(1, 2)}


class TestPossible:
    def spec(self, store, detections=(), halted_age=0, **predicted):
        """A 200x200 frame with predicted boxes passed as t<id>=box."""
        return ProblemSpec(
            frame=5,
            detections=tuple(detections),
            predictions={
                int(k[1:]): TrackPrediction(box, TrackState.HALTED, "car", halted_age)
                for k, box in predicted.items()
            },
            likelihoods={},
            fluents=store,
            frame_geom=(200.0, 200.0),
        )

    def test_hides_behind_possible(self):
        s = store_with(1, 2)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10))
        assert possible(spec, EventKind.HIDES_BEHIND, 1, 2) is True

    def test_hides_behind_blocked_when_already_hidden(self):
        s = store_with(1, 2, 3)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 1, occluder=3))
        spec = self.spec(
            s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10), t3=BBox2D(0, 0, 30, 30)
        )
        assert possible(spec, EventKind.HIDES_BEHIND, 1, 2) is False

    def test_missing_detections_blocked_when_clipped(self):
        s = store_with(1)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventKind.MISSING_DETECTIONS, 1) is False

    def test_unhide_needs_hidden_subject_and_visible_occluder(self):
        s = store_with(1, 2)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10))
        assert possible(spec, EventKind.UNHIDES_FROM_BEHIND, 1, 2) is False
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 1, occluder=2))
        assert possible(spec, EventKind.UNHIDES_FROM_BEHIND, 1, 2) is True

    def test_recover_needs_clipped(self):
        s = store_with(1)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventKind.RECOVER, 1) is False
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
        assert possible(spec, EventKind.RECOVER, 1) is True

    def test_leaves_fov_boundary(self):
        s = store_with(1, 2)
        spec = self.spec(s, t1=BBox2D(2, 50, 20, 20), t2=BBox2D(80, 80, 20, 20))
        assert possible(spec, EventKind.LEAVES_FOV, 1) is True
        assert possible(spec, EventKind.LEAVES_FOV, 2) is False

    def test_lost_age_gate(self):
        s = store_with(1)
        for age, lost in [(31, True), (30, False)]:
            spec = self.spec(s, halted_age=age, t1=BBox2D(50, 50, 10, 10))
            assert possible(spec, EventKind.LOST, 1) is lost

    def test_enters_fov_intersects_frame(self):
        # detection ids need not be positions: the box is looked up by id
        dets = [Detection(7, "car", 90, BBox2D(500, 500, 20, 20)),
                Detection(3, "car", 90, BBox2D(-5, -5, 20, 20))]
        spec = self.spec(store_with(), detections=dets)
        assert possible(spec, EventKind.ENTERS_FOV, 3) is True
        assert possible(spec, EventKind.ENTERS_FOV, 7) is False

    @pytest.mark.parametrize("box, inside", [
        (BBox2D(50, -20, 10, 20), False),  # y2 == 0: ends on the top edge
        (BBox2D(50, -40, 10, 20), False),  # y2 < 0
        (BBox2D(50, -19, 10, 20), True),
        (BBox2D(-10, 50, 10, 20), False),  # x2 == 0: ends on the left edge
        (BBox2D(-30, 50, 10, 20), False),  # x2 < 0
        (BBox2D(-9, 50, 10, 20), True),
    ])
    def test_enters_fov_rejects_a_box_wholly_above_or_left_of_the_frame(self, box, inside):
        # Kills the mutants of _in_frame that drop its `box.y2 > 0` or
        # `box.x2 > 0` test, or weaken either to `>= 0`.
        spec = self.spec(store_with(), detections=[Detection(0, "car", 90, box)])
        assert possible(spec, EventKind.ENTERS_FOV, 0) is inside

    def test_self_occlusion_impossible(self):
        s = store_with(1)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventKind.HIDES_BEHIND, 1, 1) is False

    def test_conjuncts_tested_in_order_up_to_the_first_that_fails(self):
        s = CountingStore()
        for t in (1, 2):
            s.register_track(t)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10))
        # distinct fails first: no fluent query, not even of an unknown track
        assert possible(spec, EventKind.HIDES_BEHIND, 1, 1) is False
        assert possible(spec, EventKind.HIDES_BEHIND, 99, 99) is False
        assert s.queries == []
        assert possible(spec, EventKind.HIDES_BEHIND, 1, 2) is True
        assert s.queries == [("visibility", 1), ("visibility", 2)]
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 2, occluder=1))
        s.queries.clear()
        # a clipped track's missing_detections never reads its visibility
        assert possible(spec, EventKind.MISSING_DETECTIONS, 1) is False
        assert s.queries == [("clipped", 1)]
        s.queries.clear()
        # a not_visible subject stops hides_behind before its occluder is read
        assert possible(spec, EventKind.HIDES_BEHIND, 2, 99) is False
        assert s.queries == [("visibility", 2)]
        with pytest.raises(EngineBugError):
            possible(spec, EventKind.HIDES_BEHIND, 1, 99)


class TestRandomEventSequences:
    def test_hidden_by_implies_not_visible(self):
        # random but engine-reachable event sequences
        rng = np.random.default_rng(8)
        for _ in range(400):
            tids = list(range(int(rng.integers(2, 6))))
            s = store_with(*tids)
            for step in range(int(rng.integers(1, 12))):
                visible = [t for t in tids if s.visibility(t) == Visibility.FULLY_VISIBLE]
                hidden = [t for t in tids if s.visibility(t) == Visibility.NOT_VISIBLE]
                clipped = [t for t in tids if s.clipped(t)]
                roll = rng.random()
                if roll < 0.4 and len(visible) >= 2:
                    t1, t2 = rng.choice(visible, size=2, replace=False)
                    apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 0, int(t1), occluder=int(t2)))
                elif roll < 0.6 and hidden:
                    t1 = int(rng.choice(hidden))
                    occ = s.occluder_of(t1)
                    if occ and s.visibility(occ[0]) != Visibility.NOT_VISIBLE:
                        apply_event(
                            s, EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 0, t1, occluder=occ[0])
                        )
                elif roll < 0.8 and visible:
                    t1 = int(rng.choice(visible))
                    if not s.clipped(t1):
                        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 0, t1))
                elif clipped:
                    apply_event(s, EventOccurrence(EventKind.RECOVER, 0, int(rng.choice(clipped))))
                if rng.random() < 0.1:
                    # a track ends and a fresh id enters
                    gone = int(rng.choice(tids))
                    kind = EventKind.LOST if rng.random() < 0.5 else EventKind.LEAVES_FOV
                    apply_event(s, EventOccurrence(kind, 0, gone))
                    tids.remove(gone)
                    tids.append(100 + step)
                    apply_event(s, EventOccurrence(EventKind.ENTERS_FOV, 0, tids[-1]))
                # invariant after every event
                for (a, b) in s.hidden_pairs():
                    assert s.visibility(a) == Visibility.NOT_VISIBLE
                    assert a in tids and b in tids
                # functional fluents: exactly one value each
                for t in tids:
                    assert isinstance(s.visibility(t), Visibility)
                    assert isinstance(s.clipped(t), bool)
                assert s.tracks() == set(tids)


def fluent_values(s):
    """Every fluent instance of the store's tracks, with its value."""
    tids = s.tracks()
    out = {("visibility", t): s.visibility(t) for t in tids}
    out.update({("clipped", t): s.clipped(t) for t in tids})
    out.update({("hidden_by", a, b): s.hidden_by(a, b) for a in tids for b in tids})
    return out


def applying(kind):
    """A spec of tracks 1-3 (1 halted past max_halted_age, in the frame
    margin and overlapping 2) and detection 0, and an event of ``kind``
    possible in it; enters_fov names the detection."""
    s = store_with(1, 2, 3)
    on_pair = kind in (EventKind.HIDES_BEHIND, EventKind.UNHIDES_FROM_BEHIND)
    e = EventOccurrence(kind, 5, 1, occluder=2 if on_pair else None)
    if kind == EventKind.UNHIDES_FROM_BEHIND:
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 1, occluder=2))
    elif kind == EventKind.RECOVER:
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
    elif kind == EventKind.ENTERS_FOV:
        e = EventOccurrence(kind, 5, 0, subject_is_det=True)
    boxes = {1: BBox2D(0, 0, 10, 10), 2: BBox2D(5, 5, 10, 10), 3: BBox2D(100, 100, 10, 10)}
    spec = ProblemSpec(
        frame=5,
        detections=(Detection(0, "car", 90, BBox2D(50, 50, 20, 20)),),
        predictions={t: TrackPrediction(b, TrackState.HALTED, "car", 31) for t, b in boxes.items()},
        likelihoods={},
        fluents=s,
        frame_geom=(200.0, 200.0),
    )
    return spec, e


class TestEventTable:
    def test_one_entry_per_kind_in_preference_order(self):
        assert list(EVENTS) == list(EventKind)

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_apply_changes_exactly_the_touched_fluents(self, kind):
        spec, e = applying(kind)
        assert possible(spec, kind, e.subject, e.occluder)
        s = spec.fluents
        if kind == EventKind.ENTERS_FOV:  # the tracker names the new track
            e = EventOccurrence(kind, 5, 4)
        before = fluent_values(s)
        apply_event(s, e)
        after = fluent_values(s)
        changed = {f for f in before.keys() | after.keys() if before.get(f) != after.get(f)}
        lifecycle = [v for f, v in EVENTS[kind].effects if f == TRACK]
        if lifecycle:
            # it starts or drops the subject's fluents and nothing else
            assert touched_fluents(e) == frozenset()
            assert changed and all(e.subject in f[1:] for f in changed)
            assert (e.subject in s.tracks()) == lifecycle[0]
        else:
            assert changed == touched_fluents(e)
            assert s.tracks() == {1, 2, 3}

    def test_every_action_but_assign_is_explained(self):
        explained = {a for rule in EVENTS.values() for a in rule.explains}
        assert explained == set(ActionKind) - {ActionKind.ASSIGN}

    def test_link_events_in_event_kind_order(self):
        # The abduced event is the first possible one of every event that
        # EVENTS lets explain the action, in EventKind order, each kind
        # once per occluder its entry gives: a later kind is never chosen
        # over a possible earlier one.
        rng = np.random.default_rng(21)
        mixed = 0
        for _ in range(200):
            spec = make_random_spec(rng, max_tracks=8, max_dets=4)
            on_track = [ActionKind.HALT, ActionKind.RESUME, ActionKind.END, ActionKind.IGNORE_TRK]
            on_det = [ActionKind.START, ActionKind.IGNORE_DET]
            actions = [(k, t, None) for t in spec.predictions for k in on_track]
            actions += [(k, None, d.id) for d in spec.detections for k in on_det]
            for kind, trk, det in actions:
                subject = det if trk is None else trk
                events = [
                    EventOccurrence(k, spec.frame, subject, t2, trk is None)
                    for k in EventKind if kind in EVENTS[k].explains
                    for t2 in EVENTS[k].occluders(spec, subject)
                    if possible(spec, k, subject, t2)
                ]
                assert link_events(spec, kind, trk, det) == next(iter(events), None)
                mixed += len({e.kind for e in events}) > 1
        assert mixed > 0

    def test_readme_table_matches(self):
        # The README's event table: one row per kind, in EventKind order,
        # its explains, precondition and effects columns as in EVENTS.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| event | explains | precondition | effects |\n")[1].split("\n\n")[0]
        rows = [line.split("|")[1:-1] for line in table.splitlines()[1:]]
        assert [EventKind[row[0].strip(" `").split("(")[0].upper()] for row in rows] == list(EventKind)
        for row, (kind, rule) in zip(rows, EVENTS.items()):
            assert [ActionKind(a) for a in re.findall("`([^`]*)`", row[1])] == list(rule.explains)
            effects = [
                f"{f}={v.value if isinstance(v, Enum) else str(v).lower()}" for f, v in rule.effects
            ]
            assert re.findall("`([^`]*)`", row[3]) == effects, kind
            # the precondition column opens with the conjuncts' names, in order
            names = re.match(r"\s*((?:`\w+`\s*)*)", row[2]).group(1)
            assert re.findall("`([^`]*)`", names) == list(rule.pre), kind
