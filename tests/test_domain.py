import numpy as np
import pytest

from abdtrack.abduction import ProblemSpec, TrackPrediction
from abdtrack.domain import (
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


def store_with(*tids):
    s = FluentStore()
    for t in tids:
        s.register_track(t)
    return s


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
        e = EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2)
        assert possible(spec, e) is True

    def test_hides_behind_blocked_when_already_hidden(self):
        s = store_with(1, 2, 3)
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 1, occluder=3))
        spec = self.spec(
            s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10), t3=BBox2D(0, 0, 30, 30)
        )
        e = EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=2)
        assert possible(spec, e) is False

    def test_missing_detections_blocked_when_clipped(self):
        s = store_with(1)
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventOccurrence(EventKind.MISSING_DETECTIONS, 5, 1)) is False

    def test_unhide_needs_hidden_subject_and_visible_occluder(self):
        s = store_with(1, 2)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10), t2=BBox2D(5, 5, 10, 10))
        e = EventOccurrence(EventKind.UNHIDES_FROM_BEHIND, 5, 1, occluder=2)
        assert possible(spec, e) is False
        apply_event(s, EventOccurrence(EventKind.HIDES_BEHIND, 4, 1, occluder=2))
        assert possible(spec, e) is True

    def test_recover_needs_clipped(self):
        s = store_with(1)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventOccurrence(EventKind.RECOVER, 5, 1)) is False
        apply_event(s, EventOccurrence(EventKind.MISSING_DETECTIONS, 4, 1))
        assert possible(spec, EventOccurrence(EventKind.RECOVER, 5, 1)) is True

    def test_leaves_fov_boundary(self):
        s = store_with(1, 2)
        spec = self.spec(s, t1=BBox2D(2, 50, 20, 20), t2=BBox2D(80, 80, 20, 20))
        assert possible(spec, EventOccurrence(EventKind.LEAVES_FOV, 5, 1)) is True
        assert possible(spec, EventOccurrence(EventKind.LEAVES_FOV, 5, 2)) is False

    def test_lost_age_gate(self):
        s = store_with(1)
        e = EventOccurrence(EventKind.LOST, 5, 1)
        assert possible(self.spec(s, halted_age=31, t1=BBox2D(50, 50, 10, 10)), e) is True
        assert possible(self.spec(s, halted_age=30, t1=BBox2D(50, 50, 10, 10)), e) is False

    def test_enters_fov_intersects_frame(self):
        # detection ids need not be positions: the box is looked up by id
        dets = [Detection(7, "car", 90, BBox2D(500, 500, 20, 20)),
                Detection(3, "car", 90, BBox2D(-5, -5, 20, 20))]
        spec = self.spec(store_with(), detections=dets)
        enters = lambda d: EventOccurrence(EventKind.ENTERS_FOV, 5, d, subject_is_det=True)
        assert possible(spec, enters(3)) is True
        assert possible(spec, enters(7)) is False

    def test_self_occlusion_impossible(self):
        s = store_with(1)
        spec = self.spec(s, t1=BBox2D(0, 0, 10, 10))
        assert possible(spec, EventOccurrence(EventKind.HIDES_BEHIND, 5, 1, occluder=1)) is False


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
