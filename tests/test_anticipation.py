import pytest

from abdtrack import AbductionEngine, BBox2D, Detection, EngineConfig, Thresholds
from abdtrack.anticipation import (
    Anticipation,
    TrackView,
    anticipate_unhide,
    engine_views,
    format_anticipation,
    format_position,
    format_warning,
    interpolated_position,
    warnings,
)
from abdtrack.geometry import proper_part


def hidden_fixture(vx=10.0, vy=0.0, gap_to_edge=30.0):
    """Hidden box strictly inside a static occluder, its right edge
    gap_to_edge pixels left of the occluder's right edge."""
    occluder = BBox2D(100, 100, 100, 80)
    hidden = BBox2D(occluder.x2 - gap_to_edge - 30, 120, 30, 24)
    views = {
        1: TrackView(box=hidden, velocity=(vx, vy)),
        2: TrackView(box=occluder, velocity=(0.0, 0.0)),
    }
    return views, {(1, 2)}


class TestAnticipateUnhide:
    def test_exits_at_hide_frame_plus_three(self):
        views, hidden = hidden_fixture(vx=10.0, gap_to_edge=30.0)
        ants = anticipate_unhide(views, hidden, current_frame=100, horizon=60)
        assert len(ants) == 1
        a = ants[0]
        assert (a.track, a.occluder) == (1, 2)
        assert a.frame == 103
        assert a.position == (views[1].box.x + 30.0, views[1].box.y)

    def test_zero_velocity_never_unhides(self):
        views, hidden = hidden_fixture(vx=0.0, vy=0.0)
        assert anticipate_unhide(views, hidden, 100, horizon=500) == []

    def test_earliest_qualifying_frame(self):
        views, hidden = hidden_fixture(vx=7.0, gap_to_edge=30.0)
        ants = anticipate_unhide(views, hidden, 50, horizon=60)
        assert len(ants) == 1
        k = ants[0].frame - 50
        hid, occ = views[1], views[2]
        for j in range(1, k):
            assert proper_part(hid.box.translated(7.0 * j, 0), occ.box)
        assert not proper_part(hid.box.translated(7.0 * k, 0), occ.box)

    def test_comoving_occluder_never_unhides(self):
        views, hidden = hidden_fixture(vx=10.0)
        views[2] = TrackView(box=views[2].box, velocity=(10.0, 0.0))
        assert anticipate_unhide(views, hidden, 0, horizon=200) == []

    def test_receding_occluder_halves_the_wait(self):
        views, hidden = hidden_fixture(vx=5.0, gap_to_edge=30.0)
        baseline = anticipate_unhide(views, hidden, 0, horizon=100)[0].frame
        views[2] = TrackView(box=views[2].box, velocity=(-5.0, 0.0))
        faster = anticipate_unhide(views, hidden, 0, horizon=100)[0].frame
        assert faster < baseline

    def test_requires_proper_part(self):
        views, hidden = hidden_fixture()
        views[1] = TrackView(box=BBox2D(500, 500, 30, 24), velocity=(10.0, 0.0))
        assert anticipate_unhide(views, hidden, 0, horizon=60) == []

    def test_beyond_horizon_omitted(self):
        views, hidden = hidden_fixture(vx=1.0, gap_to_edge=50.0)
        assert anticipate_unhide(views, hidden, 0, horizon=10) == []

    @pytest.mark.parametrize(
        "vx, vy, occluder_vx", [(10.0, 0.0, 0.0), (7.0, 0.0, 0.0), (5.0, 0.0, -5.0), (7.3, -1.9, 0.0)]
    )
    def test_position_is_interpolated(self, vx, vy, occluder_vx):
        views, hidden = hidden_fixture(vx=vx, vy=vy, gap_to_edge=30.0)
        views[2] = TrackView(box=views[2].box, velocity=(occluder_vx, 0.0))
        (a,) = anticipate_unhide(views, hidden, 50, horizon=60)
        assert a.position == interpolated_position(views[1], 50, a.frame)


class TestInterpolatedPosition:
    def test_linear_formula(self):
        v = TrackView(box=BBox2D(100, 50, 10, 10), velocity=(10.0, -2.0))
        assert interpolated_position(v, 0, 5) == (150.0, 40.0)

    def test_same_frame_rejected(self):
        v = TrackView(box=BBox2D(100, 50, 10, 10), velocity=(10.0, -2.0))
        with pytest.raises(ValueError):
            interpolated_position(v, 7, 7)

    def test_zero_velocity_fixed_point(self):
        v = TrackView(box=BBox2D(100, 50, 10, 10), velocity=(0.0, 0.0))
        for t in (1, 5, 50):
            assert interpolated_position(v, 0, t) == (100.0, 50.0)

    def test_exactly_linear_increments(self):
        v = TrackView(box=BBox2D(3, 4, 10, 10), velocity=(2.5, 1.25))
        for t in range(1, 20):
            x1, y1 = interpolated_position(v, 0, t)
            x2, y2 = interpolated_position(v, 0, t + 4)
            assert (x2 - x1, y2 - y1) == (2.5 * 4, 1.25 * 4)


class TestWarnings:
    GEOM = (1242.0, 375.0)

    def corridor_anticipation(self, dt):
        return Anticipation(track=1, occluder=2, frame=100 + dt, position=(621.0, 340.0))

    def test_imminent_in_corridor_warns(self):
        a = self.corridor_anticipation(5)
        ws = warnings([a], 100, self.GEOM, 20)
        assert len(ws) == 1 and ws[0] is a
        assert ws[0].track == 1 and ws[0].frame == 105

    def test_distant_reappearance_ignored(self):
        assert warnings([self.corridor_anticipation(25)], 100, self.GEOM, 20) == []

    def test_outside_corridor_ignored(self):
        a = Anticipation(track=1, occluder=2, frame=105, position=(5.0, 5.0))
        assert warnings([a], 100, self.GEOM, 20) == []


class TestEngineIntegration:
    def test_hidden_track_is_anticipated(self):
        """A pedestrian (a class the hidden car cannot resume on) starts in
        the last frame, while the car is hidden: the views are exactly the
        hidden pair's tracks, each at its prediction in the last spec."""
        geom = (400.0, 300.0)
        eng = AbductionEngine(EngineConfig(thresholds=Thresholds(), frame_geom=geom))
        occluder = BBox2D(150, 80, 120, 100)
        for f in range(14):
            x = 60.0 + 8 * f
            dets = [Detection(0, "car", 99, occluder)]
            if f < 10:
                dets.append(Detection(1, "car", 99, BBox2D(x, 120, 30, 24)))
            if f == 13:
                dets.append(Detection(1, "pedestrian", 99, BBox2D(10, 200, 20, 20)))
            eng.step(f, dets)
        views, hidden = engine_views(eng)
        assert len(hidden) == 1
        (t1, t2) = next(iter(hidden))
        started = set(eng.fluents.tracks()) - {t1, t2}
        assert len(started) == 1 and not started & set(eng.last_spec.predictions)
        assert set(views) == {t1, t2}
        for t, view in views.items():
            assert view.box == eng.last_spec.predictions[t].box
            assert view.velocity == eng.motion.velocity(t)
        assert proper_part(views[t1].box, views[t2].box)
        ants = anticipate_unhide(views, hidden, 13, horizon=60)
        assert len(ants) == 1
        assert ants[0].frame > 13
        assert ants[0].position == interpolated_position(views[t1], 13, ants[0].frame)

    def test_serialization_grammar(self):
        a = Anticipation(track=41, occluder=3, frame=202, position=(738.4, 494.6))
        assert format_anticipation(a) == "anticipate(unhides_from_behind(trk_41, trk_3), 202)"
        assert format_position(a) == "point2d(interpolated_position(trk_41, 202), 738, 495)"
        ws = warnings([a], 200, (1242.0, 375.0), 20)
        assert format_warning(ws[0]) == "warning(hidden_entity_in_front(trk_41, 202))"
