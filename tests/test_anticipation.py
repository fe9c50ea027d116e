import random
from collections import Counter

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


def search_by_boxes(views, hidden_pairs, current_frame, horizon):
    """The exit search with a translated box per simulated step, as
    anticipate_unhide once was: its reference."""
    out = []
    for t1, t2 in sorted(hidden_pairs):
        if t1 not in views or t2 not in views:
            continue
        hidden, occluder = views[t1], views[t2]
        if not proper_part(hidden.box, occluder.box):
            continue
        for k in range(1, horizon + 1):
            b1 = hidden.box.translated(hidden.velocity[0] * k, hidden.velocity[1] * k)
            b2 = occluder.box.translated(occluder.velocity[0] * k, occluder.velocity[1] * k)
            if not proper_part(b1, b2):
                out.append(Anticipation(t1, t2, current_frame + k, (b1.x, b1.y)))
                break
    return out


def random_scene(rng):
    """Three tracks, each possibly hidden inside the first, on integer
    boxes and mostly integer velocities, so edges often meet exactly."""
    ox, oy = rng.randint(0, 100), rng.randint(0, 100)
    ow, oh = rng.randint(4, 60), rng.randint(4, 60)
    speeds = [0, 0, 1, -1, 2, -3, 0.5, 0.1, 0.7, rng.uniform(-5, 5)]
    views = {0: TrackView(BBox2D(ox, oy, ow, oh), (rng.choice(speeds), rng.choice(speeds)))}
    for t in (1, 2):
        w, h = rng.randint(1, ow - 2), rng.randint(1, oh - 2)
        x, y = ox + rng.randint(1, ow - w - 1), oy + rng.randint(1, oh - h - 1)
        if rng.random() < 0.1:
            x -= rng.randint(1, 3)  # not a proper part now
        views[t] = TrackView(BBox2D(x, y, w, h), (rng.choice(speeds), rng.choice(speeds)))
    pairs = {(1, 0), (2, 0), (1, 2), (3, 0)}  # track 3 has no view
    return views, pairs


class TestSearchWithoutBoxes:
    def test_equals_the_box_per_step_search(self):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(3000):
            views, pairs = random_scene(rng)
            horizon, now = rng.randint(1, 30), rng.randint(0, 500)
            ants = anticipate_unhide(views, pairs, now, horizon)
            assert ants == search_by_boxes(views, pairs, now, horizon)
            for a in ants:
                k = a.frame - now
                seen["k = 1"] += k == 1
                seen["k = horizon"] += k == horizon
                b = views[a.occluder].box.translated(*(v * k for v in views[a.occluder].velocity))
                h = views[a.track].box.translated(*(v * k for v in views[a.track].velocity))
                seen["shared edge"] += b.x == h.x or b.y == h.y or b.x2 == h.x2 or b.y2 == h.y2
            exits = {(a.track, a.occluder) for a in ants}
            seen["never"] += sum(
                p not in exits and proper_part(views[p[0]].box, views[p[1]].box)
                for p in pairs if p[0] in views
            )
        assert all(seen[c] > 20 for c in ("k = 1", "k = horizon", "shared edge", "never")), seen

    @pytest.mark.parametrize("hidden, occluder", [
        # Both corners overflow at once, and the hidden box raises first.
        (TrackView(BBox2D(0.5e308, 0.25, 1e306, 0.5), (1.5e308, 0.0)),
         TrackView(BBox2D(-1e308, 0, 1.7e308, 1), (1.5e308, 0.0))),
        (TrackView(BBox2D(10, 10, 10, 10), (1.0, 0.0)),
         TrackView(BBox2D(0, 0, 100, 100), (0.0, float("nan")))),
        (TrackView(BBox2D(10, 10, 10, 10), (float("inf"), 0.0)),
         TrackView(BBox2D(0, 0, 100, 100), (0.0, 0.0))),
    ])
    def test_non_finite_corner_raises_the_box_error(self, hidden, occluder):
        views = {1: hidden, 2: occluder}
        with pytest.raises(ValueError, match="^non-finite box: ") as expected:
            search_by_boxes(views, {(1, 2)}, 0, 5)
        with pytest.raises(ValueError) as got:
            anticipate_unhide(views, {(1, 2)}, 0, 5)
        assert str(got.value) == str(expected.value)


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
