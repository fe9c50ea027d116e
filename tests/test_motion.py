import numpy as np
import pytest

from abdtrack.geometry import BBox2D
from abdtrack.motion import (
    INITIAL_COVARIANCE,
    MEASUREMENT_NOISE,
    PROCESS_NOISE,
    MotionFilter,
    box_to_z,
)
from conftest import random_box

_F = np.array(
    [
        [1, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)
_H = np.eye(4, 7)


def kf_oracle(boxes):
    """Independent textbook recursion over a detection sequence: init on
    the first box, then predict+update per box, then one final predict.
    Returns the final state."""
    x = np.zeros(7)
    x[:4] = box_to_z(boxes[0])
    P = INITIAL_COVARIANCE.copy()
    for b in boxes[1:]:
        x = _F @ x
        P = _F @ P @ _F.T + PROCESS_NOISE
        y = box_to_z(b) - _H @ x
        S = _H @ P @ _H.T + MEASUREMENT_NOISE
        K = P @ _H.T @ np.linalg.inv(S)
        x = x + K @ y
        P = (np.eye(7) - K @ _H) @ P
    x = _F @ x
    return x


def run_filter(boxes):
    f = MotionFilter(boxes[0])
    for b in boxes[1:]:
        f.predict()
        f.update(b)
    return f, f.predict()


class TestInit:
    def test_center_area_aspect(self):
        f = MotionFilter(BBox2D(0, 0, 10, 10))
        assert list(f.x[:4]) == [5.0, 5.0, 100.0, 1.0]
        assert list(f.x[4:]) == [0.0, 0.0, 0.0]

    def test_second_example(self):
        f = MotionFilter(BBox2D(10, 20, 20, 10))
        assert list(f.x[:4]) == [20.0, 25.0, 200.0, 2.0]

    def test_predict_after_init_returns_same_box(self):
        f = MotionFilter(BBox2D(7, 3, 12, 9))
        b = f.predict()
        assert (b.x, b.y, b.w, b.h) == pytest.approx((7, 3, 12, 9), abs=1e-9)


class TestPredict:
    def test_constant_velocity_step(self):
        # frozen from the textbook oracle: detections (0,0,10,10) then
        # (10,0,10,10), next prediction lands one step further on
        f, box = run_filter([BBox2D(0, 0, 10, 10), BBox2D(10, 0, 10, 10)])
        oracle = kf_oracle([BBox2D(0, 0, 10, 10), BBox2D(10, 0, 10, 10)])
        assert box.x == pytest.approx(19.987015581302437, abs=1e-9)
        assert box.x == pytest.approx(oracle[0] - box.w / 2, abs=1e-9)
        assert abs(box.x - 20.0) < 0.5 and abs(box.y) < 0.5

    def test_stationary_convergence(self):
        boxes = [BBox2D(50, 50, 20, 20)] * 6
        _, box = run_filter(boxes)
        assert abs(box.cx - 60.0) < 0.5 and abs(box.cy - 60.0) < 0.5

    def test_dead_reckoning_is_exactly_linear(self):
        f, _ = run_filter([BBox2D(10 * k, 0, 10, 10) for k in range(4)])
        vx, vy = f.velocity()
        c0 = (f.x[0], f.x[1])
        for k in range(1, 8):
            f.predict()
            assert f.x[0] == pytest.approx(c0[0] + k * vx, rel=1e-12)
            assert f.x[1] == pytest.approx(c0[1] + k * vy, rel=1e-12)

    def test_degenerate_area_flags_stale(self):
        f = MotionFilter(BBox2D(0, 0, 4, 4))
        f.x[6] = -100.0  # force the area toward collapse
        f.x[2] = 1.0
        box = f.predict()
        # the area-velocity clamp keeps the state alive and the box valid
        assert box.w > 0 and box.h > 0
        # a degenerate state keeps the last valid box
        f.x[3] = -1.0
        assert f.predict() == box


class TestUpdate:
    @pytest.mark.parametrize(
        "boxes",
        [
            [BBox2D(10 * k, 5, 10, 10) for k in range(13)],
            [BBox2D(50, 50, 20, 20)] * 13,
            [BBox2D(0, 8 * k, 10, 10) for k in range(13)],
        ],
        ids=["horizontal", "stationary", "vertical"],
    )
    def test_residual_shrinks_monotonically(self, boxes):
        f = MotionFilter(boxes[0])
        residuals = []
        for b in boxes[1:]:
            pred = f.predict()
            residuals.append(abs(pred.cx - b.cx) + abs(pred.cy - b.cy))
            f.update(b)
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))
        # constant-velocity input: center error below 0.5 px by update 10
        assert residuals[10] < 0.5

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        boxes = [random_box(rng) for _ in range(20)]
        f1, b1 = run_filter(boxes)
        f2, b2 = run_filter(boxes)
        assert (b1.x, b1.y, b1.w, b1.h) == (b2.x, b2.y, b2.w, b2.h)
        assert np.array_equal(f1.x, f2.x) and np.array_equal(f1.P, f2.P)


class TestVelocity:
    def test_fresh_filter_zero(self):
        assert MotionFilter(BBox2D(0, 0, 10, 10)).velocity() == (0.0, 0.0)

    def test_converges_to_ten(self):
        f, _ = run_filter([BBox2D(10 * k, 0, 10, 10) for k in range(6)])
        vx, _ = f.velocity()
        assert abs(vx - 10.0) <= 1.0

    def test_pure_vertical_motion(self):
        f, _ = run_filter([BBox2D(0, 8 * k, 10, 10) for k in range(6)])
        vx, vy = f.velocity()
        assert abs(vx) < 1e-6
        assert abs(vy - 8.0) <= 1.0


class TestCovariance:
    def test_symmetric_psd_over_many_cycles(self):
        rng = np.random.default_rng(7)
        f = MotionFilter(random_box(rng))
        for i in range(10_000):
            f.predict()
            if rng.random() < 0.7:
                f.update(random_box(rng))
            assert np.allclose(f.P, f.P.T, atol=1e-8)
            if i % 100 == 0:
                assert np.linalg.eigvalsh(f.P).min() > -1e-6
