import math
import warnings

import numpy as np
import pytest

from abdtrack.geometry import BBox2D, iou
from abdtrack.motion import MotionFilter, box_to_z, z_to_box
from conftest import random_box
from reference_kalman import P0, ScalarKF, row_matrices, set_row, state_box

# 1 where two state entries are the same pair: (cx, v_cx), (cy, v_cy),
# (s, v_s) or r alone.
_PAIR = np.array([0, 1, 2, 3, 0, 1, 2])
_SAME_PAIR = (_PAIR[:, None] == _PAIR[None, :]).astype(float)
_CX, _CY = [0, 4], [1, 5]


def kf_oracle(boxes):
    """Init on the first box, then predict+update per box, then one final
    predict.  Returns the final state."""
    kf = ScalarKF(boxes[0])
    for b in boxes[1:]:
        kf.predict()
        kf.update(b)
    kf.predict()
    return kf.x


def one(box: BBox2D) -> MotionFilter:
    """A bank holding the single track 0."""
    f = MotionFilter()
    f.add(0, box)
    return f


def run_filter(boxes):
    f = one(boxes[0])
    for b in boxes[1:]:
        f.predict()
        f.update({0: b})
    return f, f.predict()[0]


def _xywh(b: BBox2D) -> tuple:
    return (b.x, b.y, b.w, b.h)


def _x(f: MotionFilter) -> np.ndarray:
    """State vector of track 0's row."""
    return row_matrices(f.rows[0])[0]


def _assert_rows_match(bank: MotionFilter, ref: dict) -> None:
    assert bank.ids == list(ref)
    for t, row in bank.rows.items():
        x, P = row_matrices(row)
        assert np.array_equal(x, ref[t].x)
        assert np.array_equal(P, ref[t].P)
        assert len(row) == 14 and all(type(v) is float for v in row)


def _run_against_reference(seed: int, frames: int, live: int) -> None:
    """Rows added and dropped mid-stream, a random subset observed each
    frame: every row's state, covariance (expanded to 7×7) and box equal
    the full-matrix filter's bit for bit after every predict and update,
    so the gain's reciprocals give the reference's np.linalg.inv.  Half
    the rows start from a covariance coupled inside each position-velocity
    pair, which keeps S diagonal as the engine's rows do, and equal in the
    cx and cy pairs, the one position block a row holds.  Some rows get a
    negative aspect forced into their state, so some predicted states are
    degenerate and both sides return the same clamped boxes for them."""
    rng = np.random.default_rng(seed)
    bank, ref = MotionFilter(), {}
    next_id = 0
    clamped = degenerate = 0
    for frame in range(frames):
        while len(ref) < live or (frame > 0 and rng.random() < 0.3):
            b = random_box(rng)
            bank.add(next_id, b)
            ref[next_id] = kf = ScalarKF(b)
            if next_id % 2:
                # Couple cx, cy and s with their velocities only: the
                # gain's off-diagonal entries are then not 0.  A row holds
                # one off-diagonal entry per pair and one block for the cx
                # and cy pairs, so the start must be exactly symmetric and
                # draw one block for both.
                A = rng.normal(size=(7, 7)) * _SAME_PAIR
                kf.P = P0 + A @ A.T
                kf.P[np.ix_(_CY, _CY)] = kf.P[np.ix_(_CX, _CX)]
                assert np.array_equal(kf.P, kf.P.T)
                set_row(bank.rows[next_id], kf.x, kf.P)
            next_id += 1
        if frame > 0:
            for tid in rng.choice(list(ref), size=int(rng.integers(0, 3)), replace=False):
                bank.drop(int(tid))
                del ref[int(tid)]
        clamped += sum(kf.x[2] + kf.x[6] <= 0 for kf in ref.values())
        boxes = bank.predict()
        expected = [ref[t].predict() for t in ref]
        degenerate += sum(kf.x[2] <= 0 or kf.x[3] <= 0 for kf in ref.values())
        _assert_rows_match(bank, ref)
        for t, row in bank.rows.items():
            if rng.random() < 0.02:
                ref[t].x[3] = -ref[t].x[3]
                row[12] = float(ref[t].x[3])  # r
        assert [_xywh(b) for b in boxes] == [_xywh(b) for b in expected]
        assert all(type(v) is float for b in boxes for v in _xywh(b))
        obs = {
            t: random_box(rng) if rng.random() < 0.3 else BBox2D(
                p.x + rng.normal(), p.y + rng.normal(), p.w, p.h
            )
            for t, p in zip(list(ref), boxes)
            if rng.random() < 0.6
        }
        bank.update(obs)
        for t, b in obs.items():
            ref[t].update(b)
        _assert_rows_match(bank, ref)
        for t in bank.ids:
            assert bank.velocity(t) == (ref[t].x[4], ref[t].x[5])
    assert next_id > frames // 3 and clamped > 0 and degenerate > 0


class TestBank:
    def test_matches_per_track_reference(self):
        _run_against_reference(seed=61, frames=240, live=20)

    def test_long_stream_matches_per_track_reference(self):
        _run_against_reference(seed=62, frames=3000, live=6)

    def test_ids_must_increase(self):
        f = one(BBox2D(0, 0, 10, 10))
        with pytest.raises(ValueError):
            f.add(0, BBox2D(0, 0, 10, 10))

    def test_empty_bank(self):
        f = MotionFilter()
        assert f.predict() == []
        f.update({})
        assert f.rows == {} and f.ids == []


class TestInit:
    def test_center_area_aspect(self):
        f = one(BBox2D(0, 0, 10, 10))
        assert list(_x(f)[:4]) == [5.0, 5.0, 100.0, 1.0]
        assert list(_x(f)[4:]) == [0.0, 0.0, 0.0]

    def test_second_example(self):
        f = one(BBox2D(10, 20, 20, 10))
        assert list(_x(f)[:4]) == [20.0, 25.0, 200.0, 2.0]

    def test_predict_after_init_returns_same_box(self):
        f = one(BBox2D(7, 3, 12, 9))
        b = f.predict()[0]
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
        vx, vy = f.velocity(0)
        c0 = tuple(_x(f)[:2])
        for k in range(1, 8):
            f.predict()
            assert _x(f)[0] == pytest.approx(c0[0] + k * vx, rel=1e-12)
            assert _x(f)[1] == pytest.approx(c0[1] + k * vy, rel=1e-12)

    def test_degenerate_area_flags_stale(self):
        f = one(BBox2D(0, 0, 4, 4))
        row = f.rows[0]
        row[8] = -100.0  # force the area (row[7]) toward collapse
        row[7] = 1.0
        box = f.predict()[0]
        # the area-velocity clamp keeps the state alive and the box valid
        assert box.w > 0 and box.h > 0
        # a negative aspect gives the finite, positive box of the state
        f.rows[0][12] = -1.0
        box = f.predict()[0]
        assert all(map(math.isfinite, _xywh(box))) and box.w > 0 and box.h > 0
        assert _xywh(box) == _xywh(state_box(_x(f)[:4]))


class TestZToBox:
    def test_overflowing_width_takes_the_roots_apart(self):
        # The first state is the box (0, 0, 1e200, 1e-100): s * r = 1e400
        # overflows.  The second's s * r is finite and keeps sqrt(s * r).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = z_to_box(5e199, 5e-101, 1e100, 1e300)
            small = z_to_box(20.0, 25.0, 200.0, 2.0)
        assert big.w == math.sqrt(1e100) * math.sqrt(1e300)
        assert math.isfinite(big.w) and big.w == pytest.approx(1e200)
        assert small.w == math.sqrt(200.0 * 2.0) and small.h == 200.0 / small.w

    def test_underflowing_width_takes_the_roots_apart(self):
        # The box (0, 0, 1e-170, 1e-100): s * r = 1e-340 underflows to 0.
        thin = z_to_box(5e-171, 5e-101, 1e-270, 1e-70)
        assert thin.w == math.sqrt(1e-270) * math.sqrt(1e-70)
        assert thin.w == pytest.approx(1e-170) and thin.h == pytest.approx(1e-100)

    @pytest.mark.parametrize("w, h", [(1e10, 1e-7), (1e-7, 1e10), (1e-9, 1e-9)])
    def test_a_box_of_any_valid_size_is_its_own_prediction(self, w, h):
        # Sizes under 1e-6, or an area or aspect under 1e-12, are kept.
        box = z_to_box(*box_to_z(BBox2D(10.0, 10.0, w, h)))
        assert box.w == pytest.approx(w) and box.h == pytest.approx(h)
        assert iou(box, BBox2D(10.0, 10.0, w, h)) > 0.99

    @pytest.mark.parametrize("state", [
        (5e199, 5e-101, 1e100, 1e300),  # s * r overflows
        (5e-171, 5e-101, 1e-270, 1e-70),  # s * r underflows
        (20.0, 25.0, 200.0, 2.0),
        (20.0, 25.0, -3.0, 2.0),  # area clamped
        (20.0, 25.0, 200.0, 0.0),  # aspect clamped
    ])
    def test_predict_writes_out_z_to_box(self, state):
        # A row at the state with zero velocities predicts it again, and
        # predict's box is z_to_box's, bit for bit, on every branch.
        cx, cy, s, r = state
        bank = MotionFilter()
        bank.rows[0] = [cx, 0.0, cy, 0.0, 1.0, 0.0, 1.0, s, 0.0, 1.0, 0.0, 1.0, r, 1.0]
        assert _xywh(bank.predict()[0]) == _xywh(z_to_box(*state))


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
        f = one(boxes[0])
        residuals = []
        for b in boxes[1:]:
            pred = f.predict()[0]
            residuals.append(abs(pred.cx - b.cx) + abs(pred.cy - b.cy))
            f.update({0: b})
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))
        # constant-velocity input: center error below 0.5 px by update 10
        assert residuals[10] < 0.5

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        boxes = [random_box(rng) for _ in range(20)]
        f1, b1 = run_filter(boxes)
        f2, b2 = run_filter(boxes)
        assert (b1.x, b1.y, b1.w, b1.h) == (b2.x, b2.y, b2.w, b2.h)
        assert f1.rows == f2.rows


class TestVelocity:
    def test_fresh_filter_zero(self):
        assert one(BBox2D(0, 0, 10, 10)).velocity(0) == (0.0, 0.0)

    def test_converges_to_ten(self):
        f, _ = run_filter([BBox2D(10 * k, 0, 10, 10) for k in range(6)])
        vx, _ = f.velocity(0)
        assert abs(vx - 10.0) <= 1.0

    def test_pure_vertical_motion(self):
        f, _ = run_filter([BBox2D(0, 8 * k, 10, 10) for k in range(6)])
        vx, vy = f.velocity(0)
        assert abs(vx) < 1e-6
        assert abs(vy - 8.0) <= 1.0


class TestCovariance:
    def test_symmetric_psd_over_many_cycles(self):
        rng = np.random.default_rng(7)
        f = one(random_box(rng))
        for i in range(10_000):
            f.predict()
            if rng.random() < 0.7:
                f.update({0: random_box(rng)})
            P = row_matrices(f.rows[0])[1]
            assert np.allclose(P, P.T, atol=1e-8)
            if i % 100 == 0:
                assert np.linalg.eigvalsh(P).min() > -1e-6
