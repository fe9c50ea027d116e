import struct
from math import inf

import numpy as np
import pytest

from abdtrack.geometry import (
    BBox2D,
    in_front_region,
    iou,
    iou_matrix,
    overlap_likelihoods,
    overlapping_top,
    proper_part,
    scaled_iou,
)
from conftest import edge_case_boxes, random_box


class TestIoU:
    def test_identity(self):
        b = BBox2D(3, -7, 25, 11)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox2D(0, 0, 10, 10), BBox2D(20, 20, 5, 5)) == 0.0

    def test_hand_computed_third(self):
        # overlap 5x10 = 50; union 100 + 100 - 50 = 150
        assert iou(BBox2D(0, 0, 10, 10), BBox2D(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_touching_edges_half_open(self):
        assert iou(BBox2D(0, 0, 10, 10), BBox2D(10, 0, 10, 10)) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BBox2D(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox2D(0, 0, 10, -1)

    @pytest.mark.parametrize(
        "xywh", [(float("nan"), 0, 1, 1), (0, float("-inf"), 1, 1), (0, 0, float("inf"), 1),
                 (0, 0, 1, float("nan")),
                 # finite sides whose area or aspect over- or underflows
                 (0, 0, 1e200, 1e200), (0, 0, 1e-200, 1e203), (0, 0, 1e-200, 1e-200)]
    )
    def test_non_finite_rejected(self, xywh):
        with pytest.raises(ValueError, match="non-finite"):
            BBox2D(*xywh)

    def test_symmetric_bounded_and_one_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            if a == b:
                assert v == 1.0
            if v == 1.0:
                assert a.x == b.x and a.y == b.y and a.w == b.w and a.h == b.h

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(2)
        boxes_a = [random_box(rng) for _ in range(7)]
        boxes_b = [random_box(rng) for _ in range(9)]
        m = iou_matrix(
            np.array([[b.x, b.y, b.w, b.h] for b in boxes_a]),
            np.array([[b.x, b.y, b.w, b.h] for b in boxes_b]),
        )
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                # same operations in the same order: bit-identical
                assert m[i, j] == iou(a, b)

    def test_equals_property_formula_bit_for_bit(self):
        kinds = []

        def property_iou(a, b):
            # iou as written with the x2, y2 and area properties
            iw = min(a.x2, b.x2) - max(a.x, b.x)
            ih = min(a.y2, b.y2) - max(a.y, b.y)
            if iw <= 0 or ih <= 0:
                kinds.append("disjoint or touching")
                return 0.0
            inter = iw * ih
            union = a.area + b.area - inter
            kinds.append("underflow" if inter == 0 else "overflow" if union == inf else "other")
            return inter / (a.area + b.area - inter)

        rng = np.random.default_rng(5)
        boxes = edge_case_boxes(rng, 80) + [random_box(rng) for _ in range(80)]
        for a in boxes:
            for b in boxes:
                assert struct.pack("<d", iou(a, b)) == struct.pack("<d", property_iou(a, b))
        assert set(kinds) == {"disjoint or touching", "underflow", "overflow", "other"}

    def test_scaled_rounds_to_nearest(self):
        assert scaled_iou(np.array([0.0, 0.25, 1 / 3, 2 / 3, 1.0])).tolist() == [
            0, 25000, 33333, 66667, 100000,
        ]
        assert scaled_iou(1 / 3) == 33333


def dense_likelihoods(tracks, dets):
    """The reference: the non-zero pairs of scaled_iou(iou_matrix(...))."""
    if not tracks or not dets:
        return {}
    with np.errstate(over="ignore"):  # an overflowing union gives IoU 0
        ious = iou_matrix(
            np.array([(b.x, b.y, b.w, b.h) for _, b in tracks]),
            np.array([(b.x, b.y, b.w, b.h) for _, b in dets]),
        )
    ml = scaled_iou(ious)
    rows, cols = np.nonzero(ml)
    return {
        (tracks[i][0], dets[j][0]): v
        for i, j, v in zip(rows.tolist(), cols.tolist(), ml[rows, cols].tolist())
    }


def assert_sweep_equals_dense(tracks, dets):
    got = overlap_likelihoods(tracks, dets)
    assert got == dense_likelihoods(tracks, dets)
    assert all(type(v) is int and v > 0 for v in got.values())
    return got


def numbered(boxes, start=0):
    return list(enumerate(boxes, start))


class TestOverlapLikelihoods:
    """The sorted sweep equals the dense matrix and its nonzero pairs."""

    def test_random_boxes(self):
        rng = np.random.default_rng(11)
        pairs = 0
        for _ in range(300):
            tracks = numbered([random_box(rng) for _ in range(rng.integers(0, 15))], 100)
            dets = numbered([random_box(rng) for _ in range(rng.integers(0, 15))])
            pairs += len(assert_sweep_equals_dense(tracks, dets))
        assert pairs > 500

    def test_edge_case_boxes(self):
        # touching edges, underflowing intersections, overflowing unions
        # and negative coordinates
        rng = np.random.default_rng(12)
        for _ in range(300):
            tracks = numbered(edge_case_boxes(rng, int(rng.integers(0, 20))), 50)
            dets = numbered(edge_case_boxes(rng, int(rng.integers(0, 20))))
            assert_sweep_equals_dense(tracks, dets)

    def test_one_detection_far_wider_than_the_rest(self):
        # wmax widens every track's window, so the wide box, sorted first,
        # still meets the tracks far to the right of its left edge.
        rng = np.random.default_rng(13)
        for _ in range(100):
            wide = int(rng.integers(0, 11))
            dets = [random_box(rng) for _ in range(10)]
            dets.insert(wide, BBox2D(-500.0, -100.0, 2000.0, 600.0))
            tracks = numbered([random_box(rng) for _ in range(10)], 20)
            got = assert_sweep_equals_dense(tracks, numbered(dets))
            assert all((t, wide) in got for t, _ in tracks)

    def test_equal_left_edges(self):
        dets = numbered([BBox2D(10.0, 10.0 * k, 5.0 + k, 12.0) for k in range(8)])
        tracks = numbered([BBox2D(10.0, 5.0 * k, 6.0, 10.0) for k in range(10)], 100)
        assert len(assert_sweep_equals_dense(tracks, dets)) > 8
        # a track ending at the shared left edge touches and is dropped
        assert overlap_likelihoods([(0, BBox2D(0.0, 0.0, 10.0, 80.0))], dets) == {}

    def test_values_rounding_to_zero_are_dropped(self):
        big = BBox2D(0.0, 0.0, 1000.0, 200.0)  # area 200,000
        tiny = [BBox2D(0.0, 0.0, w, 1.0) for w in (0.1, 1.0, 2.0, 3.0, 5.0)]
        dets = numbered(tiny)
        got = assert_sweep_equals_dense([(7, big)], dets)
        # IoU w / 200,000 scales to 0.05, 0.5, 1.0, 1.5 and 2.5; 0.5 rounds
        # to even 0 and 1.5 and 2.5 to 2; the dense IoUs are all positive
        assert got == {(7, 2): 1, (7, 3): 2, (7, 4): 2}
        assert all(iou(big, b) > 0 for b in tiny)

    def test_empty_lists(self):
        boxes = numbered([BBox2D(0, 0, 10, 10)])
        assert overlap_likelihoods([], boxes) == {}
        assert overlap_likelihoods(boxes, []) == {}
        assert overlap_likelihoods([], []) == {}

    @pytest.mark.parametrize("n_tracks", [50, 100, 200])
    def test_equals_dense_on_bench_frames(self, n_tracks, bench_frames):
        # the specs the engine records for the scaling bench's frames
        pairs = 0
        for spec, _ in bench_frames(n_tracks):
            tracks = [(t, p.box) for t, p in spec.predictions.items()]
            dense = dense_likelihoods(tracks, [(d.id, d.box) for d in spec.detections])
            assert spec.likelihoods == dense
            assert all(type(v) is int for v in spec.likelihoods.values())
            pairs += len(dense)
        assert pairs > 5 * n_tracks


class TestOverlappingTop:
    def test_overlap_with_lower_bottom(self):
        assert overlapping_top(BBox2D(0, 0, 10, 10), BBox2D(5, 5, 10, 10))

    def test_disjoint(self):
        assert not overlapping_top(BBox2D(0, 0, 10, 10), BBox2D(50, 50, 10, 10))

    def test_occluder_above(self):
        # b bottom = 10 < a bottom = 30
        assert not overlapping_top(BBox2D(0, 20, 10, 10), BBox2D(0, 0, 10, 10))

    def test_implies_overlap(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            if overlapping_top(a, b):
                assert iou(a, b) > 0


class TestProperPart:
    def test_inside(self):
        assert proper_part(BBox2D(1, 1, 2, 2), BBox2D(0, 0, 4, 4))

    def test_equal_is_not_proper(self):
        b = BBox2D(0, 0, 4, 4)
        assert not proper_part(b, b)

    def test_extending_beyond(self):
        assert not proper_part(BBox2D(3, 3, 4, 4), BBox2D(0, 0, 4, 4))

    def test_touching_edge_is_not_proper(self):
        assert not proper_part(BBox2D(0, 1, 2, 2), BBox2D(0, 0, 4, 4))

    def test_order_properties(self):
        rng = np.random.default_rng(5)
        boxes = [random_box(rng, span=60.0) for _ in range(60)]
        for a in boxes:
            assert not proper_part(a, a)
            for b in boxes:
                if proper_part(a, b):
                    assert not proper_part(b, a)
                for c in boxes:
                    if proper_part(a, b) and proper_part(b, c):
                        assert proper_part(a, c)


class TestInFrontRegion:
    GEOM = (1242.0, 375.0)

    def test_center_low(self):
        assert in_front_region((self.GEOM[0] / 2, 0.9 * self.GEOM[1]), self.GEOM)

    def test_corner(self):
        assert not in_front_region((0.0, 0.0), self.GEOM)

    def test_boundary_inclusive_below(self):
        assert in_front_region((self.GEOM[0] / 2, self.GEOM[1] / 2 + 1), self.GEOM)
