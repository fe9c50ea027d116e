"""Axis-aligned rectangle arithmetic and qualitative spatial predicates.

Boxes follow the (x, y, w, h) convention with a top-left origin and y
growing downward.  Rectangles are treated as half-open pixel regions, so
the intersection width of two boxes is ``max(0, min(x1+w1, x2+w2) -
max(x1, x2))``.  Coordinates may be negative (partially off-screen boxes
are legal); coordinates must be finite, widths and heights strictly
positive, and the area w*h and aspect w/h finite positive floats, since
the motion filter measures both in floats: a box whose area or aspect
over- or underflows is rejected, int sizes included.

The tracker's matching likelihoods come from :func:`overlap_likelihoods`,
a sweep over the detections sorted by left edge (the broad phase of
sweep and prune; Baraff 1992, Cohen et al. 1995, I-COLLIDE) that tests
only the pairs whose x-intervals can meet.  Its window is exact, not a
heuristic: with ``wmax`` the widest detection, a detection b with
``fl(b.x + wmax) <= a.x`` has ``b.x2 = fl(b.x + b.w) <= a.x``, because
rounding is monotone, and one with ``b.x >= a.x2`` starts past a's
right edge; either way :func:`iou`'s own min, max and subtract give an
intersection width ``<= 0``.  Inside the window each pair takes
:func:`iou_matrix`'s operations in its order, so the values are bit for
bit those of the dense :func:`scaled_iou` of :func:`iou_matrix`, which
stay as the reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf, isfinite
from typing import TYPE_CHECKING, Iterable, Sequence

from ._records import record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BBox2D",
    "TrackBoxes",
    "check_match_iou",
    "iou",
    "iou_matrix",
    "scaled_iou",
    "overlap_likelihoods",
    "overlapping_top",
    "proper_part",
    "in_front_region",
]

IOU_SCALE = 100_000
# The default frame size (W, H) in pixels, that of KITTI's images.
DEFAULT_FRAME_GEOM = (1242.0, 375.0)


@record
class BBox2D:
    """Axis-aligned box: left edge, top edge, width, height (pixels);
    ``ValueError`` unless it keeps the module's rules."""

    x: float
    y: float
    w: float
    h: float

    def _check(self, x: float, y: float, w: float, h: float) -> None:
        try:
            if isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h):
                if w > 0 and h > 0:
                    # the area in floats, as the motion filter takes it:
                    # a product of two ints never overflows
                    if 0 < 1.0 * w * h < inf and 0 < w / h < inf:
                        return
                    raise ValueError(f"non-finite or zero area or aspect: w={w}, h={h}")
                raise ValueError(f"degenerate box: w={w}, h={h}")
        except OverflowError:  # an int past the float range
            pass
        raise ValueError(f"non-finite box: {self}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def translated(self, dx: float, dy: float) -> "BBox2D":
        return BBox2D(self.x + dx, self.y + dy, self.w, self.h)


# track id -> frame -> box
TrackBoxes = dict[int, dict[int, BBox2D]]


def check_match_iou(match_iou: float) -> None:
    """ValueError unless 0 < match_iou <= 1 (NaN fails too)."""
    if not 0 < match_iou <= 1:
        raise ValueError(f"match IoU must lie in (0, 1]: {match_iou}")


def iou(a: BBox2D, b: BBox2D) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes.

    For integer-valued boxes the intersection and union areas are exact
    in double precision and the result is one correctly-rounded division.
    """
    # x2, y2 and area as the properties compute them, without their calls;
    # min(p, q) and max(p, q) written as the one comparison each makes:
    # q only if q < p (q > p), so ties keep p, as the builtins do
    ax, ay, aw, ah = a.x, a.y, a.w, a.h
    bx, by, bw, bh = b.x, b.y, b.w, b.h
    ax2, ay2, bx2, by2 = ax + aw, ay + ah, bx + bw, by + bh
    iw = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
    ih = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def scaled_iou(ious: float | np.ndarray) -> np.ndarray:
    """The solver's matching likelihood: an IoU (or an array of them)
    scaled by IOU_SCALE and rounded to the nearest integer, ties to even.
    Like :func:`iou_matrix`, the dense reference, which no engine path
    calls: numpy is imported here, not with the module."""
    import numpy as np

    return np.rint(IOU_SCALE * np.asarray(ious)).astype(np.int64)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) float arrays of (x, y, w, h)
    rows of valid boxes, whose unions are all positive; bit for bit :func:`iou`."""
    import numpy as np

    ax1, ay1 = a[:, 0:1], a[:, 1:2]
    ax2, ay2 = ax1 + a[:, 2:3], ay1 + a[:, 3:4]
    bx1, by1 = b[None, :, 0], b[None, :, 1]
    bx2, by2 = bx1 + b[None, :, 2], by1 + b[None, :, 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] * a[:, 3])[:, None]
    area_b = (b[:, 2] * b[:, 3])[None, :]
    return inter / (area_a + area_b - inter)


_SCAN_ALL_MAX = 8  # overlap_likelihoods sweeps a frame of more detections


def overlap_likelihoods(
    tracks: Iterable[tuple[int, BBox2D]], dets: Sequence[tuple[int, BBox2D]]
) -> dict[tuple[int, int], int]:
    """The non-zero :func:`scaled_iou` of every (track, detection) pair of
    ``(id, box)`` pairs, keyed ``(track id, detection id)``, as Python
    ints: per track in the given order, its detections by (x, id).

    A sweep over the detections sorted by left edge: each track scans
    only the slice whose x-intervals can meet its own (the module
    docstring says why no pair with a non-zero value lies outside it);
    in a frame of at most ``_SCAN_ALL_MAX`` detections, the slice is
    all of them.
    ``round`` rounds ties to even, as ``np.rint`` does, so a value of at
    most 0.5 rounds to 0 and is dropped; so is a NaN (two boxes whose
    bottom or right edges overflow to inf), which the dense cast to
    int64 leaves undefined."""
    # x2, y2 and area as the properties compute them, without their calls
    rows = sorted([(b.x, did, b.y, b.x + b.w, b.y + b.h, b.w * b.h) for did, b in dets])
    if not rows:
        return {}
    # A frame of few detections scans them all: the window's lists and
    # bisects cost more than the pairs they skip (on a 2-vCPU VM, 3.1
    # against 4.6 µs a frame at 3 tracks and 3 detections; even at ~10).
    sweep = len(rows) > _SCAN_ALL_MAX
    if sweep:
        wmax = max([b.w for _, b in dets])
        xs = [r[0] for r in rows]
        reach = [x + wmax for x in xs]
    out = {}
    for tid, a in tracks:
        ax, ay, aw, ah = a.x, a.y, a.w, a.h
        ax2, ay2, area = ax + aw, ay + ah, aw * ah
        window = rows[bisect_right(reach, ax) : bisect_left(xs, ax2)] if sweep else rows
        for bx, did, by, bx2, by2, b_area in window:
            # Holds whenever ih > 0; in a crowded frame it rejects most of
            # the window at two comparisons.
            if by < ay2 and ay < by2:
                iw = (ax2 if ax2 < bx2 else bx2) - (ax if ax > bx else bx)
                ih = (ay2 if ay2 < by2 else by2) - (ay if ay > by else by)
                if iw > 0 and ih > 0:
                    inter = iw * ih
                    v = IOU_SCALE * (inter / (area + b_area - inter))
                    if v > 0.5:
                        out[tid, did] = round(v)
    return out


def overlapping_top(a: BBox2D, b: BBox2D) -> bool:
    """True iff a overlaps b and b's bottom edge is at or below a's.

    Under the ground-plane assumption a lower bottom edge means b is
    nearer the camera, i.e. a could hide behind b.
    """
    return iou(a, b) > 0 and b.y2 >= a.y2


def proper_part(a: BBox2D, b: BBox2D) -> bool:
    """True iff a lies strictly inside b (no shared or crossed edges)."""
    return b.x < a.x and b.y < a.y and a.x2 < b.x2 and a.y2 < b.y2


# The ego corridor: the central third of the image width, lower half of
# its height (inclusive boundaries).
_CORRIDOR_X = (1.0 / 3.0, 2.0 / 3.0)
_CORRIDOR_Y_MIN = 0.5


def in_front_region(p: tuple[float, float], frame_geom: tuple[float, float]) -> bool:
    """True iff point p falls in the ego corridor of the image."""
    w, h = frame_geom
    x, y = p
    return (_CORRIDOR_X[0] * w <= x <= _CORRIDOR_X[1] * w) and (y >= _CORRIDOR_Y_MIN * h)
