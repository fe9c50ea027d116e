"""Constant-velocity Kalman filtering of all live tracks as one bank.

State vector (7): [cx, cy, s, r, v_cx, v_cy, v_s] where s is the box area
and r the aspect ratio (w/h); r carries no velocity.  Measurements are
[cx, cy, s, r].  F, H, Q, R and the initial covariance never couple cx,
cy, s and r, so every covariance stays exactly block-diagonal: a 2×2
block [[a, b], [b, d]] per position and its velocity, plus the variance
of r, and S = H P Hᵀ + R is diagonal.  cx and cy share every noise and
initial entry, so their blocks are always equal, and a row keeps one
for both.  A track's row is one list of 14 Python floats: cx, v_cx, cy,
v_cy and the position block's a, b, d; s, v_s and its a, b, d; then r
and P[3,3].
F and H hold only 0s and 1s, so an entry of F x, F P Fᵀ, K y or
(I - K H) P sums at most two non-zero products; the row formulas round
them in the matrix products' order (a + b before + (b + d), -kb·a before
+ b), and the gain multiplies by the reciprocal of S's diagonal entry.
Every state, covariance and box is thus bit for bit that of the textbook
filter on full 7×7 matrices.  A row's box is computed from its state
alone, by :func:`z_to_box`, which :meth:`MotionFilter.predict` writes
out, as :meth:`MotionFilter.update` writes out :func:`box_to_z`: a call
per row costs more than its arithmetic.
"""

from __future__ import annotations

import math
from math import inf, sqrt

from .geometry import BBox2D

__all__ = ["MotionFilter", "box_to_z", "z_to_box"]

# Per axis kind: the measurement noise, process noise and initial
# variance of the value, then the process noise and initial variance of
# its velocity (the aspect has none).  cx and cy are both positions.
_POSITION = (1.0, 1.0, 10.0, 0.01, 1e4)
_AREA = (10.0, 1.0, 10.0, 1e-4, 1e4)
_ASPECT = (10.0, 1.0, 10.0)
# Diagonals of the noise and initial covariances, in state order
# (measurement noise in measurement order).
_KINDS = (_POSITION, _POSITION, _AREA, _ASPECT)
MEASUREMENT_NOISE = tuple(k[0] for k in _KINDS)
PROCESS_NOISE = tuple(k[1] for k in _KINDS) + tuple(k[3] for k in _KINDS[:3])
INITIAL_COVARIANCE = tuple(k[2] for k in _KINDS) + tuple(k[4] for k in _KINDS[:3])


def box_to_z(box: BBox2D) -> tuple[float, float, float, float]:
    """Measurement [cx, cy, s, r] of ``box``, as Python floats."""
    x, y, w, h = float(box.x), float(box.y), float(box.w), float(box.h)
    return x + w / 2.0, y + h / 2.0, w * h, w / h


def z_to_box(cx: float, cy: float, s: float, r: float) -> BBox2D:
    """Box of the measurement-space state; only a non-positive area or
    aspect is clamped (to 1e-12), so a box of any valid size predicts
    itself.  The width is sqrt(s * r), or sqrt(s) * sqrt(r) where s * r
    over- or underflows (a valid box may be that wide or that thin)."""
    s = 1e-12 if s <= 0 else s
    r = 1e-12 if r <= 0 else r
    w = math.sqrt(s * r)
    if w == 0 or math.isinf(w):
        w = math.sqrt(s) * math.sqrt(r)
    # w > 0 unless the state is NaN, so s / w never divides by zero.
    h = s / w
    return BBox2D(cx - w / 2.0, cy - h / 2.0, w, h)


class MotionFilter:
    """Kalman bank of every live track: ``rows`` maps each track id to its
    row, in ascending id order.

    Track ids must be added in increasing order (the engine allocates
    them that way), so inserting a row keeps the order.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list[float]] = {}

    @property
    def ids(self) -> list[int]:
        """Live track ids in row order."""
        return list(self.rows)

    def add(self, tid: int, box: BBox2D) -> None:
        """Start a row for track ``tid`` at ``box``, zero velocity."""
        if self.rows and tid <= (last := next(reversed(self.rows))):
            raise ValueError(f"track {tid} added after track {last}")
        (cx, cy, s, r), p = box_to_z(box), INITIAL_COVARIANCE
        self.rows[tid] = [cx, 0.0, cy, 0.0, p[0], 0.0, p[4], s, 0.0, p[2], 0.0, p[6], r, p[3]]

    def drop(self, tid: int) -> None:
        """Remove track ``tid``'s row."""
        del self.rows[tid]

    def predict(self) -> list[BBox2D]:
        """Advance every row one frame; returns the boxes of the predicted
        states in row order."""
        q, _, q_s, q_r, q_v, _, q_vs = PROCESS_NOISE
        boxes = []
        # The position and area blocks written out, each row read and
        # written once: a loop over the blocks costs more.
        for row in self.rows.values():
            x, vx, y, vy, a, b, d, s, vs, a_s, b_s, d_s, r, p = row
            # Avoid driving the area negative when area velocity is large.
            if s + vs <= 0:
                vs = 0.0
            e, e_s = b + d, b_s + d_s
            x, y, s = x + vx, y + vy, s + vs
            row[:] = (
                x, vx, y, vy, ((a + b) + e) + q, e, d + q_v,
                s, vs, ((a_s + b_s) + e_s) + q_s, e_s, d_s + q_vs, r, p + q_r,
            )
            # z_to_box(x, y, s, r), written out
            area, aspect = s, r
            if area <= 0:
                area = 1e-12
            if aspect <= 0:
                aspect = 1e-12
            w = sqrt(area * aspect)
            if w == 0 or w == inf:
                w = sqrt(area) * sqrt(aspect)
            h = area / w
            boxes.append(BBox2D(x - w / 2.0, y - h / 2.0, w, h))
        return boxes

    def update(self, obs: dict[int, BBox2D]) -> None:
        """Standard Kalman correction on (cx, cy, s, r) of the rows of the
        tracks in ``obs``, one observed box each."""
        m, _, m_s, m_r = MEASUREMENT_NOISE
        rows = self.rows
        for tid, box in obs.items():
            row = rows[tid]
            x, vx, y, vy, a, b, d, s, vs, a_s, b_s, d_s, r, p = row
            # box_to_z(box), written out
            bx, by, bw, bh = float(box.x), float(box.y), float(box.w), float(box.h)
            # The blocks written out as in predict: one gain (ka, kb) for
            # both position axes.  b: the mean of P[i,i+4] and P[i+4,i],
            # as (P + Pᵀ) / 2 takes it.
            inv = 1.0 / (a + m)
            ka, kb = a * inv, b * inv
            c, ex, ey = 1.0 - ka, (bx + bw / 2.0) - x, (by + bh / 2.0) - y
            inv = 1.0 / (a_s + m_s)
            ka_s, kb_s, es = a_s * inv, b_s * inv, bw * bh - s
            c_s = 1.0 - ka_s
            k = p * (1.0 / (p + m_r))
            row[:] = (
                x + ka * ex, vx + kb * ex, y + ka * ey, vy + kb * ey,
                c * a, (c * b + (-kb * a + b)) / 2.0, -kb * b + d,
                s + ka_s * es, vs + kb_s * es,
                c_s * a_s, (c_s * b_s + (-kb_s * a_s + b_s)) / 2.0, -kb_s * b_s + d_s,
                r + k * (bw / bh - r), (1.0 - k) * p,
            )

    def velocity(self, tid: int) -> tuple[float, float]:
        """Estimated (MovX, MovY) of track ``tid`` in px/frame."""
        row = self.rows[tid]
        return row[1], row[3]
