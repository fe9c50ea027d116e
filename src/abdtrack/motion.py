"""Constant-velocity Kalman filtering of all live tracks as one bank.

State vector (7): [cx, cy, s, r, v_cx, v_cy, v_s] where s is the box area
and r the aspect ratio (w/h); r carries no velocity.  Measurements are
[cx, cy, s, r].  F, H, Q, R and the initial covariance never couple cx,
cy, s and r, so every covariance stays exactly block-diagonal: a 2×2
block [[a, b], [b, d]] per position and its velocity, plus the variance
of r, and S = H P Hᵀ + R is diagonal.  A track's row is one list of 17
Python floats: each pair as x, v, a, b, d, in cx, cy, s order, then r
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

# Diagonals of the noise and initial covariances, in state order
# (measurement noise in measurement order).
MEASUREMENT_NOISE = (1.0, 1.0, 10.0, 10.0)
PROCESS_NOISE = (1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4)
INITIAL_COVARIANCE = (10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4)


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
        self.rows[tid] = [
            cx, 0.0, p[0], 0.0, p[4],
            cy, 0.0, p[1], 0.0, p[5],
            s, 0.0, p[2], 0.0, p[6],
            r, p[3],
        ]

    def drop(self, tid: int) -> None:
        """Remove track ``tid``'s row."""
        del self.rows[tid]

    def predict(self) -> list[BBox2D]:
        """Advance every row one frame; returns the boxes of the predicted
        states in row order."""
        q_cx, q_cy, q_s, q_r, q_vcx, q_vcy, q_vs = PROCESS_NOISE
        boxes = []
        # The cx, cy and s pairs written out (suffixes 0, 1 and 2), each
        # row read and written once: a loop over the pairs costs more.
        for row in self.rows.values():
            x0, v0, a0, b0, d0, x1, v1, a1, b1, d1, x2, v2, a2, b2, d2, r, p = row
            # Avoid driving the area negative when area velocity is large.
            if x2 + v2 <= 0:
                v2 = 0.0
            e0, e1, e2 = b0 + d0, b1 + d1, b2 + d2
            x0, x1, x2 = x0 + v0, x1 + v1, x2 + v2
            row[:] = (
                x0, v0, ((a0 + b0) + e0) + q_cx, e0, d0 + q_vcx,
                x1, v1, ((a1 + b1) + e1) + q_cy, e1, d1 + q_vcy,
                x2, v2, ((a2 + b2) + e2) + q_s, e2, d2 + q_vs,
                r, p + q_r,
            )
            # z_to_box(x0, x1, x2, r), written out
            area, aspect = x2, r
            if area <= 0:
                area = 1e-12
            if aspect <= 0:
                aspect = 1e-12
            w = sqrt(area * aspect)
            if w == 0 or w == inf:
                w = sqrt(area) * sqrt(aspect)
            h = area / w
            boxes.append(BBox2D(x0 - w / 2.0, x1 - h / 2.0, w, h))
        return boxes

    def update(self, obs: dict[int, BBox2D]) -> None:
        """Standard Kalman correction on (cx, cy, s, r) of the rows of the
        tracks in ``obs``, one observed box each."""
        m_cx, m_cy, m_s, m_r = MEASUREMENT_NOISE
        rows = self.rows
        for tid, box in obs.items():
            row = rows[tid]
            x0, v0, a0, b0, d0, x1, v1, a1, b1, d1, x2, v2, a2, b2, d2, r, p = row
            # box_to_z(box), written out
            bx, by, bw, bh = float(box.x), float(box.y), float(box.w), float(box.h)
            # The pairs written out as in predict.  b: the mean of
            # P[i,i+4] and P[i+4,i], as (P + Pᵀ) / 2 takes it.
            inv = 1.0 / (a0 + m_cx)
            ka0, kb0, y0 = a0 * inv, b0 * inv, (bx + bw / 2.0) - x0
            c0 = 1.0 - ka0
            inv = 1.0 / (a1 + m_cy)
            ka1, kb1, y1 = a1 * inv, b1 * inv, (by + bh / 2.0) - x1
            c1 = 1.0 - ka1
            inv = 1.0 / (a2 + m_s)
            ka2, kb2, y2 = a2 * inv, b2 * inv, bw * bh - x2
            c2 = 1.0 - ka2
            k = p * (1.0 / (p + m_r))
            row[:] = (
                x0 + ka0 * y0, v0 + kb0 * y0, c0 * a0, (c0 * b0 + (-kb0 * a0 + b0)) / 2.0,
                -kb0 * b0 + d0,
                x1 + ka1 * y1, v1 + kb1 * y1, c1 * a1, (c1 * b1 + (-kb1 * a1 + b1)) / 2.0,
                -kb1 * b1 + d1,
                x2 + ka2 * y2, v2 + kb2 * y2, c2 * a2, (c2 * b2 + (-kb2 * a2 + b2)) / 2.0,
                -kb2 * b2 + d2,
                r + k * (bw / bh - r), (1.0 - k) * p,
            )

    def velocity(self, tid: int) -> tuple[float, float]:
        """Estimated (MovX, MovY) of track ``tid`` in px/frame."""
        row = self.rows[tid]
        return row[1], row[6]
