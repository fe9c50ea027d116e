"""Constant-velocity Kalman filtering of all live tracks as one bank.

State vector (7): [cx, cy, s, r, v_cx, v_cy, v_s] where s is the box area
and r the aspect ratio (w/h); r carries no velocity.  Measurements are
[cx, cy, s, r].  F, H, Q, R and the initial covariance never couple cx,
cy, s and r, so every covariance stays exactly block-diagonal: a 2×2
block [[a, b], [b, d]] per position and its velocity, plus the variance
of r, and S = H P Hᵀ + R is diagonal.  A track's row holds each pair as
``[x, v, a, b, d]`` and r as ``[r, P[3,3]]``, 17 Python floats in all.
F and H hold only 0s and 1s, so an entry of F x, F P Fᵀ, K y or
(I - K H) P sums at most two non-zero products; the row formulas round
them in the matrix products' order (a + b before + (b + d), -kb·a before
+ b), and the gain multiplies by the reciprocal of S's diagonal entry.
Every state, covariance and box is thus bit for bit that of the textbook
filter on full 7×7 matrices.  A row's box is computed from its state
alone, by :func:`z_to_box`.
"""

from __future__ import annotations

import math

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
        self.rows: dict[int, tuple[list[float], ...]] = {}

    @property
    def ids(self) -> list[int]:
        """Live track ids in row order."""
        return list(self.rows)

    def add(self, tid: int, box: BBox2D) -> None:
        """Start a row for track ``tid`` at ``box``, zero velocity."""
        if self.rows and tid <= (last := next(reversed(self.rows))):
            raise ValueError(f"track {tid} added after track {last}")
        z, p = box_to_z(box), INITIAL_COVARIANCE
        pairs = ([z_i, 0.0, p[i], 0.0, p[i + 4]] for i, z_i in enumerate(z[:3]))
        self.rows[tid] = (*pairs, [z[3], p[3]])

    def drop(self, tid: int) -> None:
        """Remove track ``tid``'s row."""
        del self.rows[tid]

    def predict(self) -> list[BBox2D]:
        """Advance every row one frame; returns the boxes of the predicted
        states in row order."""
        q_cx, q_cy, q_s, q_r, q_vcx, q_vcy, q_vs = PROCESS_NOISE
        boxes = []
        for cx, cy, s, r in self.rows.values():
            # Avoid driving the area negative when area velocity is large.
            if s[0] + s[1] <= 0:
                s[1] = 0.0
            # The cx, cy and s pairs written out: a loop over them costs more.
            x, v, a, b, d = cx
            e = b + d
            cx[:] = x + v, v, ((a + b) + e) + q_cx, e, d + q_vcx
            x, v, a, b, d = cy
            e = b + d
            cy[:] = x + v, v, ((a + b) + e) + q_cy, e, d + q_vcy
            x, v, a, b, d = s
            e = b + d
            s[:] = x + v, v, ((a + b) + e) + q_s, e, d + q_vs
            r[1] += q_r
            boxes.append(z_to_box(cx[0], cy[0], s[0], r[0]))
        return boxes

    def update(self, obs: dict[int, BBox2D]) -> None:
        """Standard Kalman correction on (cx, cy, s, r) of the rows of the
        tracks in ``obs``, one observed box each."""
        m_cx, m_cy, m_s, m_r = MEASUREMENT_NOISE
        for tid, box in obs.items():
            cx, cy, s, r = self.rows[tid]
            z_cx, z_cy, z_s, z_r = box_to_z(box)
            # The pairs written out as in predict.  b: the mean of
            # P[i,i+4] and P[i+4,i], as (P + Pᵀ) / 2 takes it.
            x, v, a, b, d = cx
            inv = 1.0 / (a + m_cx)
            ka, kb, y = a * inv, b * inv, z_cx - x
            c = 1.0 - ka
            cx[:] = x + ka * y, v + kb * y, c * a, (c * b + (-kb * a + b)) / 2.0, -kb * b + d
            x, v, a, b, d = cy
            inv = 1.0 / (a + m_cy)
            ka, kb, y = a * inv, b * inv, z_cy - x
            c = 1.0 - ka
            cy[:] = x + ka * y, v + kb * y, c * a, (c * b + (-kb * a + b)) / 2.0, -kb * b + d
            x, v, a, b, d = s
            inv = 1.0 / (a + m_s)
            ka, kb, y = a * inv, b * inv, z_s - x
            c = 1.0 - ka
            s[:] = x + ka * y, v + kb * y, c * a, (c * b + (-kb * a + b)) / 2.0, -kb * b + d
            x, p = r
            k = p * (1.0 / (p + m_r))
            r[:] = x + k * (z_r - x), (1.0 - k) * p

    def velocity(self, tid: int) -> tuple[float, float]:
        """Estimated (MovX, MovY) of track ``tid`` in px/frame."""
        cx, cy = self.rows[tid][:2]
        return cx[1], cy[1]
