"""Constant-velocity Kalman filtering of all live tracks as one bank.

State vector (7): [cx, cy, s, r, v_cx, v_cy, v_s] where s is the box area
and r the aspect ratio (w/h); r carries no velocity.  Measurements are
[cx, cy, s, r].  Default noise levels: measurement diag(1, 1, 10, 10),
process noise small on the velocity components.  F, Q, R and the initial
covariance never couple cx, cy, s and r, nor does a gain with one
measurement per column, so S = H P Hᵀ + R stays exactly diagonal and the
gain scales P Hᵀ by the reciprocals of its diagonal instead of inverting S.

The bank holds one row per track: states as an (n, 7) array and
covariances as an (n, 7, 7) array, in ascending track id order.  A frame
predicts every row with one stacked pass and corrects the observed rows
with another; each row's results are bit for bit those of a per-track
filter that inverts S.  A row's box is computed from its state alone, by
:func:`z_to_box`; the bank keeps no boxes.
"""

from __future__ import annotations

import numpy as np

from .geometry import BBox2D

__all__ = ["MotionFilter", "box_to_z", "z_to_box"]

# Transition: constant velocity on cx, cy, s; r constant.
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
MEASUREMENT_NOISE = np.diag([1.0, 1.0, 10.0, 10.0])
PROCESS_NOISE = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4])
INITIAL_COVARIANCE = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])


def box_to_z(boxes: list[BBox2D]) -> np.ndarray:
    """(n, 4) measurements [cx, cy, s, r] of n boxes."""
    z = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)
    w, h = z[:, 2], z[:, 3]
    z[:, :2] += z[:, 2:] / 2.0
    z[:, 2], z[:, 3] = w * h, w / h
    return z


def z_to_box(z: np.ndarray) -> list[BBox2D]:
    """Boxes of the (n, 4) measurement-space rows of ``z``; only a non-positive
    area or aspect is clamped (to 1e-12), so a box of any valid size predicts
    itself.  The width is sqrt(s * r), or sqrt(s) * sqrt(r) where s * r over-
    or underflows (a valid box may be that wide or that thin)."""
    s, r = z[:, 2], z[:, 3]
    s_pos, r_pos = np.where(s <= 0, 1e-12, s), np.where(r <= 0, 1e-12, r)
    xywh = np.empty((len(z), 4))
    with np.errstate(over="ignore"):
        w = np.sqrt(s_pos * r_pos)
        # w > 0 unless the state is NaN, so s / w never divides by zero.
        xywh[:, 2] = w = np.where(np.isinf(w) | (w == 0), np.sqrt(s_pos) * np.sqrt(r_pos), w)
    xywh[:, 3] = s_pos / w
    xywh[:, :2] = z[:, :2] - xywh[:, 2:] / 2.0
    # tolist() gives Python floats: a numpy scalar's repr would leak into
    # the written track files.
    return [BBox2D(*row) for row in xywh.tolist()]


class MotionFilter:
    """Kalman bank of every live track; rows in ascending track id order.

    Track ids must be added in increasing order (the engine allocates
    them that way), so appending a row keeps the order.  The predicted
    boxes are those of the predicted states.
    """

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.x = np.zeros((0, 7))
        self.P = np.zeros((0, 7, 7))

    def add(self, tid: int, box: BBox2D) -> None:
        """Start a row for track ``tid`` at ``box``, zero velocity."""
        if self.ids and tid <= self.ids[-1]:
            raise ValueError(f"track {tid} added after track {self.ids[-1]}")
        x = np.zeros((1, 7))
        x[:, :4] = box_to_z([box])
        self.ids.append(tid)
        self.x = np.concatenate([self.x, x])
        self.P = np.concatenate([self.P, INITIAL_COVARIANCE[None]])

    def drop(self, tid: int) -> None:
        """Remove track ``tid``'s row."""
        i = self.ids.index(tid)
        del self.ids[i]
        self.x = np.delete(self.x, i, axis=0)
        self.P = np.delete(self.P, i, axis=0)

    def predict(self) -> list[BBox2D]:
        """Advance every row one frame; returns the boxes of the predicted
        states in row order."""
        x = self.x
        # Avoid driving the area negative when area velocity is large.
        x[x[:, 2] + x[:, 6] <= 0, 6] = 0.0
        self.x = x @ _F.T
        self.P = _F @ self.P @ _F.T + PROCESS_NOISE
        return z_to_box(self.x[:, :4])

    def update(self, obs: dict[int, BBox2D]) -> None:
        """Standard Kalman correction on (cx, cy, s, r) of the rows of the
        tracks in ``obs``, one observed box each."""
        if not obs:
            return
        rows = [self.ids.index(t) for t in obs]
        x, P = self.x[rows], self.P[rows]
        y = box_to_z(list(obs.values())) - x @ _H.T
        S = _H @ P @ _H.T + MEASUREMENT_NOISE
        K = P @ _H.T * (1.0 / np.diagonal(S, axis1=1, axis2=2))[:, None, :]
        x = x + (K @ y[:, :, None])[:, :, 0]
        P = (np.eye(7) - K @ _H) @ P
        # Keep the covariance numerically symmetric.
        P = (P + P.transpose(0, 2, 1)) / 2.0
        self.x[rows], self.P[rows] = x, P

    def velocity(self, tid: int) -> tuple[float, float]:
        """Estimated (MovX, MovY) of track ``tid`` in px/frame."""
        vx, vy = self.x[self.ids.index(tid), 4:6].tolist()
        return vx, vy
