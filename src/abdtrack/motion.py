"""Constant-velocity Kalman filtering per track.

State vector (7): [cx, cy, s, r, v_cx, v_cy, v_s] where s is the box area
and r the aspect ratio (w/h); r carries no velocity.  Measurements are
[cx, cy, s, r].  Default noise levels: measurement diag(1, 1, 10, 10),
process noise small on the velocity components.
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


def box_to_z(b: BBox2D) -> np.ndarray:
    return np.array([b.cx, b.cy, b.area, b.w / b.h], dtype=float)


def z_to_box(z: np.ndarray) -> BBox2D:
    cx, cy, s, r = float(z[0]), float(z[1]), float(z[2]), float(z[3])
    w = float(np.sqrt(max(s, 1e-12) * max(r, 1e-12)))
    h = s / w if w > 0 else 1e-6
    return BBox2D(cx - w / 2.0, cy - h / 2.0, max(w, 1e-6), max(h, 1e-6))


class MotionFilter:
    """Kalman filter owned by a single track; mutated sequentially."""

    def __init__(self, box: BBox2D):
        self.x = np.zeros(7)
        self.x[:4] = box_to_z(box)
        self.P = INITIAL_COVARIANCE.copy()
        self._last_box = box

    def predict(self) -> BBox2D:
        """Advance one frame; returns the predicted box.

        A degenerate predicted area keeps the last valid box.
        """
        # Avoid driving the area negative when area velocity is large.
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x = _F @ self.x
        self.P = _F @ self.P @ _F.T + PROCESS_NOISE
        if self.x[2] <= 0 or self.x[3] <= 0:
            return self._last_box
        self._last_box = z_to_box(self.x[:4])
        return self._last_box

    def update(self, obs: BBox2D) -> None:
        """Standard Kalman correction on (cx, cy, s, r)."""
        z = box_to_z(obs)
        y = z - _H @ self.x
        S = _H @ self.P @ _H.T + MEASUREMENT_NOISE
        K = self.P @ _H.T @ np.linalg.inv(S)
        self.x = self.x + K @ y
        self.P = (np.eye(7) - K @ _H) @ self.P
        # Keep the covariance numerically symmetric.
        self.P = (self.P + self.P.T) / 2.0
        self._last_box = z_to_box(self.x[:4])

    def current_box(self) -> BBox2D:
        return self._last_box

    def velocity(self) -> tuple[float, float]:
        """Estimated (MovX, MovY) in px/frame."""
        return float(self.x[4]), float(self.x[5])
