"""Test-only reference Kalman filter: the textbook recursion on one track's
full 7-entry state and 7×7 covariance, with numpy matrix products and
``np.linalg.inv`` of S.  :class:`abdtrack.motion.MotionFilter` keeps each
track as a row of scalars; :func:`row_matrices` expands a row to the
reference's (x, P), so the two compare bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from abdtrack.geometry import BBox2D
from abdtrack.motion import INITIAL_COVARIANCE, MEASUREMENT_NOISE, PROCESS_NOISE

F = np.array(
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
H = np.eye(4, 7)
R = np.diag(MEASUREMENT_NOISE)
Q = np.diag(PROCESS_NOISE)
P0 = np.diag(INITIAL_COVARIANCE)


def measure(b: BBox2D) -> np.ndarray:
    return np.array([b.x + b.w / 2.0, b.y + b.h / 2.0, b.w * b.h, b.w / b.h])


def state_box(z: np.ndarray) -> BBox2D:
    cx, cy, s, r = (float(v) for v in z)
    s, r = (v if not v <= 0 else 1e-12 for v in (s, r))
    w = math.sqrt(s * r)
    if w == 0 or math.isinf(w):
        w = math.sqrt(s) * math.sqrt(r)
    h = s / w
    return BBox2D(cx - w / 2.0, cy - h / 2.0, w, h)


class ScalarKF:
    """Independent per-track reference: the textbook recursion on one
    state vector, with the engine's area-velocity clamp, the box of the
    predicted state (area and aspect clamped) and covariance
    symmetrisation."""

    def __init__(self, box: BBox2D):
        self.x = np.zeros(7)
        self.x[:4] = measure(box)
        self.P = P0.copy()

    def predict(self) -> BBox2D:
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x = F @ self.x
        self.P = F @ self.P @ F.T + Q
        return state_box(self.x[:4])

    def update(self, b: BBox2D) -> None:
        y = measure(b) - H @ self.x
        S = H @ self.P @ H.T + R
        K = self.P @ H.T @ np.linalg.inv(S)
        self.x = self.x + K @ y
        self.P = (np.eye(7) - K @ H) @ self.P
        self.P = (self.P + self.P.T) / 2.0


def row_matrices(row) -> tuple[np.ndarray, np.ndarray]:
    """(x, P) of a bank row: the state vector and the full covariance,
    exactly 0.0 outside the cx, cy and s pair blocks and r's variance; the
    cx and cy blocks are the row's one position block."""
    cx, v_cx, cy, v_cy, *pos, s, v_s = row[:9]
    x = np.array([cx, cy, s, row[12], v_cx, v_cy, v_s])
    P = np.zeros((7, 7))
    for i, (a, b, d) in enumerate((pos, pos, row[9:12])):
        P[i, i], P[i, i + 4], P[i + 4, i], P[i + 4, i + 4] = a, b, b, d
    P[3, 3] = row[13]
    return x, P


def set_row(row, x: np.ndarray, P: np.ndarray) -> None:
    """Write a state and a covariance into a bank row; P must have the
    row's layout, cx's block equal to cy's included, which
    :func:`row_matrices` of the row then returns."""
    row[:] = (float(v) for v in (
        x[0], x[4], x[1], x[5], P[0, 0], P[0, 4], P[4, 4],
        x[2], x[6], P[2, 2], P[2, 6], P[6, 6], x[3], P[3, 3],
    ))
    got_x, got_P = row_matrices(row)
    assert np.array_equal(got_x, x) and np.array_equal(got_P, P)
