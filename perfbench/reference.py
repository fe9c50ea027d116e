"""A fixed reference task that gauges how fast the machine runs at a moment.

On a shared VM the CPU's speed drifts by up to ~1.7x, in spells that last
from a fraction of a second to several minutes (seen on a 2-vCPU VM: a
neighbour's load slowed every run of a 3-minute series by the same
factor).  Within one run nothing tells a slow spell from a slow program,
so the benchmark times this task between the pieces of work it measures
and scales each piece's time to the task's speed:

    scaled time = measured time * REF_S / (the task's time nearby)

The result reads as the time the piece takes while the task takes REF_S,
its time in a fast spell of that VM.  The task uses nothing of abdtrack,
so a change to the program leaves it alone; it mixes the kinds of work a
tracker frame does (small numpy arrays, one scipy assignment, Python
dicts, lists, sorting and float arithmetic), so a slow spell slows it
about as much as the frames.  On that VM this took the spread of churn's
per-pass time from about 0.23 to 0.04 (IQR over median, 44 passes over
200 s).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

# The task's time in a fast spell of a 2-vCPU VM (Xeon, 2.0 GHz).  Any
# fixed value would do; this one keeps scaled times close to raw ones.
REF_S = 0.70e-3

_RNG = np.random.default_rng(12345)
_A = np.column_stack([_RNG.uniform(0, 600, (12, 2)), _RNG.uniform(20, 60, (12, 2))])
_B = _A + _RNG.normal(0, 3, (12, 4))


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2])
    y2 = np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    return inter / (a[:, None, 2] * a[:, None, 3] + b[None, :, 2] * b[None, :, 3] - inter)


def task(reps: int = 8) -> float:
    """The reference work; about REF_S in a fast spell."""
    acc = 0.0
    for _ in range(reps):
        m = _iou(_A, _B)
        rows, cols = linear_sum_assignment(-m)
        d = {}
        for i, j in zip(rows.tolist(), cols.tolist()):
            d[i] = (j, float(m[i, j]), [i * 0.5, j * 0.25])
        for _, v in sorted(d.items(), key=lambda kv: kv[1][1]):
            acc += v[1] + sum(v[2])
        s = 0.0
        for i in range(300):
            s += (i * 1.5) % 7.0
        acc += s
    return acc


def time_task() -> float:
    """Seconds one run of the task takes now."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def smoothed(samples: list[float], width: int = 5) -> np.ndarray:
    """Each sample replaced by the median of the ``width`` samples centred
    on it (fewer at the ends), so one disturbed probe does not set the
    scale of the work next to it."""
    h = width // 2
    return np.array([
        statistics.median(samples[max(0, i - h): i + h + 1]) for i in range(len(samples))
    ])
