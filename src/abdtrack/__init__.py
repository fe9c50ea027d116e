"""abdtrack: online multi-object tracking with joint event abduction.

Per frame the engine solves detection-to-track assignment together with
the high-level events (occlusion, missing detections, field-of-view
entry/exit) that explain it, keeps an event-calculus fluent store,
anticipates the reappearance of hidden tracks, and scores results with
CLEAR-MOT metrics.

``synth``, which needs numpy, ``metrics`` and ``baseline`` load on first
use of a name they export (PEP 562), so that importing the package and
stepping an engine load neither numpy nor scipy; ``metrics`` and
``baseline`` need neither, but loading them with the package would cost
every ``import abdtrack`` their import time.
"""

from importlib import import_module

from .abduction import (
    Action,
    ActionKind,
    ProblemSpec,
    SolveResult,
    Thresholds,
    TrackPrediction,
    candidate_actions,
    emit_facts,
    link_events,
    solve,
    solve_oracle,
)
from .anticipation import Anticipation, anticipate_unhide, interpolated_position, warnings
from .domain import (
    Detection,
    EventKind,
    EventOccurrence,
    FluentStore,
    Track,
    TrackState,
    Visibility,
    apply_event,
    possible,
)
from .geometry import BBox2D, in_front_region, iou, overlapping_top, proper_part
from .motion import MotionFilter
from .tracker import AbductionEngine, EngineConfig, Explanation

__version__ = "0.1.0"

# Lazily re-exported: name -> the module that defines it.
_LAZY = {
    "GreedyIoUTracker": "baseline",
    "EvalReport": "metrics",
    "evaluate": "metrics",
    "ScenarioConfig": "synth",
    "generate": "synth",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    elif name in ("baseline", "metrics", "synth"):
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
