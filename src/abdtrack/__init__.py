"""abdtrack: online multi-object tracking with joint event abduction.

Per frame the engine solves detection-to-track assignment together with
the high-level events (occlusion, missing detections, field-of-view
entry/exit) that explain it, keeps an event-calculus fluent store,
anticipates the reappearance of hidden tracks, and scores results with
CLEAR-MOT metrics.
"""

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
from .baseline import GreedyIoUTracker
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
from .metrics import EvalReport, evaluate
from .motion import MotionFilter
from .synth import ScenarioConfig, generate
from .tracker import AbductionEngine, EngineConfig, Explanation

__version__ = "0.1.0"
