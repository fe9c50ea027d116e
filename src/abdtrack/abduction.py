"""Per-frame joint assignment and event abduction.

Every track and every detection must be covered by exactly one action:

    assign(trk, det) | start(det) | end(trk) | halt(trk)
    | resume(trk, det) | ignore_trk(trk) | ignore_det(det)

Candidate actions are generated choice-rule style and pruned by integrity
constraints; each non-assign action must additionally be explainable by at
least one possible high-level event, its abduced event, the first
possible one in preference order.  A frame's options go once each, with
their abduced events, into one option table, which also decides the
forced assigns (below).  The table leaves out what no optimum holds:
the objective makes end beat ignore_trk and start beat ignore_det, so
the dominated ignore is not made, and a forced assign takes its
detection in every optimum, so no resume to it is made; nor is the
option of that detection.  A halt, an active track's fallback, enters
the solve untested and is linked once the cover holds it (a cover halt
with no possible event raises ``EngineBugError``).  The optimum is
lexicographic:

    level 10 (maximize): sum of scaled IoU over assign pairs plus the
        number of assign actions (two equal-priority maximize terms);
    level  3 (minimize): 10 * (#ignore_det + #ignore_trk);
    level  2 (minimize): 5 * (#end + #start) + 1 * (#resume).

Ties are broken deterministically: lowest track id first, then lowest
detection id, then the fixed event-preference order of
:class:`~abdtrack.domain.EventKind`.

The solver decides each frame in one pass over the option table, each
track by an exact consequence of the objective (see :func:`solve`):

- no edge: a track with no edge takes its fallback;
- forced assign: an active track with one assign edge, to a detection no
  other track can assign, takes it in every optimum, as only assigns
  gain at level 10; the table names these pairs;
- one canonical matching: every other track is a row of one
  maximum-weight bipartite matching with LP duals, its gains written as
  the pass reaches it, in one fold of the three levels into one exact
  integer per kind of action, with constants sized to the frame's
  tracks and detections, made once the frame has a row (per-action
  costs are independent once event preconditions are evaluated against
  the pre-solve fluent state); tracks are then fixed in id order, and
  the duals settle each better-ranked edge on a detection no fixed track
  holds with no further solve: one alternating-path search runs from the
  track the swap leaves without an edge, then from the detection it
  leaves without its track.

Only the cover's actions are made as ``Action`` objects, each in its
place in the result; :func:`_objective` scores every cover, the
solver's as well as the oracle's.  ``solve_oracle`` exhaustively
enumerates every legal cover of small instances from the same table,
made into actions by :func:`candidate_actions`, and must agree with
``solve``; that view adds back the resumes to forced detections, and
the oracle the dominated ignores, so that both are checked, not
assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import Iterable, Iterator, Optional

from ._records import record
from .domain import (
    ACTIVE,
    ASSIGN,
    END,
    EVENTS,
    HALT,
    HALTED,
    IGNORE_DET,
    IGNORE_TRK,
    RESUME,
    START,
    ActionKind,
    Detection,
    EngineBugError,
    EventOccurrence,
    FluentStore,
    TrackState,
    possible,
    touched_fluents,
)
from .geometry import IOU_SCALE, BBox2D

__all__ = [
    "Thresholds",
    "TrackPrediction",
    "ProblemSpec",
    "ActionKind",
    "Action",
    "SolveResult",
    "candidate_actions",
    "link_events",
    "solve",
    "solve_oracle",
    "emit_facts",
]


@dataclass(frozen=True)
class Thresholds:
    """Engine constants gating assignment, resume, and track creation.
    All values are configurable; the defaults are engine choices."""

    iou_thresh: float = 0.3
    conf_thresh_assign: int = 30
    conf_thresh_resume: int = 50
    conf_thresh_new_track: int = 50
    size_threshold: float = 100.0
    max_halted_age: int = 30
    anticipation_threshold: int = 20
    anticipation_horizon: int = 60
    fov_margin: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_thresh < 1.0:
            raise ValueError("iou_thresh must be in [0, 1)")
        for f in fields(self)[1:]:  # every field after iou_thresh
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")
        # The scaled threshold, made once: every frame reads it.
        object.__setattr__(self, "iou_thresh_scaled", int(round(self.iou_thresh * IOU_SCALE)))

    def admits_start(self, det: Detection) -> bool:
        """The start constraint: a confident, large enough box."""
        return det.conf > self.conf_thresh_new_track and det.box.area > self.size_threshold

    def admitted_assigns(
        self,
        likelihoods: dict[tuple[int, int], int],
        dets: dict[int, Detection],
        preds: dict[int, TrackPrediction],
    ) -> dict[int, list[int]]:
        """The assign constraint: per active track with an admitted pair,
        the ids of the confident detections of its class whose scaled IoU
        exceeds the scaled threshold, in the order ``likelihoods`` lists
        them; ``dets`` and ``preds`` are the frame's detections and
        track predictions by id."""
        iou_min, conf_assign = self.iou_thresh_scaled, self.conf_thresh_assign
        assigns: dict[int, list[int]] = {}
        for (tid, did), ml in likelihoods.items():
            if ml > iou_min:
                det, pred = dets[did], preds[tid]
                if det.conf > conf_assign and det.cls == pred.cls and pred.state is ACTIVE:
                    assigns.setdefault(tid, []).append(did)
        return assigns


@record
class TrackPrediction:
    """One live track as the solver sees it."""

    box: BBox2D
    state: TrackState
    cls: str
    halted_age: int = 0


@record
class ProblemSpec:
    """Per-frame solver input: detections, predictions, matching
    likelihoods (scaled IoU, only pairs with IoU > 0), a read-only fluent
    snapshot, and the threshold configuration.  ``detections_by_id``,
    each detection by id in ``detections`` order, is made with the spec,
    not on first use: every solve reads it, and a ``cached_property``
    takes a lock per spec on Python 3.11."""

    frame: int
    detections: tuple[Detection, ...]
    predictions: dict[int, TrackPrediction]
    likelihoods: dict[tuple[int, int], int]
    fluents: FluentStore
    frame_geom: tuple[float, float]
    config: Thresholds = Thresholds()
    detections_by_id: dict[int, Detection] = field(init=False, repr=False, compare=False)

    @staticmethod
    def _detections_by_id(detections: tuple[Detection, ...]) -> dict[int, Detection]:
        return {d.id: d for d in detections}


@record
class Action:
    kind: ActionKind
    trk: Optional[int] = None
    det: Optional[int] = None
    event: Optional[EventOccurrence] = None

    def pretty(self) -> str:
        k = self.kind
        if k == ASSIGN or k == RESUME:
            return f"{k.value}(trk_{self.trk},det_{self.det})"
        if k in (END, HALT, IGNORE_TRK):
            return f"{k.value}(trk_{self.trk})"
        return f"{k.value}(det_{self.det})"


@record
class SolveResult:
    """The abduced hypothesis: one action per track and per detection,
    the linked events, and the objective value per level (level-10 is
    maximized, levels 3 and 2 are minimized)."""

    actions: tuple[Action, ...]
    events: tuple[EventOccurrence, ...]
    objective: tuple[int, int, int]


# ----------------------------------------------------------------------
# The option table (integrity-constraint level)
# ----------------------------------------------------------------------

Option = tuple[ActionKind, Optional[EventOccurrence]]  # a kind and its abduced event
TrackRow = tuple[Option, list[int], Option]  # edge, edge detection ids, fallback
# Every active track's edge and fallback options: neither has an event
# when the table is made, so all active rows share these two, and solve
# tells an active track's row by its edge's identity.
_ASSIGN_EDGE: Option = ASSIGN, None
_HALT_FALLBACK: Option = HALT, None


def _option_table(spec: ProblemSpec) -> tuple[dict[int, TrackRow], dict[int, int]]:
    """The frame's explained track options and its forced assigns: per
    track, in ascending id, its edge option, its edge detection ids in
    ascending order and its fallback; and per forced detection its track.

    Edges need the track's class and a confident detection: an active
    track's are the assigns :meth:`Thresholds.admitted_assigns` admits;
    a halted track's are resumes, which share one link.  A detection is
    forced when it is the one assign edge of an active track and no
    other track's assign edge: that track takes it in every optimum (see
    :func:`solve`), so the resume list of each class, made once, leaves
    the forced detections out, and a halted track left with none is not
    linked.  An active track's fallback, ``halt``, enters untested (see
    :func:`_fallback`): the canonical cover of this larger set, if its
    halts are explained, is that of the strict set, and
    missing_detections explains the halt of every active track the
    engine makes.  A halted track's fallback is the first explained of
    ``end``, ``ignore_trk``; a detection's is :func:`_det_option`."""
    config = spec.config
    dets = spec.detections_by_id
    preds = spec.predictions
    assigns = config.admitted_assigns(spec.likelihoods, dets, preds)
    forced: dict[int, int] = {}  # detection id -> its forced track
    claimed: set[int] = set()  # the detections of every assign edge
    for t, dids in assigns.items():
        for did in dids:
            if did in claimed:
                forced.pop(did, None)
            else:
                claimed.add(did)
                if len(dids) == 1:
                    forced[did] = t
    resumable: Optional[dict[str, list[int]]] = None  # made for the first halted track
    tracks = {}
    for tid in sorted(preds):
        pred = preds[tid]
        if pred.state is ACTIVE:
            dids = assigns.get(tid, [])
            if len(dids) > 1:  # the likelihoods list a track's pairs in any order
                dids.sort()
            tracks[tid] = _ASSIGN_EDGE, dids, _HALT_FALLBACK
        elif pred.state is HALTED:
            if resumable is None:
                resumable = {}
                for did in sorted(dets):
                    if dets[did].conf > config.conf_thresh_resume and did not in forced:
                        resumable.setdefault(dets[did].cls, []).append(did)
            dids = resumable.get(pred.cls, [])
            event = link_events(spec, RESUME, tid) if dids else None
            tracks[tid] = (RESUME, event), dids if event else [], _explained(spec, tid, None, END)
        else:
            raise EngineBugError(f"ended track {tid} in problem spec")
    return tracks, forced


def _det_option(spec: ProblemSpec, det: Detection) -> Option:
    """A detection's one option: the first explained of ``start`` (if
    :meth:`Thresholds.admits_start`), ``ignore_det``."""
    if spec.config.admits_start(det):
        return _explained(spec, None, det.id, START)
    return _explained(spec, None, det.id)


def candidate_actions(spec: ProblemSpec) -> tuple[dict[int, list[Action]], dict[int, list[Action]]]:
    """The option table as ``Action`` objects, the oracle's view: per
    track its edges, then its fallback; per detection its one option.
    A halted track's resumes to forced detections, which the table
    leaves out, are added back in detection id order: check, not
    assume."""
    tracks, forced = _option_table(spec)
    dets, preds, per_track = spec.detections_by_id, spec.predictions, {}
    for t, ((kind, event), dids, (fb, fb_event)) in tracks.items():
        back = [d for d in forced if kind is RESUME and dets[d].cls == preds[t].cls
                and dets[d].conf > spec.config.conf_thresh_resume]
        if back and (event := event or link_events(spec, RESUME, t)):
            dids = sorted(dids + back)
        per_track[t] = [Action(kind, t, d, event) for d in dids] + [Action(fb, t, event=fb_event)]
    options = {d.id: _det_option(spec, d) for d in spec.detections}
    return per_track, {d: [Action(k, det=d, event=e)] for d, (k, e) in options.items()}


def _explained(spec: ProblemSpec, trk: Optional[int], det: Optional[int], *kinds) -> Option:
    """The first of ``kinds``, then the ignore, that an event explains for
    the track or detection, with its abduced event (noise explains any)."""
    ignore = IGNORE_DET if trk is None else IGNORE_TRK
    for kind in (*kinds, ignore):
        if (event := link_events(spec, kind, trk, det)) is not None:
            return kind, event
    raise EngineBugError(f"no possible event explains {Action(ignore, trk, det).pretty()}")


# Per action kind, the event kinds that explain it, in preference order.
_EXPLAINED_BY = {a: [k for k, rule in EVENTS.items() if a in rule.explains] for a in ActionKind}


def link_events(
    spec: ProblemSpec, kind: ActionKind, trk: Optional[int] = None, det: Optional[int] = None
) -> Optional[EventOccurrence]:
    """The abduced event of an action of ``kind`` on track ``trk``, or on
    detection ``det`` if no track is given: the first possible event in
    the fixed preference order, which tests with :func:`possible` each
    event kind whose :data:`~abdtrack.domain.EVENTS` entry explains
    ``kind``, once per occluder the entry gives.  The search stops there,
    as no caller reads a later event, and builds the one
    ``EventOccurrence`` it returns.

    None makes the action inadmissible; no event explains an assign,
    which needs none.  The event of a resume does not depend on its
    detection.  The option table calls it once per fallback it tries and
    once for all of a halted track's resumes, and the solver once per
    halt it puts in the cover.
    """
    subject = det if trk is None else trk
    for k in _EXPLAINED_BY[kind]:
        for t2 in EVENTS[k].occluders(spec, subject):
            if possible(spec, k, subject, t2):
                return EventOccurrence(k, spec.frame, subject, t2, trk is None)
    return None


# ----------------------------------------------------------------------
# Objective accounting
# ----------------------------------------------------------------------

_L3_WEIGHT = 10
_L2_END = 5
_L2_START = 5
_L2_RESUME = 1


# (level3 cost, level2 cost) of each kind of action; only an assign gains
# at level 10, its likelihood plus one.
_COSTS = {
    ASSIGN: (0, 0),
    HALT: (0, 0),
    RESUME: (0, _L2_RESUME),
    END: (0, _L2_END),
    START: (0, _L2_START),
    IGNORE_TRK: (_L3_WEIGHT, 0),
    IGNORE_DET: (_L3_WEIGHT, 0),
}


def _objective(spec: ProblemSpec, actions: Iterable[Action]) -> tuple[int, int, int]:
    """(level 10 gain, level 3 cost, level 2 cost) of ``actions``."""
    likelihoods = spec.likelihoods
    l10 = l3 = l2 = 0
    for a in actions:
        kind = a.kind
        if kind is ASSIGN:  # which costs nothing at levels 3 and 2
            l10 += likelihoods[a.trk, a.det] + 1
        else:
            c3, c2 = _COSTS[kind]
            l3, l2 = l3 + c3, l2 + c2
    return l10, l3, l2


def _objective_key(obj: tuple[int, int, int]) -> tuple[int, int, int]:
    """Smaller is better: maximize level 10, then minimize 3, then 2."""
    return (-obj[0], obj[1], obj[2])


def _action_rank(a: Action) -> tuple[int, int]:
    """Per-track preference order of the oracle's tie-break (and of the
    option table's rows, which ``solve`` relies on)."""
    k = a.kind
    if k in (ASSIGN, RESUME):
        return (0, a.det)
    if k in (HALT, END):
        return (1, 0)
    return (2, 0)  # ignore_trk


def _fallback(spec: ProblemSpec, trk: int, option: Option) -> Action:
    """Track ``trk``'s fallback ``option`` as an action.  A halt enters
    the solve untested and is linked here, once it is in the cover;
    raises EngineBugError if no event explains it: its track, being
    active, would have had no fallback action at all."""
    kind, event = option
    if kind is HALT:
        event = link_events(spec, HALT, trk)
        if event is None:
            raise EngineBugError(f"track {trk} has no explainable fallback action")
    return Action(kind, trk, event=event)


def _result(spec: ProblemSpec, actions: list[Action]) -> SolveResult:
    """A cover in any order as a result, for ``solve_oracle`` and the
    tests' reference solver: track actions by track id, then
    detection-only actions by detection id, halts linked by
    :func:`_fallback`, scored by :func:`_objective`.  ``solve`` builds
    its result in this order as it goes."""
    track_part = sorted((a for a in actions if a.trk is not None), key=lambda a: a.trk)
    det_part = sorted((a for a in actions if a.trk is None), key=lambda a: a.det)
    ordered = [
        _fallback(spec, a.trk, _HALT_FALLBACK) if a.kind is HALT else a
        for a in track_part + det_part
    ]
    events = tuple(a.event for a in ordered if a.event is not None)
    return SolveResult(actions=tuple(ordered), events=events, objective=_objective(spec, ordered))


def _assert_disjoint_effects(events: tuple[EventOccurrence, ...]) -> None:
    """The abduced per-frame event set must touch pairwise-disjoint fluent
    instances so application order cannot matter."""
    seen: set[tuple] = set()
    for e in events:
        touched = touched_fluents(e)
        if touched & seen:
            raise EngineBugError(f"overlapping fluent effects at frame {e.frame}")
        seen |= touched


# ----------------------------------------------------------------------
# Exact solver: forced assigns, fallbacks and one canonical matching
# ----------------------------------------------------------------------


def solve(spec: ProblemSpec) -> SolveResult:
    """Lexicographic optimum over all consistent action-and-event covers.

    Deterministic: among optimal covers, returns the one whose per-track
    action sequence (tracks in ascending id order; assigns/resumes
    preferred by ascending detection id, then the fallback action) is
    lexicographically minimal.  One pass over the option table decides
    each track by one of three exact rules:

    - No edge: a track with no edge takes its fallback.
    - Forced assign: an active track whose only edge goes to a detection
      that is no other track's assign edge, a pair the table names, is
      assigned to it in every optimum: a cover without the pair leaves
      the detection free or resumed, and swapping in the assign gains at
      level 10, which no lower level outweighs.  So the table leaves the
      detection out of every resume list, and solve neither works the
      rule out nor filters an edge list.
    - Matching row: every other track's gain row is written as soon as
      it is decided, its detections numbered as columns in first-seen
      order, by the frame's one fold (:func:`_fold`), made with the
      first such row.  A cover's folded value is its fallbacks' plus its
      edges' gains, so the optima are the maximum-gain matchings, and
      one :func:`canonical_matching` of the rows, each ranking its
      edges by detection id, settles the tie-break.  The matching holds
      the frame's connected components of tracks and detections side by
      side, and that is exact: covers of different components combine
      freely and the objective adds over them, so the optimum is the
      union of the components' optima, and so is the canonical one, as
      each track's rank depends on its own component alone.

    The result is built in its final order, a slot per track in
    ascending id (a matching row's filled once the matching is solved),
    then the free detections' options by id, and :func:`_objective`
    scores it.  Only the cover's actions are made as ``Action``s, and
    only its halts and its free detections' options linked.
    """
    tracks, forced = _option_table(spec)
    det_options = {d.id: _det_option(spec, d) for d in spec.detections if d.id not in forced}

    likelihoods = spec.likelihoods
    cover: dict[int, Optional[Action]] = {}  # a slot per track, by id
    rows: list[int] = []  # the matching's tracks
    gain: list[dict[int, int]] = []  # per row, column -> gain, by detection id
    col: dict[int, int] = {}  # detection id -> column
    for t, (edge, dids, fallback) in tracks.items():
        if not dids:
            cover[t] = _fallback(spec, t, fallback)
            continue
        if forced.get(dids[0]) == t:
            cover[t] = Action(ASSIGN, t, dids[0])
            continue
        if not rows:
            value, c1 = _fold(len(tracks), len(spec.detections))
        cover[t] = None  # filled when the matching is solved
        rows.append(t)
        if edge is _ASSIGN_EDGE:  # its fallback, a halt, is worth 0
            gain.append({
                col.setdefault(d, len(col)): (likelihoods[t, d] + 1) * c1 - value[det_options[d][0]]
                for d in dids
            })
        else:
            base = value[RESUME] - value[fallback[0]]
            gain.append({col.setdefault(d, len(col)): base - value[det_options[d][0]] for d in dids})
    if rows:
        cols = list(col)
        for t, j in zip(rows, canonical_matching(gain, *linear_sum_assignment(gain, len(col))[1:])):
            edge, _, fallback = tracks[t]
            if j >= 0:
                cover[t] = Action(edge[0], t, cols[j], edge[1])
                del det_options[cols[j]]  # the options left are the free detections'
            else:
                cover[t] = _fallback(spec, t, fallback)

    actions = list(cover.values())
    if det_options:
        actions += [Action(k, None, d, e) for d, (k, e) in sorted(det_options.items())]
    events = tuple([a.event for a in actions if a.event is not None])
    if len(events) > 1:
        _assert_disjoint_effects(events)
    return SolveResult(tuple(actions), events, _objective(spec, actions))


def _fold(n_t: int, n_d: int) -> tuple[dict[ActionKind, int], int]:
    """The three levels of a frame of ``n_t`` tracks and ``n_d``
    detections folded into one exact integer: ``value[kind]``, an
    action's folded value but for an assign's level-10 gain, and ``c1``,
    which each unit of that gain is worth.  A cover's value is
    l10*c1 - l3*c2 - l2, with c2 = 5*n_t + 6*n_d + 2, which exceeds any
    cover's level-2 cost, and c1 = c2 * (10*(n_t + n_d) + 2), which
    exceeds its level-3 cost times c2 plus its level-2 cost; so no lower
    level overturns a higher one, and Python ints keep every sum exact.

    That value is also the sum of every track's fallback value and every
    detection's option value, plus the gains of its edges, an edge's
    gain being its value less the two values it replaces; and every edge
    gains: an assign >= c1, as no fallback or option is worth > 0, and a
    resume (worth -1) >= 9, as each value it replaces is <= -5.  As the
    constants are the frame's, a forced assign's gain and the matching's
    LP duals are in the same integers."""
    c2 = _L2_END * n_t + (_L2_START + _L2_RESUME) * n_d + 2
    c1 = c2 * (_L3_WEIGHT * (n_t + n_d) + 2)
    return {kind: -c3 * c2 - l2 for kind, (c3, l2) in _COSTS.items()}, c1


def canonical_matching(
    gain: list[dict[int, int]], match: list[int], u: list[int], v: list[int]
) -> list[int]:
    """Of the maximum-gain matchings, the one whose rows' choices are
    best in row order, lexicographically; a row ranks its columns in the
    order of ``gain[i]``, then no column.  ``match``, ``u`` and ``v`` are
    an optimum and its duals, as :func:`linear_sum_assignment` returns
    them; ``match`` becomes the result, each row's column or -1.

    The caller solves, so that each caller names its own matcher: the
    engine looks up this module's ``linear_sum_assignment`` at call time,
    and :mod:`abdtrack.metrics` binds it at import.

    The duals settle the order with no further solve.  For any matching
    N, sum(gain, N) <= sum(u_i + v_j over N's edges) <= sum(u) + sum(v)
    = the optimum, as u, v >= 0 and u_i + v_j >= gain on every edge; so
    N is optimal iff it uses only tight edges (u_i + v_j == gain) and
    covers every vertex with a positive dual (complementary slackness).
    Rows are fixed in order: each takes its first column that extends
    the rows fixed before it to an optimum, else none.  The optimum M is
    kept optimal and in agreement with the fixed rows, so M's own choice
    always extends, and only the columns ranked before it that no fixed
    row holds are tested.  The duals never change here, so each row walks
    its tight columns, listed once: a slack edge is in no optimum, and
    the exchange below settles a tight one.

    The exchange asks whether the tight edge (i, j), j held by no row
    before i, lies in an optimum that agrees with rows 0..i-1; if so, the
    matching becomes one that also holds (i, j), else it is restored.
    Drop M's edges at i (to m) and at j (from k) and add (i, j): the
    rest M' is a matching of the tight edges among the rows after i
    and the columns that no row up to i holds, and it covers every
    vertex with a positive dual there but k and m.  An optimum N
    with (i, j) exists iff some matching there covers them all.  If
    one does, the component of M' xor N at k, if u_k > 0, is an
    alternating path from k that ends at a column M' leaves free or
    at a row with a zero dual; conversely such a path, flipped,
    covers k and uncovers no column and no row with a positive
    dual.  So a search from k (:func:`_cover` from a row) settles the
    rows.  The same holds, sides swapped, at m (:func:`_cover` from a
    column) on the matching that flip leaves, which misses at most m,
    as N covers m too; a flip there uncovers no row and no column with
    a positive dual, so the result covers them all."""
    owner = [-1] * len(v)
    for i, j in enumerate(match):
        if j >= 0:
            owner[j] = i
    # per row, the columns of its tight edges
    cols = [[j for j, g in row.items() if ui + v[j] == g] for row, ui in zip(gain, u)]
    rows: list[list[int]] = []  # per column, the rows of its tight edges
    for i, js in enumerate(cols):
        m = match[i]
        for j in js:  # M's own column m is tight, so the walk reaches it
            if j == m:
                break
            k = owner[j]
            if 0 <= k < i:
                continue
            # Only a search from m can follow a search from k that changed
            # the matching; a failed search changes nothing.
            saved = (match[:], owner[:]) if m >= 0 and v[m] else None
            match[i], owner[j] = j, i
            if m >= 0:
                owner[m] = -1
            if k >= 0:
                match[k] = -1
            if k < 0 or not u[k] or _cover(k, i, True, cols, match, owner, u):
                if m < 0 or not v[m] or owner[m] >= 0:
                    break
                if not rows:  # built on first use: most matchings never search from a column
                    rows = [[] for _ in v]
                    for r, js in enumerate(cols):
                        for c in js:
                            rows[c].append(r)
                if _cover(m, i, False, rows, owner, match, v):
                    break
            if saved:
                match[:], owner[:] = saved
                continue
            match[i], owner[j] = m, k  # undo the exchange
            if m >= 0:
                owner[m] = i
            if k >= 0:
                match[k] = j
    return match


def linear_sum_assignment(
    rows: list[dict[int, int]], n_cols: int
) -> tuple[int, list[int], list[int], list[int]]:
    """A maximum-gain matching of a sparse bipartite graph, with LP duals
    that certify it, in exact integers.

    ``rows[i]`` maps each column j of an edge (i, j) to its gain, an int;
    columns are ``0 .. n_cols-1``, and any row or column may stay
    unmatched.  Returns ``(optimum, match, u, v)``: ``match[i]`` is row
    i's column, or -1; the duals are >= 0, ``u[i] + v[j] >= gain`` on
    every edge with equality on every matched edge, 0 on every unmatched
    row and column, and ``sum(u) + sum(v) == optimum``.

    Each row gets a private column of gain 0, its "unmatched" choice, so
    every row is matched in a rectangular assignment, solved by shortest
    augmenting paths (Crouse 2016, the algorithm of scipy's
    ``linear_sum_assignment``) with a heap over the edges.  A warm start
    in the manner of Jonker and Volgenant (1987) sets each row's dual to
    its best gain and gives the row a free column of that gain, if one
    is left; only the other rows need a path.  A column, once matched, stays
    matched, and only the columns a path search finishes gain dual,
    so an unmatched column's dual stays 0; a row on its private column
    has u + v = 0 there and reports 0."""
    n_rows = len(rows)
    u = [max([0, *row.values()]) for row in rows]
    v = [0] * (n_cols + n_rows)  # a row's private column is n_cols + its index
    match = [-1] * n_rows
    owner = [-1] * (n_cols + n_rows)
    left = []
    for i, row in enumerate(rows):
        best = u[i]
        for j, g in row.items():
            if g == best and owner[j] < 0:
                match[i], owner[j] = j, i
                break
        else:
            if best:
                left.append(i)
            else:
                match[i], owner[n_cols + i] = n_cols + i, i

    for root in left:
        # Dijkstra over reduced costs u + v - gain, which are >= 0 on
        # every edge of every row; on ties a free column comes first.
        final: dict[int, int] = {}  # column -> its shortest distance
        best_at: dict[int, int] = {}
        via: dict[int, int] = {}  # column -> the row it is reached from
        scanned = []  # (row, its distance)
        heap: list[tuple[int, bool, int]] = []
        i, d = root, 0
        while True:
            scanned.append((i, d))
            base = d + u[i]
            for j, g in rows[i].items():
                if j not in final:
                    dj = base + v[j] - g
                    if j not in best_at or dj < best_at[j]:
                        best_at[j], via[j] = dj, i
                        heappush(heap, (dj, owner[j] >= 0, j))
            # Row i's private column: free, as a row on its own is
            # reached by no path, and reached from row i alone.
            z = n_cols + i
            best_at[z], via[z] = base, i
            heappush(heap, (base, False, z))
            while True:
                d, _, j = heappop(heap)
                if j not in final:
                    break
            final[j] = d
            i = owner[j]
            if i < 0:
                break
        for r, dr in scanned:
            u[r] -= d - dr
        for c, dc in final.items():
            v[c] += d - dc
        _flip(via, j, root, match, owner)  # augment along the path to column j

    optimum = 0
    for i, j in enumerate(match):
        if j < n_cols:
            optimum += rows[i][j]
        else:
            match[i], u[i] = -1, 0
    return optimum, match, u, v[:n_cols]



def _cover(
    start: int, i: int, from_row: bool,
    adj: list[list[int]], mate: list[int], back: list[int], dual: list[int],
) -> bool:
    """Breadth-first search from ``start``, a row or a column that the
    matching leaves free, over tight edges (``adj``) to vertices of the
    other side that no fixed row, 0..i, holds and back over matched
    edges, for a free vertex of the other side or a vertex of start's
    side with a zero dual; flips the path if found.  ``mate`` maps
    start's side to its matched vertices, ``back`` the other side, and
    ``dual`` holds start's side's duals.  A column is held when its
    owner is fixed, a row when it is fixed itself, so ``from_row``
    selects which vertex the test reads."""
    via: dict[int, int] = {}  # vertex of the other side -> the one it is reached from
    queue = [start]
    for x in queue:
        for y in adj[x]:
            if y in via:
                continue
            o = back[y]
            if 0 <= (o if from_row else y) <= i:
                continue
            via[y] = x
            if o >= 0 and dual[o]:
                queue.append(o)
                continue
            if o >= 0:
                mate[o] = -1
            _flip(via, y, start, mate, back)
            return True
    return False


def _flip(via: dict[int, int], y: int, start: int, mate: list[int], back: list[int]) -> None:
    """Flip the alternating path that ends at ``y`` and leads back by
    ``via`` and matched edges to ``start``: each vertex y on it is matched
    to ``via[y]``, the vertex it was reached from, and start, free
    before, ends matched."""
    while True:
        x = via[y]
        mate[x], back[y], y = y, x, mate[x]
        if x == start:
            return


# ----------------------------------------------------------------------
# Exhaustive oracle
# ----------------------------------------------------------------------

ORACLE_LIMIT = 5


def solve_oracle(spec: ProblemSpec) -> SolveResult:
    """Exhaustive enumeration of every legal cover; the lexicographic
    optimum under the same deterministic tie-break as :func:`solve`.

    Refuses instances with more than five tracks or detections, and
    raises EngineBugError if no cover is legal.
    """
    if len(spec.predictions) > ORACLE_LIMIT or len(spec.detections) > ORACLE_LIMIT:
        raise ValueError("oracle limited to instances of at most 5x5")

    cands, det_opts = candidate_actions(spec)
    # Also try the ignores that end and start dominate: check, not assume.
    for t, opts in cands.items():
        if opts and opts[-1].kind is END:
            opts.append(Action(IGNORE_TRK, t, event=_explained(spec, t, None)[1]))
    for d, opts in det_opts.items():
        if opts[0].kind is START:
            opts.append(Action(IGNORE_DET, det=d, event=_explained(spec, None, d)[1]))
    track_ids = sorted(cands)
    det_ids = [d.id for d in spec.detections]

    def covers(i: int, used: frozenset) -> Iterator[tuple[Action, ...]]:
        """Every legal cover: an option per track from the i-th on, on
        detections not yet used, then one per detection left free."""
        if i == len(track_ids):
            yield from itertools.product(*(det_opts[d] for d in det_ids if d not in used))
            return
        for a in cands[track_ids[i]]:
            if a.det is None or a.det not in used:
                for rest in covers(i + 1, used | {a.det}):
                    yield (a, *rest)

    def key(cover: tuple[Action, ...]) -> tuple:
        ranks = tuple(_action_rank(a) for a in cover[: len(track_ids)])
        return _objective_key(_objective(spec, cover)), ranks

    best = min(covers(0, frozenset()), key=key, default=None)
    if best is None:
        raise EngineBugError(f"no legal cover at frame {spec.frame}")
    return _result(spec, list(best))


# ----------------------------------------------------------------------
# Fact emission
# ----------------------------------------------------------------------


def emit_facts(spec: ProblemSpec) -> str:
    """Render the problem specification as logic-program facts.

    Grammar (byte-exact, one fact per line, trailing periods):

        #const curr_time=T.
        det(det_I, CLASS, CONF).          (spaces after commas)
        box2d(det_I, X, Y, W, H).
        trk(trk_I, CLASS). / trk_state(trk_I, STATE).   (interleaved)
        box2d(trk_I, X, Y, W, H).
        iou(trk_I,det_J,ML).              (no spaces, pairs with IoU > 0,
                                           ordered by det then track)

    Blocks are separated by single blank lines; box coordinates are
    rounded to integers; fluents, ages, geometry, thresholds left out.
    """
    blocks: list[list[str]] = [[f"#const curr_time={spec.frame}."]]

    if spec.detections:
        blocks.append([f"det(det_{d.id}, {d.cls}, {d.conf})." for d in spec.detections])
        blocks.append([_box2d(f"det_{d.id}", d.box) for d in spec.detections])

    tids = sorted(spec.predictions)
    if tids:
        trk_lines = []
        for t in tids:
            p = spec.predictions[t]
            trk_lines.append(f"trk(trk_{t}, {p.cls}).")
            trk_lines.append(f"trk_state(trk_{t}, {p.state.value}).")
        blocks.append(trk_lines)
        blocks.append([_box2d(f"trk_{t}", spec.predictions[t].box) for t in tids])

    iou_lines = [
        f"iou(trk_{t},det_{d},{ml})."
        for (t, d), ml in sorted(spec.likelihoods.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if ml > 0
    ]
    if iou_lines:
        blocks.append(iou_lines)

    return "\n\n".join("\n".join(b) for b in blocks if b) + "\n"


def _box2d(name: str, b: BBox2D) -> str:
    x, y, w, h = (int(round(v)) for v in (b.x, b.y, b.w, b.h))
    return f"box2d({name}, {x}, {y}, {w}, {h})."
