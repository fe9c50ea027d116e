"""Per-frame joint assignment and event abduction.

Every track and every detection must be covered by exactly one action:

    assign(trk, det) | start(det) | end(trk) | halt(trk)
    | resume(trk, det) | ignore_trk(trk) | ignore_det(det)

Candidate actions are generated choice-rule style and pruned by integrity
constraints; each non-assign action must additionally be explainable by at
least one possible high-level event.  A frame's options go once each,
with their abduced events, into one option table (the objective makes
end beat ignore_trk and start beat ignore_det, so the dominated ignore
is not made, nor the option of a detection that a forced assign takes).
A halt, an active track's fallback, enters the solve untested and is
linked once the cover holds it (a cover halt with no possible event
raises ``EngineBugError``).  The optimum is lexicographic:

    level 10 (maximize): sum of scaled IoU over assign pairs plus the
        number of assign actions (two equal-priority maximize terms);
    level  3 (minimize): 10 * (#ignore_det + #ignore_trk);
    level  2 (minimize): 5 * (#end + #start) + 1 * (#resume).

Ties are broken deterministically: lowest track id first, then lowest
detection id, then the fixed event-preference order of
:class:`~abdtrack.domain.EventKind`.

The solver decides each frame in two steps read off the option table,
each an exact consequence of the objective (see :func:`solve`):

- forced assign: an active track with one assign edge, to a detection no
  other track can assign, takes it in every optimum, as only assigns
  gain at level 10;
- one canonical matching: the other tracks with edges and their
  detections fold the three levels into one exact integer per kind of
  action, with constants sized to them, and solve one maximum-weight
  bipartite matching with LP duals (per-action costs are independent
  once event preconditions are evaluated against the pre-solve fluent
  state); tracks are then fixed in id order, the duals settling each
  better-ranked edge on a free detection without a further solve.

Only the cover's actions are made as ``Action`` objects, each in its
place in the result; :func:`_objective` scores every cover, the
solver's as well as the oracle's.  ``solve_oracle`` exhaustively
enumerates every legal cover of small instances from the same table,
made into actions by :func:`candidate_actions`, and must agree with
``solve``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
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

    @property
    def iou_thresh_scaled(self) -> int:
        return int(round(self.iou_thresh * IOU_SCALE))


@record
class TrackPrediction:
    """One live track as the solver sees it."""

    box: BBox2D
    state: TrackState
    cls: str
    halted_age: int = 0


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections_by_id", {d.id: d for d in self.detections})


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


@dataclass(frozen=True)
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


def _option_table(spec: ProblemSpec) -> dict[int, TrackRow]:
    """The frame's explained track options: per track, in ascending id,
    its edge option, its edge detection ids in ascending order and its
    fallback.

    Edges need the track's class and a confident detection: an active
    track's are the assigns :meth:`Thresholds.admitted_assigns` admits;
    a halted track's are resumes, which share one link.  An
    active track's fallback, ``halt``, enters untested (see
    :func:`_fallback`): the canonical cover of this larger set, if its
    halts are explained, is that of the strict set, and
    missing_detections explains the halt of every active track the
    engine makes.  A halted track's fallback is the first explained of
    ``end``, ``ignore_trk``; a detection's is :func:`_det_option`."""
    config = spec.config
    dets = spec.detections_by_id
    preds = spec.predictions
    assigns = config.admitted_assigns(spec.likelihoods, dets, preds)
    resumable: dict[str, list[int]] = {}
    for did in sorted(dets):
        if dets[did].conf > config.conf_thresh_resume:
            resumable.setdefault(dets[did].cls, []).append(did)
    tracks = {}
    for tid in sorted(preds):
        pred = preds[tid]
        if pred.state is ACTIVE:
            dids = assigns.get(tid, [])
            if len(dids) > 1:  # the likelihoods list a track's pairs in any order
                dids.sort()
            tracks[tid] = (ASSIGN, None), dids, (HALT, None)
        elif pred.state is HALTED:
            dids = resumable.get(pred.cls, [])
            events = link_events(spec, RESUME, tid) if dids else []
            edge = RESUME, events[0] if events else None
            tracks[tid] = edge, dids if events else [], _explained(spec, tid, None, END)
        else:
            raise EngineBugError(f"ended track {tid} in problem spec")
    return tracks


def _det_option(spec: ProblemSpec, det: Detection) -> Option:
    """A detection's one option: the first explained of ``start`` (if
    :meth:`Thresholds.admits_start`), ``ignore_det``."""
    if spec.config.admits_start(det):
        return _explained(spec, None, det.id, START)
    return _explained(spec, None, det.id)


def candidate_actions(spec: ProblemSpec) -> tuple[dict[int, list[Action]], dict[int, list[Action]]]:
    """The option table as ``Action`` objects, the oracle's view: per
    track its edges, then its fallback; per detection its one option."""
    per_track = {
        t: [Action(edge[0], t, did, edge[1]) for did in dids] + [Action(fb[0], t, event=fb[1])]
        for t, (edge, dids, fb) in _option_table(spec).items()
    }
    options = {d.id: _det_option(spec, d) for d in spec.detections}
    return per_track, {d: [Action(k, det=d, event=e)] for d, (k, e) in options.items()}


def _explained(spec: ProblemSpec, trk: Optional[int], det: Optional[int], *kinds) -> Option:
    """The first of ``kinds``, then the ignore, that an event explains for
    the track or detection, with its abduced event (noise explains any)."""
    ignore = IGNORE_DET if trk is None else IGNORE_TRK
    for kind in (*kinds, ignore):
        events = link_events(spec, kind, trk, det)
        if events:
            return kind, events[0]
    raise EngineBugError(f"no possible event explains {Action(ignore, trk, det).pretty()}")


# Per action kind, the event kinds that explain it, in preference order.
_EXPLAINED_BY = {a: [k for k, rule in EVENTS.items() if a in rule.explains] for a in ActionKind}


def link_events(
    spec: ProblemSpec, kind: ActionKind, trk: Optional[int] = None, det: Optional[int] = None
) -> list[EventOccurrence]:
    """Admissible explaining events for an action of ``kind`` on track
    ``trk``, or on detection ``det`` if no track is given, in the fixed
    preference order (the first entry is the abduced one): each event
    kind whose :data:`~abdtrack.domain.EVENTS` entry explains ``kind``,
    once per occluder the entry gives, kept if possible.

    An empty list makes the action inadmissible; no event explains an
    assign, which needs none.  The events of a resume do not depend on
    its detection.  The option table calls it once per fallback it tries
    and once for all of a halted track's resumes, and the solver once per
    halt it puts in the cover.
    """
    subject, on_det = (det, True) if trk is None else (trk, False)
    events = [
        EventOccurrence(k, spec.frame, subject, t2, on_det)
        for k in _EXPLAINED_BY[kind]
        for t2 in EVENTS[k].occluders(spec, subject)
    ]
    return [e for e in events if possible(spec, e)]


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
    l10 = l3 = l2 = 0
    for a in actions:
        if a.kind is ASSIGN:
            l10 += spec.likelihoods[a.trk, a.det] + 1
        c3, c2 = _COSTS[a.kind]
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
        event = next(iter(link_events(spec, HALT, trk)), None)
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
        _fallback(spec, a.trk, (HALT, None)) if a.kind is HALT else a
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
# Exact solver: forced assigns, then one canonical matching
# ----------------------------------------------------------------------


def solve(spec: ProblemSpec) -> SolveResult:
    """Lexicographic optimum over all consistent action-and-event covers.

    Deterministic: among optimal covers, returns the one whose per-track
    action sequence (tracks in ascending id order; assigns/resumes
    preferred by ascending detection id, then the fallback action) is
    lexicographically minimal.  The frame is solved in two exact steps
    from the option table:

    - Forced assign: an active track whose only edge goes to a detection
      that is no other track's assign edge is assigned to it in every
      optimum: a cover without the pair leaves the detection free or
      resumed, and swapping in the assign gains at level 10, which no
      lower level outweighs.  The detection leaves every resume list.
    - One canonical matching: a track left with no edge takes its
      fallback; every other track, with the detections of its edges, goes
      to one exact integer matching whose duals settle the tie-break
      (:func:`_mixed_block`).  The matching holds the frame's connected
      components of tracks and detections side by side, and that is
      exact: covers of different components combine freely and the
      objective adds over them, so the optimum is the union of the
      components' optima, and so is the canonical one, as each track's
      rank depends on its own component alone.

    The result is built in its final order, a slot per track in
    ascending id (a matched track's filled once the matching is solved),
    then the free detections' options by id, and :func:`_objective`
    scores it.  Only the cover's actions are made as ``Action``s, and
    only its halts and its free detections' options linked.
    """
    tracks = _option_table(spec)
    claims: dict[int, int] = {}
    for edge, dids, _ in tracks.values():
        if edge[0] is ASSIGN:
            for did in dids:
                claims[did] = claims.get(did, 0) + 1
    forced = {
        dids[0]: t
        for t, (edge, dids, _) in tracks.items()
        if edge[0] is ASSIGN and len(dids) == 1 and claims[dids[0]] == 1
    }
    det_options = {d.id: _det_option(spec, d) for d in spec.detections if d.id not in forced}

    cover: dict[int, Optional[Action]] = {}  # a slot per track, by id
    edges: dict[int, list[int]] = {}
    for t, (edge, dids, fallback) in tracks.items():
        if dids and forced.get(dids[0]) == t:
            cover[t] = Action(ASSIGN, t, dids[0])
            continue
        if forced and edge[0] is not ASSIGN:
            dids = [d for d in dids if d not in forced]
        if dids:
            cover[t] = None  # filled when the matching is solved
            edges[t] = dids
        else:
            cover[t] = _fallback(spec, t, fallback)
    if edges:
        for a in _mixed_block(spec, tracks, det_options, edges):
            cover[a.trk] = a
            det_options.pop(a.det, None)  # the options left are the free detections'

    actions = list(cover.values())
    actions += [Action(k, None, d, e) for d, (k, e) in sorted(det_options.items())]
    events = tuple([a.event for a in actions if a.event is not None])
    _assert_disjoint_effects(events)
    return SolveResult(tuple(actions), events, _objective(spec, actions))


def _mixed_block(
    spec: ProblemSpec,
    tracks: dict[int, TrackRow],
    det_options: dict[int, Option],
    edges: dict[int, list[int]],
) -> list[Action]:
    """The canonical cover of the tracks with ``edges``, in ascending id,
    and the detections of those edges, by one matching.

    The three levels fold into one exact integer per kind of action, and
    a cover's folded value is the sum of all fallback values plus the
    gains of its edges, an edge's gain being its value less the two
    fallback values it replaces.  So the optima are the maximum-gain
    matchings, and the canonical cover is the :func:`canonical_matching`
    of the gains, each track's edges ranked by detection id.  Returns the
    track actions; the detections left free take their options in
    :func:`solve`."""
    rows = list(edges)
    col: dict[int, int] = {}  # detection id -> column
    for dids in edges.values():
        for did in dids:
            col.setdefault(did, len(col))
    n_t, n_d = len(rows), len(col)
    # Fold levels into one integer: value = l10*c1 - l3*c2 - l2, with
    # constants large enough that no lower level can overturn a higher
    # one among these rows and columns.  Python ints keep every sum exact.
    max_l2 = _L2_END * n_t + (_L2_START + _L2_RESUME) * n_d + 1
    c2 = max_l2 + 1
    c1 = c2 * (_L3_WEIGHT * (n_t + n_d) + 1) + max_l2 + 1

    # Every edge gains: an assign >= c1, as no fallback is worth > 0; a
    # resume (-1) >= 9, as each fallback it replaces is worth <= -5.
    value = {kind: -c3 * c2 - l2 for kind, (c3, l2) in _COSTS.items()}
    det_value = {did: value[det_options[did][0]] for did in col}
    likelihoods = spec.likelihoods
    gain: list[dict[int, int]] = []  # per track, column -> gain, by detection id
    for t in rows:
        edge, _, fallback = tracks[t]
        if edge[0] is ASSIGN:  # its fallback, a halt, is worth 0
            gain.append({
                col[did]: (likelihoods[t, did] + 1) * c1 - det_value[did] for did in edges[t]
            })
        else:
            base = value[RESUME] - value[fallback[0]]
            gain.append({col[did]: base - det_value[did] for did in edges[t]})

    cols = list(col)
    actions = []
    for t, j in zip(rows, canonical_matching(gain, *linear_sum_assignment(gain, n_d)[1:])):
        edge, _, fallback = tracks[t]
        if j >= 0:
            actions.append(Action(edge[0], t, cols[j], edge[1]))
        else:
            actions.append(_fallback(spec, t, fallback))
    return actions


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
    row holds are tested: a slack edge is in no optimum, and
    :meth:`_Tight.take` settles a tight one."""
    tight = _Tight(gain, match, u, v)
    owner = tight.owner
    for i, row in enumerate(gain):
        for j, g in row.items():
            if j == match[i]:
                break
            k = owner[j]
            if (k < 0 or k > i) and u[i] + v[j] == g and tight.take(i, j):
                break
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
        while True:  # augment along the path to column j
            r = via[j]
            owner[j] = r
            match[r], j = j, match[r]
            if r == root:
                break

    optimum = 0
    for i, j in enumerate(match):
        if j < n_cols:
            optimum += rows[i][j]
        else:
            match[i], u[i] = -1, 0
    return optimum, match, u, v[:n_cols]


class _Tight:
    """An optimal matching, with its duals and tight edges, as the
    canonical loop of :func:`canonical_matching` fixes its rows in order.

    ``match`` (row -> column) and ``owner`` (column -> row) hold the
    matching, -1 where unmatched.  :meth:`take` asks whether row i, with
    rows 0..i-1 fixed as they are, can take column j in some optimum, and
    if so moves the matching to one such optimum."""

    def __init__(
        self, gain: list[dict[int, int]], match: list[int], u: list[int], v: list[int]
    ) -> None:
        self.match, self.u, self.v = match, u, v
        self.owner = [-1] * len(v)
        for i, j in enumerate(match):
            if j >= 0:
                self.owner[j] = i
        # per row, the columns of its tight edges
        self.cols = [[j for j, g in row.items() if ui + v[j] == g] for row, ui in zip(gain, u)]

    @cached_property
    def rows(self) -> list[list[int]]:
        """Per column, the rows of its tight edges, in order."""
        rows: list[list[int]] = [[] for _ in self.v]
        for i, js in enumerate(self.cols):
            for j in js:
                rows[j].append(i)
        return rows

    def take(self, i: int, j: int) -> bool:
        """Whether the tight edge (i, j), j held by no row before i, lies
        in an optimum that agrees with rows 0..i-1; if so, the matching
        becomes one that also holds (i, j).

        Drop M's edges at i (to m) and at j (from k) and add (i, j): the
        rest M' is a matching of the tight edges among the rows after i
        and the columns that no row up to i holds, and it covers every
        vertex with a positive dual there but k and m.  An optimum N
        with (i, j) exists iff some matching there covers them all.  If
        one does, the component of M' xor N at k, if u_k > 0, is an
        alternating path from k that ends at a column M' leaves free or
        at a row with a zero dual; conversely such a path, flipped,
        covers k and uncovers no column and no row with a positive
        dual.  So a search from k (:meth:`_cover_row`) settles the rows.
        The same holds, sides swapped, at m (:meth:`_cover_col`) on the
        matching that flip leaves, which misses at most m, as N covers m
        too; a flip there uncovers no row and no column with a positive
        dual, so the result covers them all."""
        match, owner = self.match, self.owner
        saved = match[:], owner[:]
        k, m = owner[j], match[i]
        match[i], owner[j] = j, i
        if m >= 0:
            owner[m] = -1
        if k >= 0:
            match[k] = -1
        if (k < 0 or not self.u[k] or self._cover_row(k, i)) and (
            m < 0 or not self.v[m] or owner[m] >= 0 or self._cover_col(m, i)
        ):
            return True
        match[:], owner[:] = saved
        return False

    def _cover_row(self, k: int, i: int) -> bool:
        """Breadth-first search from the free row k, over tight edges to
        columns no row up to i holds and matched edges back, for a free
        column or a row with a zero dual; flips the path if found."""
        match, owner, u = self.match, self.owner, self.u
        via: dict[int, int] = {}  # column -> the row it is reached from
        queue = [k]
        for r in queue:
            for d in self.cols[r]:
                if d in via:
                    continue
                o = owner[d]
                if 0 <= o <= i:
                    continue
                via[d] = r
                if o >= 0 and u[o]:
                    queue.append(o)
                    continue
                if o >= 0:
                    match[o] = -1
                while True:
                    r = via[d]
                    match[r], owner[d], d = d, r, match[r]
                    if r == k:
                        return True
        return False

    def _cover_col(self, m: int, i: int) -> bool:
        """Breadth-first search from the free column m, over tight edges
        to rows after i and matched edges back, for a free row or a
        column with a zero dual; flips the path if found."""
        match, owner, v = self.match, self.owner, self.v
        via: dict[int, int] = {}  # row -> the column it is reached from
        queue = [m]
        for d in queue:
            for r in self.rows[d]:
                if r <= i or r in via:
                    continue
                via[r] = d
                c = match[r]
                if c >= 0 and v[c]:
                    queue.append(c)
                    continue
                if c >= 0:
                    owner[c] = -1
                while True:
                    d = via[r]
                    match[r], owner[d], r = d, r, owner[d]
                    if d == m:
                        return True
        return False


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
